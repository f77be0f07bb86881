package repro.core

import repro.{SparkSpec, TestGraphs}

class CoreReductionSpec extends SparkSpec {

  /** Naive fixpoint reference. */
  private def naiveCore(g: repro.graph.BipartiteGraph, alpha: Int, beta: Int): (Set[Int], Set[Int]) = {
    var ls = (0 until g.nL).toSet
    var rs = (0 until g.nR).toSet
    var changed = true
    while (changed) {
      val ls2 = ls.filter(v => g.adjL(v).count(rs) >= alpha)
      val rs2 = rs.filter(u => g.adjR(u).count(ls) >= beta)
      changed = ls2 != ls || rs2 != rs
      ls = ls2; rs = rs2
    }
    (ls, rs)
  }

  for (alpha <- 0 to 3; beta <- 0 to 3) {
    test(s"alphaBetaCore matches naive fixpoint (alpha=$alpha, beta=$beta)") {
      for ((g, seed) <- TestGraphs.smallBatch(20, maxSide = 7, seed = 5000 + alpha * 10 + beta)) {
        val (ls, rs) = CoreReduction.alphaBetaCore(g, alpha, beta)
        val (els, ers) = naiveCore(g, alpha, beta)
        assert(ls.toSet == els && rs.toSet == ers, s"seed $seed")
      }
    }
  }

  test("core is degree-feasible: every survivor meets its bound") {
    for ((g, seed) <- TestGraphs.smallBatch(20, maxSide = 8, seed = 5100)) {
      val (ls, rs) = CoreReduction.alphaBetaCore(g, 2, 2)
      val rsSet = rs.toSet
      val lsSet = ls.toSet
      ls.foreach(v => assert(g.adjL(v).count(rsSet) >= 2, s"seed $seed"))
      rs.foreach(u => assert(g.adjR(u).count(lsSet) >= 2, s"seed $seed"))
    }
  }

  test("dCore with d <= 0 keeps everything") {
    val g = TestGraphs.random(5, 5, 0.3, 123)
    val (ls, rs) = CoreReduction.alphaBetaCore(g, 0, 0)
    assert(ls.length == 5 && rs.length == 5)
  }

  test("large MBPs survive the (theta-k)-core reduction") {
    for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 5200)) {
      val k = 1
      val theta = 2
      val large = BruteForce.largeMaximalKBiplexes(g, k, theta)
      val (ls, rs) = CoreReduction.alphaBetaCore(g, theta - k, theta - k)
      val lsSet = ls.toSet
      val rsSet = rs.toSet
      large.foreach { s =>
        assert(s.left.forall(lsSet) && s.right.forall(rsSet),
          s"seed $seed: large MBP $s lost by core reduction")
      }
    }
  }
}
