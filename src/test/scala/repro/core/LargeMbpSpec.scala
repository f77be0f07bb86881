package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.Sinks.collect

class LargeMbpSpec extends SparkSpec {

  for (k <- 1 to 2; theta <- 1 to 3) {
    test(s"LargeMbp equals filtered brute force (k=$k, theta=$theta)") {
      for ((g, seed) <- TestGraphs.smallBatch(35, maxSide = 6, seed = 6000 + k * 10 + theta)) {
        val exp = BruteForce.largeMaximalKBiplexes(g, k, theta)
        val got = collect(LargeMbp.enumerate(g, k, theta, theta, _))._1
        assert(got == exp,
          s"seed $seed k=$k theta=$theta:\n missing ${(exp -- got).take(5)}\n extra ${(got -- exp).take(5)}")
      }
    }
  }

  test("asymmetric thresholds (thetaL != thetaR)") {
    for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 6100)) {
      val exp = BruteForce.maximalKBiplexes(g, 1)
        .filter(s => s.left.length >= 1 && s.right.length >= 3)
      val got = collect(LargeMbp.enumerate(g, 1, 1, 3, _))._1
      assert(got == exp, s"seed $seed")
    }
  }

  test("results carry original vertex ids after core reduction") {
    val g = TestGraphs.random(8, 8, 0.5, 777)
    LargeMbp.enumerate(g, 1, 2, 2, s => {
      assert(Biplex.isMaximalKBiplex(g, 1, s.left, s.right), s"$s not maximal in original graph")
      true
    })
  }

  test("beyond brute-force size: LargeMbp equals θ-filtered iTraversal (k=1, θ=(3,4))") {
    // Thousands of MBPs: the exclusion seed skip runs together with core
    // reduction, two-hop seeding and the θ prunings.
    val g = repro.gen.BipartiteGen.er(20, 20, 100, seed = 1)
    val (all, _) = collect(ReverseSearch.run(g, 1, TraversalConfig.iTraversal, _))
    val exp = all.filter(s => s.left.length >= 3 && s.right.length >= 4)
    assert(all.size >= 1000 && exp.size >= 100, s"${all.size} MBPs, ${exp.size} large")
    assert(collect(LargeMbp.enumerate(g, 1, 3, 4, _))._1 == exp)
  }

  test("LargeMbp's links, EnumAlmostSat calls and solutions are pinned") {
    // Recorded before the counting kernel replaced the sort-based count of
    // two-hop seeds and candidates and the θ seed test's intersection; a
    // change that moves them changes the traversal, not just its speed.
    // (locals, rightRejected) were recorded with the R'' skip of the
    // right-shrinking test, which moves them but not the other three.
    def counts(g: repro.graph.BipartiteGraph, thetaL: Int, thetaR: Int, firstN: Int) = {
      var n = 0
      val st = LargeMbp.enumerate(g, 1, thetaL, thetaR, _ => { n += 1; n < firstN })
      (st.links, st.easCalls, st.solutions, st.locals, st.rightRejected)
    }
    assert(counts(repro.gen.BipartiteGen.er(20, 20, 100, seed = 1), 3, 4, Int.MaxValue) ==
      ((1472L, 920L, 280L, 2582L, 1110L)))
    assert(counts(repro.gen.FraudGen.generate(seed = 1).graph, 4, 7, 1000) == ((2662L, 2257L, 1000L, 4530L, 1868L)))
  }

  test("LargeMbp keeps the given left order, unlike the iTraversal preset") {
    // The pins above hold the given order. On the same reduced graph,
    // iTraversal's degree order takes 125 359 links to the first 1000.
    val g = repro.gen.FraudGen.generate(seed = 1).graph
    val (cl, cr) = CoreReduction.alphaBetaCore(g, 7 - 1, 4 - 1)
    val (sub, _, _) = g.inducedSubgraph(cl, cr)
    def first1000(st: (Solution => Boolean) => EnumStats) = {
      var n = 0
      val s = st(_ => { n += 1; n < 1000 })
      (s.links, s.easCalls, s.solutions)
    }
    val cfg = TraversalConfig.iTraversal.copy(theta = Some((4, 7)), twoHopSeeds = true)
    assert(first1000(LargeMbp.enumerate(g, 1, 4, 7, _)) == ((2662L, 2257L, 1000L)))
    assert(first1000(ReverseSearch.run(sub, 1, cfg.copy(degreeOrder = false), _)) == ((2662L, 2257L, 1000L)))
    assert(first1000(ReverseSearch.run(sub, 1, cfg, _)) == ((125359L, 53517L, 1000L)))
  }

  test("no large MBPs when theta exceeds the graph") {
    val g = TestGraphs.random(3, 3, 0.5, 778)
    assert(collect(LargeMbp.enumerate(g, 1, 5, 5, _))._1.isEmpty)
  }

  test("theta = 1 equals unconstrained enumeration") {
    for ((g, seed) <- TestGraphs.smallBatch(15, maxSide = 5, seed = 6200)) {
      val exp = BruteForce.maximalKBiplexes(g, 1)
        .filter(s => s.left.nonEmpty && s.right.nonEmpty)
      val got = collect(LargeMbp.enumerate(g, 1, 1, 1, _))._1
      assert(got == exp, s"seed $seed")
    }
  }
}
