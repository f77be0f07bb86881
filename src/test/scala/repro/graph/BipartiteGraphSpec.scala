package repro.graph

import repro.{SparkSpec, TestGraphs}
import scala.util.Random

class BipartiteGraphSpec extends SparkSpec {

  test("fromEdges dedups and sorts adjacency") {
    val g = BipartiteGraph.fromEdges(2, 3, Seq((0, 2), (0, 0), (0, 2), (1, 1)))
    assert(g.numEdges == 3)
    assert(g.adjL(0).toSeq == Seq(0, 2))
    assert(g.adjL(1).toSeq == Seq(1))
    assert(g.adjR(0).toSeq == Seq(0))
    assert(g.adjR(1).toSeq == Seq(1))
    assert(g.adjR(2).toSeq == Seq(0))
  }

  test("fromEdges rejects out-of-range ids") {
    intercept[IllegalArgumentException] {
      BipartiteGraph.fromEdges(2, 2, Seq((2, 0)))
    }
    intercept[IllegalArgumentException] {
      BipartiteGraph.fromEdges(2, 2, Seq((0, 5)))
    }
  }

  test("adjL and adjR are mutually consistent on random graphs") {
    for ((g, seed) <- TestGraphs.smallBatch(30, maxSide = 8)) {
      for (v <- 0 until g.nL; u <- 0 until g.nR) {
        assert(
          VertexSets.contains(g.adjL(v), u) == VertexSets.contains(g.adjR(u), v),
          s"asymmetric adjacency at ($v,$u), seed $seed")
        assert(g.hasEdge(v, u) == VertexSets.contains(g.adjL(v), u), s"hasEdge wrong, seed $seed")
      }
    }
  }

  test("degrees sum to edge count") {
    for ((g, _) <- TestGraphs.smallBatch(20)) {
      assert((0 until g.nL).map(g.degL).sum.toLong == g.numEdges)
      assert((0 until g.nR).map(g.degR).sum.toLong == g.numEdges)
    }
  }

  test("flipped swaps sides without copying semantics") {
    val g = TestGraphs.random(4, 6, 0.5, 7)
    val f = g.flipped
    assert(f.nL == g.nR && f.nR == g.nL && f.numEdges == g.numEdges)
    for (v <- 0 until g.nL; u <- 0 until g.nR) {
      assert(g.hasEdge(v, u) == f.hasEdge(u, v))
    }
    assert(f.flipped.hasEdge(1, 2) == g.hasEdge(1, 2))
  }

  test("inducedSubgraph keeps exactly the induced edges and remaps ids") {
    val rnd = new Random(5)
    for ((g, seed) <- TestGraphs.smallBatch(20, maxSide = 7)) {
      val keepL = (0 until g.nL).filter(_ => rnd.nextBoolean()).toArray
      val keepR = (0 until g.nR).filter(_ => rnd.nextBoolean()).toArray
      val (sub, backL, backR) = g.inducedSubgraph(keepL, keepR)
      assert(sub.nL == keepL.length && sub.nR == keepR.length)
      for (i <- 0 until sub.nL; j <- 0 until sub.nR) {
        assert(sub.hasEdge(i, j) == g.hasEdge(backL(i), backR(j)), s"seed $seed")
      }
    }
    val g = TestGraphs.random(4, 4, 0.5, 3)
    intercept[IllegalArgumentException](g.inducedSubgraph(Array(2, 1), Array(0)))
    intercept[IllegalArgumentException](g.inducedSubgraph(Array(1), Array(0, 0)))
  }

  test("leftByDegree orders by (degree, id) and relabelLeft renames the left side with sorted lists") {
    for ((g, seed) <- TestGraphs.smallBatch(30, maxSide = 8)) {
      val order = g.leftByDegree
      assert(order.sorted.toSeq == (0 until g.nL), s"seed $seed: not a permutation")
      assert(order.toSeq.map(v => (g.degL(v), v)) == order.toSeq.map(v => (g.degL(v), v)).sorted, s"seed $seed")
      val h = g.relabelLeft(order)
      assert(h.edges.map { case (i, u) => (order(i), u) }.toSet == g.edges.toSet, s"seed $seed: edges")
      for (u <- 0 until h.nR) {
        val a = h.adjR(u)
        assert(a.indices.drop(1).forall(i => a(i - 1) < a(i)), s"seed $seed: adjR($u) not sorted")
        assert(a.forall(i => h.adjL(i).contains(u)), s"seed $seed: adjR($u) disagrees with adjL")
      }
    }
  }

  test("edges iterator matches adjacency") {
    val g = TestGraphs.random(5, 5, 0.4, 11)
    val fromIter = g.edges.toSet
    val fromAdj = (for (v <- 0 until g.nL; u <- g.adjL(v)) yield (v, u)).toSet
    assert(fromIter == fromAdj)
  }

  test("empty and complete graphs") {
    val e = TestGraphs.empty(3, 4)
    assert(e.numEdges == 0)
    val c = TestGraphs.complete(3, 4)
    assert(c.numEdges == 12)
    assert((0 until 3).forall(v => c.degL(v) == 4))
  }
}
