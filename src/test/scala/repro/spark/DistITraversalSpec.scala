package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.Sinks.collect
import repro.core.{BruteForce, ReverseSearch, TraversalConfig}
import repro.graph.BipartiteGraph

class DistITraversalSpec extends SparkSpec {

  for (k <- 1 to 2) {
    test(s"distributed solution set equals local iTraversal and brute force (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(6, maxSide = 5, seed = 12000 + k)) {
        val dist = DistITraversal.collectSolutions(spark, g, k)
        val (local, _) = collect(ReverseSearch.run(g, k, TraversalConfig.iTraversal, _))
        val brute = BruteForce.maximalKBiplexes(g, k)
        assert(dist == brute, s"seed $seed: distributed != brute force")
        assert(local == brute, s"seed $seed: local != brute force")
      }
    }
  }

  test("a split whose early parts lie inside the run's H0 is exact (k=2)") {
    // H0's left side is {0, 1} in the given order and {0, 2} in the degree
    // order iTraversal walks (see TraversalSpec), so only the part that
    // holds left 1 has a seed outside L0. H0 comes from part 0.
    val g = BipartiteGraph.fromEdges(3, 3, Seq((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    val dist = DistITraversal.collectSolutions(spark, g, 2)
    assert(dist == BruteForce.maximalKBiplexes(g, 2))
    assert(dist == collect(ReverseSearch.run(g, 2, TraversalConfig.iTraversal, _))._1)
  }

  test("distributed run on a mid-size ER graph matches local") {
    val g = repro.gen.BipartiteGen.er(40, 40, 200, seed = 12100)
    val dist = DistITraversal.collectSolutions(spark, g, 1)
    val (local, _) = collect(ReverseSearch.run(g, 1, TraversalConfig.iTraversal, _))
    assert(dist == local)
    assert(dist.nonEmpty)
  }

  test("an expired deadline returns promptly with valid MBPs only") {
    // Complete enumeration of this graph takes minutes; every task must
    // stop at the run's deadline.
    val g = repro.gen.BipartiteGen.er(60, 60, 600, seed = 12300)
    val t0 = System.nanoTime
    val sols = DistITraversal.collectSolutions(spark, g, 1, deadlineNanos = t0)
    val secs = (System.nanoTime - t0) / 1e9
    assert(secs < 30, f"returned after $secs%.1f s")
    assert(sols.nonEmpty)
    sols.foreach(s => assert(repro.core.Biplex.isMaximalKBiplex(g, 1, s.left, s.right), s"$s"))
  }
}
