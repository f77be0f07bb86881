package repro.baselines

import repro.{SparkSpec, TestGraphs}
import repro.Sinks.collect
import repro.core.BruteForce

class InflationBaselineSpec extends SparkSpec {

  for (k <- 1 to 3) {
    test(s"inflation + (k+1)-plex enumeration equals brute force (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(35, maxSide = 5, seed = 9000 + k)) {
        assert(collect(InflationBaseline.enumerate(g, k, _))._1 == BruteForce.maximalKBiplexes(g, k),
          s"seed $seed")
      }
    }
  }

  test("biplex <-> plex correspondence on asymmetric graphs") {
    for (k <- 1 to 2) {
      val g = TestGraphs.random(2, 8, 0.5, 9100 + k)
      assert(collect(InflationBaseline.enumerate(g, k, _))._1 == BruteForce.maximalKBiplexes(g, k))
    }
  }

  test("inflatedEdges formula") {
    val g = TestGraphs.random(10, 20, 0.3, 9200)
    assert(InflationBaseline.inflatedEdges(g) ==
      g.numEdges + 10L * 9 / 2 + 20L * 19 / 2)
  }

  test("expired deadline aborts") {
    val g = TestGraphs.random(7, 7, 0.5, 9300)
    assert(!InflationBaseline.enumerate(g, 1, _ => true, deadlineNanos = System.nanoTime))
  }
}
