package repro.baselines

import repro.{SparkSpec, TestGraphs}
import repro.Sinks.collect
import repro.core.{Biplex, BruteForce}

class IMBSpec extends SparkSpec {

  for (k <- 0 to 3) {
    test(s"matches brute force (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(35, maxSide = 5, seed = 8000 + k)) {
        assert(collect(IMB.enumerate(g, k, _))._1 == BruteForce.maximalKBiplexes(g, k), s"seed $seed")
      }
    }
  }

  for (thetaL <- 0 to 2; thetaR <- 0 to 2) {
    test(s"size thresholds filter correctly (thetaL=$thetaL, thetaR=$thetaR)") {
      for ((g, seed) <- TestGraphs.smallBatch(15, maxSide = 5, seed = 8100 + thetaL * 10 + thetaR)) {
        val exp = BruteForce.maximalKBiplexes(g, 1)
          .filter(s => s.left.length >= thetaL && s.right.length >= thetaR)
        assert(collect(IMB.enumerate(g, 1, _, thetaL, thetaR))._1 == exp, s"seed $seed")
      }
    }
  }

  test("k=0 enumerates maximal bicliques") {
    for ((g, seed) <- TestGraphs.smallBatch(20, maxSide = 6, seed = 8200)) {
      val got = collect(IMB.enumerate(g, 0, _))._1
      got.foreach { s =>
        // Complete between the sides...
        for (v <- s.left; u <- s.right) assert(g.hasEdge(v, u), s"seed $seed: not a biclique")
        // ... and maximal.
        assert(Biplex.isMaximal(g, 0, s.left, s.right), s"seed $seed")
      }
      assert(got == BruteForce.maximalKBiplexes(g, 0), s"seed $seed")
    }
  }

  test("sink=false aborts the search") {
    val g = TestGraphs.random(6, 6, 0.5, 8300)
    var n = 0
    val completed = IMB.enumerate(g, 1, _ => { n += 1; false })
    assert(!completed && n == 1)
  }

  test("expired deadline aborts") {
    val g = TestGraphs.random(8, 8, 0.5, 8400)
    val completed = IMB.enumerate(g, 1, _ => true, deadlineNanos = System.nanoTime)
    assert(!completed)
  }
}
