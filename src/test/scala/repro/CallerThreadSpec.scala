package repro

import repro.Sinks.collect
import repro.baselines.{IMB, InflationBaseline}
import repro.core.{EnumAlmostSat, ReverseSearch, Solution, TraversalConfig}
import repro.gen.BipartiteGen
import repro.graph.BipartiteGraph

/** Every enumerator runs on its caller's thread and keeps its search path
  * on the heap, so neither the depth of the search nor the state of the
  * calling thread changes what it reports.
  */
class CallerThreadSpec extends SparkSpec {

  /** Runs body on a new thread with a 256 KB stack and returns its result
    * or rethrows what it threw.
    */
  private def onSmallStack[A](body: => A): A = {
    var out: Either[Throwable, A] = null
    val t = new Thread(null, () => out = try Right(body) catch { case e: Throwable => Left(e) },
      "small-stack", 256L * 1024)
    t.start()
    t.join()
    out.fold(e => throw e, identity)
  }

  private val g = BipartiteGen.er(10, 10, 50, seed = 3)

  /** (name, run with a sink) for each public entry point that takes a sink. */
  private val runs: Seq[(String, (Solution => Boolean) => Any)] = Seq(
    "iTraversal" -> (ReverseSearch.run(g, 1, TraversalConfig.iTraversal, _)),
    "bTraversal" -> (ReverseSearch.run(g, 1, TraversalConfig.bTraversal, _)),
    "iMB"        -> (IMB.enumerate(g, 1, _)),
    "FaPlexen"   -> (InflationBaseline.enumerate(g, 1, _)),
  )

  test("the sink runs on the caller's thread") {
    for ((name, run) <- runs) {
      val threads = scala.collection.mutable.Set.empty[Thread]
      run(s => { threads += Thread.currentThread; true })
      assert(threads == Set(Thread.currentThread), name)
    }
  }

  test("a run started with the interrupt flag set returns the uninterrupted result") {
    for ((name, run) <- runs) {
      val expected = collect(run)
      Thread.currentThread.interrupt()
      val got = try collect(run) finally assert(Thread.interrupted(), s"$name cleared the flag")
      assert(got == expected, name)
    }
  }

  test("bTraversal's deep DFS runs on a 256 KB stack") {
    // The dense-full benchmark's pool graph for generator seed 7. bTraversal
    // walks about one frame per MBP there.
    val g = BipartiteGen.zipf(9, 50, 225, 1.0, 1.0, 7)
    val cfg = TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20)
    val (got, stats) = onSmallStack(collect(ReverseSearch.run(g, 1, cfg, _)))
    assert(stats.maxDepth >= 2000, stats)
    assert(got == collect(ReverseSearch.run(g, 1, cfg, _))._1)
  }

  test("iMB's deep search runs on a 256 KB stack") {
    // With k = 0 and θL = |L| on an edgeless graph the search includes
    // every left vertex, one level each; every exclude branch falls below
    // θL at once. A search that recursed once per level overflowed this
    // stack from 1 000 levels on.
    val n = 2000
    val (got, completed) = onSmallStack(collect(IMB.enumerate(TestGraphs.empty(n, 3), 0, _, thetaL = n)))
    assert(completed && got == Set(Solution.of(0 until n, Nil)))
  }

  test("FaPlexen's deep search runs on a 256 KB stack") {
    // The inflated K(300, 300) is a 600-clique: the k-plex search includes
    // every vertex, one level each, and domination prunes every exclude
    // branch. A search that recursed once per level overflowed this stack
    // from 500 levels on.
    val g = TestGraphs.complete(300, 300)
    val (got, completed) = onSmallStack(collect(InflationBaseline.enumerate(g, 1, _)))
    assert(completed && got == Set(Solution.of(0 until 300, 0 until 300)))
  }
}
