package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.Sinks.collect
import repro.baselines.IMB
import repro.gen.BipartiteGen
import repro.graph.BipartiteGraph
import scala.util.Random

/** bTraversal and every iTraversal technique level against brute
  * force — the central correctness test of the reproduction. The exclusion
  * strategy's correctness for iTraversal (whose proof lives in the paper's
  * unavailable technical report) is established here empirically over
  * hundreds of randomized graphs.
  */
class TraversalSpec extends SparkSpec {

  /** iTraversal in the graph's own left order. Pins recorded before the
    * degree order keep their numbers under it.
    */
  private val givenOrder = TraversalConfig.iTraversal.copy(degreeOrder = false)

  private val configs: Seq[(String, Int => TraversalConfig)] = Seq(
    "bTraversal(Inflated)" -> (_ => TraversalConfig.bTraversal),
    "bTraversal(L20R20)"   -> (_ => TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20)),
    "iTraversal-ES-RS"     -> (_ => TraversalConfig.iTraversalNoESNoRS),
    "iTraversal-ES"        -> (_ => TraversalConfig.iTraversalNoES),
    "iTraversal"           -> (_ => TraversalConfig.iTraversal),
    "iTraversal(given order)" -> (_ => givenOrder),
    "iTraversal(L10R10)"   -> (_ => TraversalConfig.iTraversal.copy(eas = EnumAlmostSat.L10R10)),
    "iTraversal(Inflated)" -> (_ => TraversalConfig.iTraversal.copy(eas = EnumAlmostSat.Inflated)),
  )

  for ((name, mkCfg) <- configs; k <- 1 to 3) {
    test(s"$name equals brute force (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 5, seed = 4000 + k)) {
        val exp = BruteForce.maximalKBiplexes(g, k)
        val (got, _) = collect(ReverseSearch.run(g, k, mkCfg(k), _))
        assert(got == exp,
          s"seed $seed k=$k nL=${g.nL} nR=${g.nR}:\n missing ${(exp -- got).take(5)}\n extra ${(got -- exp).take(5)}")
      }
    }
  }

  test("degree-ordered iTraversal equals brute force and reports no MBP twice (k=1,2)") {
    assert(TraversalConfig.iTraversal.degreeOrder)
    for (k <- 1 to 2; (g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 4600 + k)) {
      val seen = scala.collection.mutable.ArrayBuffer.empty[Solution]
      val stats = ReverseSearch.run(g, k, TraversalConfig.iTraversal, s => { seen += s; true })
      assert(seen.size == seen.toSet.size, s"seed $seed k=$k: duplicates reported")
      assert(stats.solutions == seen.size, s"seed $seed k=$k")
      assert(seen.toSet == BruteForce.maximalKBiplexes(g, k), s"seed $seed k=$k")
    }
  }

  test("H0 depends on the left order; the root-seed runs start from the run's own H0 (k=2)") {
    // Right side {0, 1, 2}; left 0 and 1 see {1, 2}, left 2 sees {2}. The
    // given order's L0 is {0, 1}; in degree order left 2 comes first and
    // L0 is {0, 2}.
    val g = BipartiteGraph.fromEdges(3, 3, Seq((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    val exp = BruteForce.maximalKBiplexes(g, 2)
    val h0 = ReverseSearch.initial(g, 2, TraversalConfig.iTraversal)
    assert(h0 == Solution.of(Seq(0, 2), 0 to 2))
    assert(ReverseSearch.initial(g, 2, givenOrder) == Solution.of(Seq(0, 1), 0 to 2))
    assert(ReverseSearch.initial(g, 2, givenOrder) == Biplex.initialLeftAnchored(g, 2))

    val full = scala.collection.mutable.ArrayBuffer.empty[Solution]
    ReverseSearch.run(g, 2, TraversalConfig.iTraversal, s => { full += s; true })
    val split = scala.collection.mutable.ArrayBuffer(h0)
    for (v <- 0 until g.nL if !h0.left.contains(v))
      ReverseSearch.run(g, 2, TraversalConfig.iTraversal, s => { split += s; true }, rootSeed = v)
    for ((name, out) <- Seq("full run" -> full, "root-seed runs" -> split)) {
      assert(out.toSet == exp, name)
      assert(out.count(_ == h0) == 1, s"$name: H0 reported ${out.count(_ == h0)} times")
    }
  }

  test("iTraversal handles k=0 (maximal biclique enumeration)") {
    for ((g, seed) <- TestGraphs.smallBatch(30, maxSide = 5, seed = 4100)) {
      val exp = BruteForce.maximalKBiplexes(g, 0)
      val (got, _) = collect(ReverseSearch.run(g, 0, TraversalConfig.iTraversal, _))
      assert(got == exp, s"seed $seed")
    }
  }

  test("denser random graphs (k=1,2)") {
    for (k <- 1 to 2; (g, seed) <- TestGraphs.smallBatch(15, maxSide = 7, seed = 4200 + k)) {
      val exp = BruteForce.maximalKBiplexes(g, k)
      val (got, _) = collect(ReverseSearch.run(g, k, TraversalConfig.iTraversal, _))
      assert(got == exp, s"seed $seed k=$k")
    }
  }

  test("asymmetric graphs: wide and tall") {
    for (k <- 1 to 2) {
      val wide = TestGraphs.random(2, 9, 0.4, 4321)
      val tall = TestGraphs.random(9, 2, 0.4, 4322)
      for (g <- Seq(wide, tall)) {
        assert(collect(ReverseSearch.run(g, k, TraversalConfig.iTraversal, _))._1 ==
          BruteForce.maximalKBiplexes(g, k))
        assert(collect(ReverseSearch.run(g, k, TraversalConfig.bTraversal, _))._1 ==
          BruteForce.maximalKBiplexes(g, k))
      }
    }
  }

  test("degenerate graphs: empty, complete, single vertex sides") {
    for (k <- 1 to 2) {
      for (g <- Seq(TestGraphs.empty(3, 3), TestGraphs.complete(3, 3),
                    TestGraphs.empty(1, 4), TestGraphs.complete(4, 1),
                    BipartiteGraph.fromEdges(1, 1, Seq((0, 0))))) {
        val exp = BruteForce.maximalKBiplexes(g, k)
        assert(collect(ReverseSearch.run(g, k, TraversalConfig.iTraversal, _))._1 == exp, s"k=$k $g")
        assert(collect(ReverseSearch.run(g, k, TraversalConfig.bTraversal, _))._1 == exp, s"k=$k $g")
      }
    }
  }

  /** (k, graph, iTraversal's MBPs and stats in the given order) on graphs
    * with thousands of MBPs, too large for BruteForce.
    */
  private lazy val beyondBruteForce: Seq[(Int, BipartiteGraph, (Set[Solution], EnumStats))] =
    Seq(1 -> BipartiteGen.er(20, 20, 100, seed = 1), 2 -> BipartiteGen.er(10, 16, 60, seed = 1))
      .map { case (k, g) => (k, g, collect(ReverseSearch.run(g, k, givenOrder, _))) }

  test("beyond brute-force size: the side swap and iMB agree with iTraversal (k=1,2)") {
    // The left-anchored traversal of the flipped graph starts from another
    // H0 and seeds from the other side, so it reaches the MBPs along
    // different paths.
    for ((k, g, (got, _)) <- beyondBruteForce) {
      assert(got.size >= 1000, s"k=$k: only ${got.size} MBPs")
      val (swapped, _) = collect(ReverseSearch.run(g.flipped, k, TraversalConfig.iTraversal, _))
      assert(swapped.map(_.flip) == got, s"k=$k: MBPs of the flipped graph differ")
      assert(collect(IMB.enumerate(g, k, _))._1 == got, s"k=$k: iMB differs")
    }
  }

  test("beyond brute-force size: relabelling both sides leaves iTraversal's MBPs unchanged (k=1,2)") {
    // A random permutation of the ids changes the seed order, the DFS order
    // and so every exclusion set, but not the set of MBPs.
    def inverse(perm: Array[Int]): Array[Int] = {
      val inv = new Array[Int](perm.length)
      for (i <- perm.indices) inv(perm(i)) = i
      inv
    }
    for ((k, g, (got, stats)) <- beyondBruteForce) {
      val rnd = new Random(7000 + k)
      val permL = rnd.shuffle((0 until g.nL).toVector).toArray
      val permR = rnd.shuffle((0 until g.nR).toVector).toArray
      val (invL, invR) = (inverse(permL), inverse(permR))
      val relabelled = BipartiteGraph.fromEdges(g.nL, g.nR, g.edges.map { case (v, u) => (permL(v), permR(u)) }.toSeq)
      val (back, relStats) = collect(ReverseSearch.run(relabelled, k, givenOrder, _))
      assert(relStats.links != stats.links, s"k=$k: the permutation left the traversal's links unchanged")
      assert(back.map(s => Solution.of(s.left.map(invL), s.right.map(invR))) == got, s"k=$k: MBPs differ")
    }
  }

  test("beyond brute-force size: iTraversal's links and solutions are pinned (k=1,2)") {
    // (links, easCalls, solutions). Links and solutions were recorded
    // before the exclusion strategy's seed skip and addability test,
    // easCalls before the counting kernel; neither may move them. A
    // traversal change that moves these counts changes the solution graph
    // the DFS walks or the work per node; update them only on purpose.
    val pinned = Map(1 -> (34394L, 20295L, 3187L), 2 -> (166813L, 28263L, 9260L))
    for ((k, _, (_, stats)) <- beyondBruteForce) {
      assert((stats.links, stats.easCalls, stats.solutions) == pinned(k), s"k=$k")
    }
  }

  test("beyond brute-force size: degree-ordered iTraversal's links and solutions are pinned (k=1,2)") {
    // (links, easCalls, solutions), against (34 394, 20 295, 3 187) and
    // (166 813, 28 263, 9 260) in the given order: the same MBPs.
    val pinned = Map(1 -> (19713L, 15719L, 3187L), 2 -> (27226L, 22358L, 9260L))
    for ((k, g, (got, _)) <- beyondBruteForce) {
      val (deg, stats) = collect(ReverseSearch.run(g, k, TraversalConfig.iTraversal, _))
      assert(deg == got, s"k=$k: MBPs differ")
      assert((stats.links, stats.easCalls, stats.solutions) == pinned(k), s"k=$k")
    }
  }

  test("root-seed runs reproduce the full run's root split (k=1,2)") {
    // Summed (links, easCalls, solutions) of the runs, one per root seed.
    // Recorded when the root split passed each run its seed and the seeds
    // before it as explicit arrays; the engine's own split must match them.
    // Without the marks of the seeds before each run's seed, the sums are
    // 4.6x (k=1) and 3.7x (k=2) larger, and the union of MBPs is the same.
    val pinned = Map(1 -> (49358L, 29895L, 4986L), 2 -> (202540L, 37961L, 13493L))
    for ((k, g, (got, _)) <- beyondBruteForce) {
      val h0 = Biplex.initialLeftAnchored(g, k)
      val union = scala.collection.mutable.HashSet(h0)
      var sums = (0L, 0L, 0L)
      for (v <- 0 until g.nL if !h0.left.contains(v)) {
        val st = ReverseSearch.run(g, k, givenOrder, s => { union += s; true }, rootSeed = v)
        sums = (sums._1 + st.links, sums._2 + st.easCalls, sums._3 + st.solutions)
      }
      assert(union == got, s"k=$k: MBPs differ")
      assert(sums == pinned(k), s"k=$k")
    }
  }

  test("root-seed runs in degree order: their union with H0 is the full set (k=1,2)") {
    // Summed (links, easCalls, solutions); rootSeed is a given id, and the
    // seeds before it are those before it in degree order.
    val pinned = Map(1 -> (30246L, 23757L, 5074L), 2 -> (28643L, 24914L, 10647L))
    for ((k, g, (got, _)) <- beyondBruteForce) {
      val h0 = ReverseSearch.initial(g, k, TraversalConfig.iTraversal)
      val union = scala.collection.mutable.HashSet(h0)
      var sums = (0L, 0L, 0L)
      for (v <- 0 until g.nL if !h0.left.contains(v)) {
        val st = ReverseSearch.run(g, k, TraversalConfig.iTraversal, s => { union += s; true }, rootSeed = v)
        sums = (sums._1 + st.links, sums._2 + st.easCalls, sums._3 + st.solutions)
      }
      assert(union == got, s"k=$k: MBPs differ")
      assert(sums == pinned(k), s"k=$k")
    }
  }

  test("a root seed inside H0's left side reports nothing") {
    // Left vertex 0 sees every right vertex, so it is in H0's left side;
    // the others miss more than k of them.
    val g = BipartiteGraph.fromEdges(4, 4, (0 until 4).map(u => (0, u)) ++ Seq((1, 0), (2, 1), (3, 2), (3, 3)))
    assert(ReverseSearch.initial(g, 1, TraversalConfig.iTraversal).left.contains(0))
    var calls = 0
    val st = ReverseSearch.run(g, 1, TraversalConfig.iTraversal, _ => { calls += 1; true }, rootSeed = 0)
    assert(calls == 0 && st.solutions == 0 && st.easCalls == 0 && st.links == 0)
  }

  test("a root seed that is not a left id is rejected") {
    // In degree order the seed is looked up among the run's ids; an id
    // outside the graph must not turn into a full run.
    val g = TestGraphs.random(4, 4, 0.5, 911)
    for (cfg <- Seq(TraversalConfig.iTraversal, givenOrder))
      intercept[IllegalArgumentException](ReverseSearch.run(g, 1, cfg, _ => true, rootSeed = g.nL))
  }

  test("link counts shrink monotonically across the technique stack") {
    // All four in one left order, the given one, which bTraversal uses.
    var checked = 0
    for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 5, seed = 4300)) {
      val b = collect(ReverseSearch.run(g, 1, TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20), _))._2
      val la = collect(ReverseSearch.run(g, 1, TraversalConfig.iTraversalNoESNoRS.copy(degreeOrder = false), _))._2
      val rs = collect(ReverseSearch.run(g, 1, TraversalConfig.iTraversalNoES.copy(degreeOrder = false), _))._2
      val full = collect(ReverseSearch.run(g, 1, givenOrder, _))._2
      assert(la.links <= b.links, s"seed $seed: left-anchored should not add links")
      assert(rs.links <= la.links, s"seed $seed: right-shrinking should not add links")
      assert(full.links <= rs.links, s"seed $seed: exclusion should not add links")
      if (b.links > full.links) checked += 1
    }
    assert(checked > 0, "sparsification never fired on the batch")
  }

  test("the DFS stack holds at most one frame per solution, at every technique level") {
    // A frame is a solution on the DFS path, and the visited set keeps
    // every solution on one path at most once.
    for ((name, cfg) <- repro.bench.Experiments.variantNames; k <- 1 to 2;
         (g, seed) <- TestGraphs.smallBatch(15, maxSide = 6, seed = 4700 + k)) {
      val stats = ReverseSearch.run(g, k, cfg, _ => true)
      assert(stats.maxDepth >= 1 && stats.maxDepth <= stats.solutions, s"$name seed $seed k=$k: $stats")
    }
    for ((k, _, (_, stats)) <- beyondBruteForce)
      assert(stats.maxDepth >= 1 && stats.maxDepth <= stats.solutions, s"k=$k: $stats")
  }

  test("every local solution pulled is a link or a right-shrinking rejection, at every technique level") {
    // locals = links + rightRejected, for complete runs at the four levels
    // (k = 1, 2) and for LargeMbp; only right-shrinking levels reject.
    def check(name: String, cfg: TraversalConfig, st: EnumStats): Unit = {
      assert(st.locals == st.links + st.rightRejected, s"$name: $st")
      if (!cfg.rightShrinking) assert(st.rightRejected == 0, s"$name: $st")
    }
    var rejected = 0L
    for ((name, cfg) <- repro.bench.Experiments.variantNames; k <- 1 to 2;
         (g, seed) <- TestGraphs.smallBatch(15, maxSide = 6, seed = 4750 + k)) {
      val st = ReverseSearch.run(g, k, cfg, _ => true)
      check(s"$name seed $seed k=$k", cfg, st)
      rejected += st.rightRejected
    }
    for ((k, g, _) <- beyondBruteForce) {
      val st = ReverseSearch.run(g, k, TraversalConfig.iTraversal, _ => true)
      check(s"ER k=$k", TraversalConfig.iTraversal, st)
      rejected += st.rightRejected
    }
    assert(rejected > 0, "right-shrinking never rejected a local solution")
    for ((g, thetaL, thetaR) <- Seq((BipartiteGen.er(20, 20, 100, seed = 1), 3, 4),
                                    (repro.gen.FraudGen.generate(seed = 1).graph, 4, 7))) {
      var n = 0
      val st = LargeMbp.enumerate(g, 1, thetaL, thetaR, _ => { n += 1; n < 1000 })
      check(s"LargeMbp $g", TraversalConfig.iTraversal, st)
      assert(st.rightRejected > 0, s"LargeMbp $g: $st")
    }
  }

  test("budget: a deadline inside the last seed's local solutions aborts the run") {
    // Left 0 sees every right vertex and left 1 none, so H0 is ({0}, R) and
    // left 1 is the only seed. Under L10R10 its almost-satisfying graph
    // first walks the 683 000 R'' of fewer than k vertices, none of them a
    // local solution; the run as a whole has millions of links. The
    // deadline ends the walk, after which the DFS has nothing left to do.
    val g = BipartiteGraph.fromEdges(2, 160, (0 until 160).map(u => (0, u)))
    for (cfg <- Seq(givenOrder, TraversalConfig.iTraversal).map(_.copy(eas = EnumAlmostSat.L10R10))) {
      val t0 = System.nanoTime
      val stats = ReverseSearch.run(g, 4, cfg, _ => true, t0 + 20L * 1000000)
      assert(stats.aborted, stats)
      assert(System.nanoTime - t0 < 10L * 1000000000, "returned late")
    }
  }

  test("budget: a run its deadline cuts reports aborted; one that is not cut is complete") {
    // Deadlines spread over the run, for the full run and for the root-seed
    // runs, whose root has one seed: a deadline that ends a seed's local
    // solutions after the DFS has nothing else left to do must still abort.
    // A run that reports no abort must match the uncut run's counts too,
    // because a cut enumeration can lose links without losing an MBP.
    val g = BipartiteGen.er(16, 16, 80, seed = 2)
    val cfg = givenOrder
    val h0 = ReverseSearch.initial(g, 1, cfg)
    val runs = (-1 +: (0 until g.nL).filter(v => !h0.left.contains(v)))
      .map(v => v -> collect(ReverseSearch.run(g, 1, cfg, _, rootSeed = v)))
    for (budgetUs <- Seq(50, 200, 1000, 5000, 20000); (v, exp) <- runs) {
      val (cut, st) = collect(ReverseSearch.run(g, 1, cfg, _, System.nanoTime + budgetUs * 1000L, v))
      assert(st.aborted || (cut, st) == exp, s"root seed $v, $budgetUs us")
    }
  }

  test("first-N early termination returns exactly N solutions and they are valid") {
    val g = TestGraphs.random(8, 8, 0.45, 909)
    val all = collect(ReverseSearch.run(g, 1, TraversalConfig.iTraversal, _))._1
    val n = math.min(3, all.size)
    val (first, _) = ReverseSearch.collectFirst(g, 1, TraversalConfig.iTraversal, n)
    assert(first.size == n)
    first.foreach(s => assert(Biplex.isMaximalKBiplex(g, 1, s.left, s.right)))
  }

  test("deadline abort sets the aborted flag") {
    val g = TestGraphs.random(10, 10, 0.4, 910)
    val stats = ReverseSearch.run(g, 2, TraversalConfig.iTraversal, _ => true,
      deadlineNanos = System.nanoTime) // already expired
    assert(stats.aborted)
  }

  for (k <- 1 to 2) {
    test(s"twoHopSeeds mode: valid MBPs only, covers every MBP with |R| > k (k=$k)") {
      val cfg = TraversalConfig.iTraversal.copy(twoHopSeeds = true)
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 4500 + k)) {
        val (got, _) = collect(ReverseSearch.run(g, k, cfg, _))
        got.foreach(s => assert(Biplex.isMaximalKBiplex(g, k, s.left, s.right), s"seed $seed"))
        val mustHave = BruteForce.maximalKBiplexes(g, k).filter(_.right.length > k)
        assert(mustHave.subsetOf(got),
          s"seed $seed: missing ${(mustHave -- got).take(5)}")
      }
    }
  }

  test("solutions are emitted exactly once (no duplicates through sink)") {
    for ((g, seed) <- TestGraphs.smallBatch(15, maxSide = 5, seed = 4400)) {
      val seen = scala.collection.mutable.ArrayBuffer.empty[Solution]
      ReverseSearch.run(g, 1, TraversalConfig.iTraversal, s => { seen += s; true })
      assert(seen.size == seen.toSet.size, s"seed $seed: duplicates emitted")
    }
  }

  test("concurrent runs on 4 threads equal their sequential runs") {
    // iTraversal and LargeMbp on four graphs at once. Traversals share one
    // JVM in the distributed runner's executors; the counting kernel's
    // scratch is per thread.
    def firstLarge(g: BipartiteGraph, thetaL: Int, thetaR: Int): (Seq[Solution], (Long, Long, Long)) = {
      val out = scala.collection.mutable.ArrayBuffer.empty[Solution]
      val st = LargeMbp.enumerate(g, 1, thetaL, thetaR, s => { out += s; out.size < 1000 })
      (out.toSeq, (st.links, st.easCalls, st.solutions))
    }
    def all(g: BipartiteGraph, k: Int): (Seq[Solution], (Long, Long, Long)) = {
      val out = scala.collection.mutable.ArrayBuffer.empty[Solution]
      val st = ReverseSearch.run(g, k, TraversalConfig.iTraversal, s => { out += s; true })
      (out.toSeq, (st.links, st.easCalls, st.solutions))
    }
    val jobs: Seq[() => (Seq[Solution], (Long, Long, Long))] = Seq(
      () => all(beyondBruteForce(0)._2, 1),
      () => all(beyondBruteForce(1)._2, 2),
      () => firstLarge(repro.gen.FraudGen.generate(seed = 1).graph, 4, 7),
      () => firstLarge(repro.gen.FraudGen.generate(seed = 2).graph, 4, 7),
    )
    val sequential = jobs.map(_())
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val running = jobs.map(job => pool.submit(() => { start.await(); job() }))
      start.countDown()
      for (((f, seq), i) <- running.zip(sequential).zipWithIndex) {
        val got = f.get(120, java.util.concurrent.TimeUnit.SECONDS)
        assert(got._2 == seq._2, s"job $i: counts")
        assert(got._1 == seq._1, s"job $i: solutions")
      }
    } finally pool.shutdownNow()
  }

  test("budget: a deadline that fires mid-run aborts with distinct, maximal MBPs only") {
    val g = BipartiteGen.er(40, 40, 400, seed = 5)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Solution]
    val t0 = System.nanoTime
    val stats = ReverseSearch.run(g, 1, TraversalConfig.iTraversal, s => { seen += s; true },
      deadlineNanos = t0 + 300L * 1000000)
    val secs = (System.nanoTime - t0) / 1e9
    assert(stats.aborted)
    assert(secs < 10, f"returned after $secs%.1f s")
    assert(seen.size > 1, "the deadline fired before the traversal left H0")
    assert(stats.solutions == seen.size)
    assert(seen.size == seen.toSet.size, "duplicates")
    seen.foreach(s => assert(Biplex.isMaximalKBiplex(g, 1, s.left, s.right), s"$s"))
  }

  test("budget: a sink that returns false gets no further calls") {
    val g = BipartiteGen.er(20, 20, 100, seed = 1)
    for (cfg <- Seq(TraversalConfig.iTraversal, TraversalConfig.bTraversal, TraversalConfig.iTraversalNoES)) {
      var calls = 0
      val stats = ReverseSearch.run(g, 1, cfg, _ => { calls += 1; calls < 5 })
      assert(calls == 5, cfg)
      assert(stats.solutions == 5 && !stats.aborted, cfg)
    }
  }

  test("a sink that stops the run after the deadline has passed does not set aborted") {
    val g = BipartiteGen.er(20, 20, 100, seed = 1)
    for (cfg <- Seq(TraversalConfig.iTraversal, TraversalConfig.bTraversal)) {
      val stats = ReverseSearch.run(g, 1, cfg, _ => { Thread.sleep(300); false },
        deadlineNanos = System.nanoTime + 100L * 1000000)
      assert(stats.solutions == 1, cfg)
      assert(!stats.aborted, cfg)
    }
  }

  test("budget: an exception thrown in the sink propagates out of run with its own type") {
    final class SinkFailure extends RuntimeException("sink failed")
    val g = BipartiteGen.er(20, 20, 100, seed = 1)
    var calls = 0
    intercept[SinkFailure] {
      // Thrown deep in the DFS, on the caller's thread.
      ReverseSearch.run(g, 1, TraversalConfig.iTraversal, _ => { calls += 1; if (calls == 50) throw new SinkFailure; true })
    }
    assert(calls == 50)
  }
}
