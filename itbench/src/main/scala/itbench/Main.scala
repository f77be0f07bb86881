package itbench

import repro.core._
import repro.graph.BipartiteGraph
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Command line: --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--smoke] [--trace-out <file>]. Prints diagnostics, then one JSON
  * result object as the last line of standard output.
  */
object Main {
  final case class Options(
      workload: Workload,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      smoke: Boolean,
      traceOut: Option[String],
  )

  def parse(argv: Array[String]): Either[String, Options] = {
    val flags = Set("--smoke")
    val kv = scala.collection.mutable.Map.empty[String, String]
    var i = 0
    while (i < argv.length) {
      if (flags(argv(i))) { kv(argv(i)) = "1"; i += 1 }
      else if (i + 1 < argv.length && argv(i).startsWith("--")) { kv(argv(i)) = argv(i + 1); i += 2 }
      else return Left(s"unexpected argument ${argv(i)}")
    }
    for {
      name <- kv.get("--workload").toRight("--workload is required")
      w <- Workload.byName(name).toRight(s"unknown workload $name (known: ${Workload.all.map(_.name).mkString(", ")})")
      seed <- kv.get("--seed").flatMap(_.toLongOption).toRight("--seed <integer> is required")
      secs <- kv.get("--seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("--seconds <positive integer> is required")
      trace <- kv.getOrElse("--trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace must be 0 or 1, got $t")
      }
    } yield Options(w, seed, secs, trace, kv.contains("--smoke"), kv.get("--trace-out"))
  }

  def main(argv: Array[String]): Unit = {
    val opts = parse(argv) match {
      case Right(o) => o
      case Left(msg) =>
        System.err.println(s"itbench: $msg")
        System.exit(2)
        return
    }
    println("env " + Json.obj(Stats.environment().map { case (k, v) => k -> Json.str(v) }))
    val calStart = Stats.calibrationMs()
    val bench = new Bench(opts)
    val metrics = if (opts.trace) bench.traced() else bench.plain()
    val calEnd = Stats.calibrationMs()
    println(f"calibration start_ms=$calStart%.3f end_ms=$calEnd%.3f")
    bench.problems.take(20).foreach(p => println(s"problem $p"))
    println(Json.obj(Seq(
      "correct" -> bench.correct.toString,
      "attempted" -> bench.attempted.toString,
      "failed" -> bench.failed.toString,
      "metrics" -> Json.obj(metrics.map { case (name, value, unit) =>
        name -> Json.obj(Seq("value" -> Json.num(value), "unit" -> Json.str(unit)))
      }),
    )))
  }
}

/** Per-graph state: the graph, its verified MBPs and its first counts. */
final class GraphState(val index: Int, val genSeed: Long, val g: BipartiteGraph) {
  /** MBPs already shown to be maximal k-biplexes of g (for dense-full: the
    * iTraversalNoES solution set, which every query must equal).
    */
  val verified = new java.util.HashSet[Solution]
  /** (links, easCalls, solutions) of the first completed query. */
  var counts: Option[(Long, Long, Long)] = None
  val latencies = new LongBuf(16)
}

final class Bench(opts: Main.Options) {
  private val w = opts.workload
  private val poolSize = if (opts.smoke) 3 else w.poolSize
  private val rnd = new Random(opts.seed)
  private val budgetNanos = 20L * 1000 * 1000 * 1000
  private val replayPerQuery = if (opts.smoke) 8 else 64
  private val replaySeeds = 64
  /** Enough queries for query_p90_ms to have ten samples above it. */
  private val minQueries = 100

  var attempted = 0
  var failed = 0
  /** Run-level check failures: any entry makes the run incorrect. */
  val problems = ArrayBuffer.empty[String]
  private var queryFailures = 0
  def correct: Boolean = problems.isEmpty && failed == 0

  private def fail(msg: String): Unit = problems += msg

  // ------------------------------------------------------------------
  // Set-up
  // ------------------------------------------------------------------

  private val genSeeds = w.corpus.take(poolSize)

  /** The graphs queries run on. Only this field holds them, so clearing it
    * frees the pool for the heap reading in [[plain]].
    */
  private var pool: Array[BipartiteGraph] = _

  /** Builds the pool from its generator seeds, through the program's
    * generators only.
    */
  private def buildPool(spans: Spans): Array[BipartiteGraph] =
    genSeeds.map(s => spans.span(Spans.GenBuild)(w.build(s)))

  /** Builds the pool the queries run on, repeating the build for a second
    * so the generators are compiled before any set-up is timed.
    */
  private def setup(spans: Spans): Unit = {
    val start = System.nanoTime
    while (pool == null || (!opts.smoke && System.nanoTime - start < 1000000000L)) pool = buildPool(spans)
  }

  private def states(): Array[GraphState] =
    pool.indices.map(i => new GraphState(i, genSeeds(i), pool(i))).toArray

  /** dense-full: the iTraversalNoES solution set of every graph, each MBP
    * checked with Biplex.isMaximalKBiplex; computed outside timed regions.
    */
  private def computeOracles(sts: Array[GraphState]): Unit =
    if (w.firstN.isEmpty) sts.foreach { st =>
      val stats = ReverseSearch.run(st.g, w.k, TraversalConfig.iTraversalNoES, { s =>
        if (!st.verified.add(s)) fail(s"graph ${st.index}: iTraversalNoES reported $s twice")
        true
      })
      if (stats.solutions != st.verified.size) fail(s"graph ${st.index}: iTraversalNoES count mismatch")
      st.verified.forEach { s =>
        if (!isMbp(st.g, s)) fail(s"graph ${st.index}: iTraversalNoES output $s is not a maximal ${w.k}-biplex")
      }
    }

  private def isMbp(g: BipartiteGraph, s: Solution): Boolean =
    Biplex.isMaximalKBiplex(g, w.k, s.left, s.right) &&
      s.left.length >= w.thetas._1 && s.right.length >= w.thetas._2

  // ------------------------------------------------------------------
  // Queries
  // ------------------------------------------------------------------

  /** One query on st, timed from call to return. MBP gaps go to `gaps`
    * (start to first MBP, then between consecutive MBPs). Output is checked
    * after the clock stops; a failure is counted in `failed`. Returns the
    * query's duration in nanoseconds.
    */
  private def runQuery(st: GraphState, gaps: LongBuf, out: ArrayBuffer[Solution]): Long = {
    attempted += 1
    out.clear()
    val n = w.firstN.getOrElse(Int.MaxValue)
    val t0 = System.nanoTime
    var last = t0
    val sink: Solution => Boolean = { s =>
      val now = System.nanoTime
      gaps.add(now - last)
      last = now
      out += s
      out.length < n
    }
    val result =
      try Right(w.query(st.g, sink, t0 + budgetNanos))
      catch { case e: Throwable => Left(e) }
    val ns = System.nanoTime - t0
    val ok = result match {
      case Right(stats) => check(st, stats, out)
      case Left(e) => queryFailed(st, s"threw $e"); false
    }
    if (!ok) failed += 1
    ns
  }

  private def queryFailed(st: GraphState, msg: String): Unit = {
    queryFailures += 1
    if (queryFailures <= 20) println(s"query-failure graph=${st.index} $msg")
  }

  /** Verifies one query's output and applies the deterministic-count guard. */
  private def check(st: GraphState, stats: EnumStats, out: ArrayBuffer[Solution]): Boolean = {
    var ok = true
    def bad(msg: String): Unit = { if (ok) queryFailed(st, msg); ok = false }
    if (stats.aborted) bad("hit its time budget")
    if (stats.solutions != out.length) bad(s"EnumStats.solutions=${stats.solutions} but ${out.length} reported")
    w.firstN.foreach(n => if (out.length != n) bad(s"reported ${out.length} MBPs, expected exactly $n"))
    val seen = new java.util.HashSet[Solution](out.length * 2)
    out.foreach(s => if (!seen.add(s)) bad(s"reported $s twice"))
    w.firstN match {
      case None =>
        if (seen.size != st.verified.size || !st.verified.containsAll(seen))
          bad(s"solution set differs from iTraversalNoES (${seen.size} vs ${st.verified.size})")
      case Some(_) =>
        out.foreach { s =>
          if (!st.verified.contains(s)) {
            if (isMbp(st.g, s)) st.verified.add(s) else bad(s"$s is not a maximal ${w.k}-biplex of the required size")
          }
        }
    }
    val c = (stats.links, stats.easCalls, stats.solutions)
    st.counts match {
      case None => st.counts = Some(c)
      case Some(prev) if prev != c =>
        fail(s"graph ${st.index}: counts (links, eas_calls, solutions) changed from $prev to $c")
      case _ =>
    }
    ok
  }

  /** Results of a measured phase. `gcCount` counts the collections of its
    * first `gcPasses` passes: a fixed amount of work.
    */
  final class Measured(val latencies: LongBuf, val gaps: LongBuf, val mbps: Long, val passes: Int,
      val gcCount: Long, val gcMs: Long)

  private val gcPasses = if (opts.smoke) 1 else 2

  /** Runs whole passes over the pool, each in a fresh seeded order, until
    * `seconds` have passed, at least `minQueries` queries and `gcPasses`
    * passes ran; every graph is queried equally often. `afterQuery` gets
    * the nanoseconds since the start after each query and runs outside the
    * query timings.
    */
  private def measure(sts: Array[GraphState], seconds: Double, minQueries: Int,
      afterQuery: Long => Unit = _ => ()): Measured = {
    val lat = new LongBuf(256)
    val gaps = new LongBuf(1 << 20)
    val out = new ArrayBuffer[Solution](1024)
    var mbps = 0L
    var passes = 0
    var gcCount = 0L
    val (gc0, gcMs0) = Stats.gcTotals()
    val start = System.nanoTime
    while (passes < gcPasses || System.nanoTime - start < seconds * 1e9 || lat.length < minQueries) {
      rnd.shuffle(sts.toSeq).foreach { st =>
        val ns = runQuery(st, gaps, out)
        lat.add(ns)
        st.latencies.add(ns)
        mbps += out.length
        afterQuery(System.nanoTime - start)
      }
      passes += 1
      if (passes == gcPasses) gcCount = Stats.gcTotals()._1 - gc0
    }
    new Measured(lat, gaps, mbps, passes, gcCount, Stats.gcTotals()._2 - gcMs0)
  }

  /** One unmeasured pass: warms the JIT and verifies every graph once. */
  private def warmUp(sts: Array[GraphState]): Unit = {
    val out = new ArrayBuffer[Solution](1024)
    sts.foreach(st => runQuery(st, new LongBuf(1024), out))
  }

  private def printCounts(sts: Array[GraphState]): Unit = sts.foreach { st =>
    val (l, e, s) = st.counts.getOrElse((-1L, -1L, -1L))
    println(s"counts workload=${w.name} seed=${opts.seed} graph=${st.index} gen_seed=${st.genSeed} " +
      s"links=$l eas_calls=$e solutions=$s")
  }

  // ------------------------------------------------------------------
  // Untraced run: the end-to-end metrics
  // ------------------------------------------------------------------

  def plain(): Seq[(String, Double, String)] = {
    setup(new Spans)
    // setup_s samples: between measured queries the pool is rebuilt until
    // set-up has taken a tenth of the elapsed time, so set-up is timed with
    // warm generators and across the whole run, like the queries.
    val setupTimes = new LongBuf(1024)
    val setupSpans = new Spans
    var setupNs = 0L
    val timing = queryMetrics { elapsed =>
      while (setupNs * 10 < elapsed) {
        val t0 = System.nanoTime
        buildPool(setupSpans)
        val dt = System.nanoTime - t0
        setupTimes.add(dt)
        setupNs += dt
      }
    }
    // The benchmark's own buffers were dropped with queryMetrics' frame; the
    // pool graphs are the only program data left. Their heap is the live
    // heap with them minus the live heap without them.
    val withPool = Stats.liveHeapMb()
    pool = null
    val poolMb = withPool - Stats.liveHeapMb()
    println(s"samples setup_builds=${setupTimes.length}")
    ("setup_s", Stats.quantile(setupTimes.sorted, 0.5) / 1e9, "s") +: timing :+
      (("success_rate", (attempted - failed).toDouble / attempted, "ratio")) :+ (("live_heap_mb", poolMb, "MiB"))
  }

  private def queryMetrics(afterQuery: Long => Unit): Seq[(String, Double, String)] = {
    val sts = states()
    computeOracles(sts)
    warmUp(sts)
    val m = measure(sts, if (opts.smoke) 1.0 else opts.seconds.toDouble, if (opts.smoke) 1 else minQueries, afterQuery)
    printCounts(sts)
    val lat = m.latencies.sorted
    val gaps = m.gaps.sorted
    val totalS = m.latencies.sum / 1e9
    println(s"samples queries=${lat.length} passes=${m.passes} pool=${sts.length} gaps=${gaps.length}")
    Seq(
      ("mbps_per_s", m.mbps / totalS, "1/s"),
      ("query_p50_ms", Stats.quantile(lat, 0.5) / 1e6, "ms"),
      ("query_p90_ms", Stats.quantile(lat, 0.9) / 1e6, "ms"),
      ("delay_p50_us", Stats.quantile(gaps, 0.5) / 1e3, "us"),
      ("delay_p99_us", Stats.quantile(gaps, 0.99) / 1e3, "us"),
    )
  }

  // ------------------------------------------------------------------
  // Traced run: the per-layer metrics
  // ------------------------------------------------------------------

  def traced(): Seq[(String, Double, String)] = {
    val spans = new Spans
    setup(spans)
    val sts = states()
    computeOracles(sts)
    warmUp(sts)
    // Untraced pass over the same inputs: the base for overhead and coverage.
    val m = measure(sts, if (opts.smoke) 1.0 else opts.seconds / 2.0, 1)
    val untracedNs = sts.map(st => Stats.quantile(st.latencies.sorted, 0.5))
    val untracedCounts = sts.map(_.counts)

    val out = new ArrayBuffer[Solution](1024)
    val tracedNs = new Array[Long](sts.length)
    val replayScale = new Array[Double](sts.length)
    var kept = 0L
    var total = 0L
    var replayed = 0L
    var replayCalls = 0L
    var replayLocals = 0L
    var replayLinks = 0L
    sts.foreach { st =>
      spans.query = st.index
      val g = st.g
      // Set-up calls of the query path. On workloads without a size
      // threshold the query does not reduce the graph; the (1,1)-core and
      // its induced subgraph are timed there as probes of the same layers.
      val t = w.traversal(g, spans)
      if (w.core.isEmpty) {
        val (cl, cr) = spans.span(Spans.Core)(CoreReduction.alphaBetaCore(g, 1, 1))
        spans.span(Spans.Induced)(g.inducedSubgraph(cl, cr))
        kept += cl.length + cr.length
      } else kept += t.g.nL + t.g.nR
      total += g.nL + g.nR
      spans.span(Spans.H0)(Biplex.initialLeftAnchored(t.g, w.k))

      st.counts = None
      val q = spans.begin(Spans.Query)
      tracedNs(st.index) = runQuery(st, new LongBuf(1024), out)
      spans.end(q)
      if (st.counts != untracedCounts(st.index))
        fail(s"graph ${st.index}: traced counts ${st.counts} differ from untraced ${untracedCounts(st.index)}")

      // Replay a deterministic sample of the reported MBPs: every step-th.
      val step = math.max(1, (out.length + replayPerQuery - 1) / replayPerQuery)
      var i = 0
      var n = 0
      while (i < out.length) {
        val local = t.toLocal(out(i))
        // An MBP outside the reduced graph is already a failed query.
        if (local.left.forall(_ >= 0) && local.right.forall(_ >= 0)) {
          val (calls, locals, links) = replay(t, local, spans)
          replayCalls += calls; replayLocals += locals; replayLinks += links
          n += 1
        }
        i += step
      }
      replayed += n
      replayScale(st.index) = out.length.toDouble / math.max(1, n)
    }
    spans.query = -1
    printCounts(sts)

    val dur = spans.durations()
    val self = spans.selfTimes()
    def medianOf(name: Int, unit: Double): Double = {
      val v = spans.collect(name, dur)
      if (v.isEmpty) 0.0 else Stats.quantile(v, 0.5) / unit
    }
    def meanSelf(name: Int): Double = {
      val v = spans.collect(name, self)
      if (v.isEmpty) 0.0 else v.sum.toDouble / v.length / 1e3
    }
    // Replayed layer self time per graph, scaled from the sample to all of
    // the graph's reported MBPs.
    val layerSelf = new Array[Double](sts.length)
    val queryOf = spans.queries()
    var s = 0
    while (s < spans.size) {
      if (queryOf(s) >= 0 && Spans.replayLayers.contains(spans.nameAt(s))) layerSelf(queryOf(s)) += self(s)
      s += 1
    }
    val coveredNs = sts.indices.map(i => layerSelf(i) * replayScale(i)).sum
    val baseNs = untracedNs.sum
    val calls = spans.collect(Spans.Call, self)
    val counts = sts.flatMap(_.counts)
    val solutions = counts.map(_._3).sum.toDouble
    val links = counts.map(_._1).sum.toDouble
    println(s"samples pool=${sts.length} untraced_queries=${m.latencies.length} traced_queries=${sts.length} " +
      s"replayed_mbps=$replayed spans=${spans.size} eas_calls_replayed=${calls.length}")
    opts.traceOut.foreach(spans.write)

    Seq(
      ("gen.build_ms", medianOf(Spans.GenBuild, 1e6), "ms"),
      ("core.CoreReduction.core_ms", medianOf(Spans.Core, 1e6), "ms"),
      ("core.CoreReduction.kept_ratio", kept.toDouble / total, "ratio"),
      ("graph.induced_ms", medianOf(Spans.Induced, 1e6), "ms"),
      ("core.Biplex.h0_ms", medianOf(Spans.H0, 1e6), "ms"),
      ("core.Biplex.right_check_us", meanSelf(Spans.RightCheck), "us"),
      ("core.Biplex.extend_us", meanSelf(Spans.Extend), "us"),
      ("core.ReverseSearch.links", links / counts.length, "count"),
      ("core.ReverseSearch.eas_calls", counts.map(_._2).sum.toDouble / counts.length, "count"),
      ("core.ReverseSearch.solutions", solutions / counts.length, "count"),
      ("core.ReverseSearch.useful_ratio", solutions / links, "ratio"),
      ("core.EnumAlmostSat.ctx_us", meanSelf(Spans.Ctx), "us"),
      ("core.EnumAlmostSat.call_p50_us", if (calls.isEmpty) 0.0 else Stats.quantile(calls, 0.5) / 1e3, "us"),
      ("core.EnumAlmostSat.call_mean_us", meanSelf(Spans.Call), "us"),
      ("core.EnumAlmostSat.locals_per_call", replayLocals.toDouble / math.max(1L, replayCalls), "count"),
      ("core.Solution.key_us", meanSelf(Spans.Key), "us"),
      ("replay.eas_calls_per_mbp", replayCalls.toDouble / math.max(1L, replayed), "count"),
      ("replay.links_per_mbp", replayLinks.toDouble / math.max(1L, replayed), "count"),
      ("jvm.gc_ms_per_query", m.gcMs.toDouble / m.latencies.length, "ms"),
      ("jvm.gc_count", m.gcCount.toDouble, "count"),
      ("trace.coverage", coveredNs / baseNs, "ratio"),
      ("trace.overhead", tracedNs.sum / baseNs, "ratio"),
    )
  }

  /** Repeats the ThreeStep expansion of one reported MBP (local ids)
    * through public calls, each in its own span: buildCtx, then
    * EnumAlmostSat.run per left seed (at most `replaySeeds`, in the
    * traversal's order), then for each local solution the right-shrinking
    * test and, if it passes, extension and the dedup key. The traversal's
    * exclusion set lives inside its DFS, so the replay does not apply it.
    * Returns (EnumAlmostSat calls, local solutions, extensions).
    */
  private def replay(t: TraversalInput, s: Solution, spans: Spans): (Long, Long, Long) = spans.span(Spans.Replay) {
    val g = t.g
    val thetaR = t.cfg.theta.fold(0)(_._2)
    var calls = 0L
    var locals = 0L
    var links = 0L
    if (s.right.length >= thetaR) {
      val ctx = spans.span(Spans.Ctx)(EnumAlmostSat.buildCtx(g, s.left, s.right))
      val seeds = Workload.seeds(t, w.k, s.left, s.right).take(replaySeeds)
      seeds.foreach { v =>
        calls += 1
        spans.span(Spans.Call) {
          EnumAlmostSat.run(g, w.k, s.left, s.right, v, t.cfg.eas, { (lf, rp) =>
            locals += 1
            val admits = spans.span(Spans.RightCheck)(Biplex.existsAddableRight(g, w.k, lf, rp))
            if (!admits) {
              val ext = spans.span(Spans.Extend)(Biplex.extend(g, w.k, lf, rp, leftOnly = t.cfg.rightShrinking))
              links += 1
              spans.span(Spans.Key)(ext.key(g.nL))
            }
            true
          }, minRight = thetaR, ctx = ctx)
        }
      }
    }
    (calls, locals, links)
  }
}
