package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{IMB, InflationBaseline}
import repro.casestudy.Structures
import repro.core._
import repro.gen.{BipartiteGen, FraudGen}
import repro.graph.{BipartiteGraph, VertexSets}
import repro.spark.DistITraversal
import scala.collection.mutable
import scala.util.Random

/** The paper's evaluation experiments (Section 6), one function per table
  * or per pair of panels that differ only in the swept parameter; the
  * B1..B9 suites (bench/src/test) are their only callers.
  *
  * Each run is time-boxed (REPRO_BUDGET_MS, default 6 s — the scaled-down
  * version of the paper's 24 h INF); FaPlexen additionally gets the
  * paper's OUT marker when the inflated graph would not fit.
  */
object Experiments {

  val algos: Seq[String] = Seq("iMB", "FaPlexen", "bTraversal", "iTraversal")

  /** The algorithms of the parameter sweeps (Fig 7(b–e), Fig 9). */
  val traversals: Seq[String] = Seq("bTraversal", "iTraversal")

  /** iTraversal in its scalability mode (two-hop seed restriction) — used
    * for the first-N runs on large graphs, as the paper's implementation
    * does to reach billion-edge inputs. Exact for every MBP with |R| > k.
    * It keeps the given left order, as `LargeMbp` does for first-N queries
    * and the e2 and e4 tables do.
    */
  val iTraversalScaled: TraversalConfig =
    TraversalConfig.iTraversal.copy(twoHopSeeds = true, degreeOrder = false)

  /** Inflation memory guard ~ what 32 GB held for the paper, scaled. */
  val outEdgeLimit: Long = 30000000L

  /** The algorithm dispatch: run `algo` on (g, k) until `sink` returns
    * false or `budgetMs` runs out, with iTraversal configured as
    * `iTraversal`. Returns the enumerator's own completion flag (false if
    * the deadline, or for iMB and FaPlexen also the sink, stopped it), or
    * None for the paper's OUT: FaPlexen's inflated graph is over
    * [[outEdgeLimit]].
    */
  private def runAlgo(
      algo: String,
      g: BipartiteGraph,
      k: Int,
      iTraversal: TraversalConfig,
      budgetMs: Long,
      sink: Solution => Boolean,
  ): Option[Boolean] = {
    val dl = Harness.deadline(budgetMs)
    algo match {
      case "iMB"        => Some(IMB.enumerate(g, k, sink, 0, 0, dl))
      case "FaPlexen"   =>
        if (InflationBaseline.inflatedEdges(g) > outEdgeLimit) None
        else Some(InflationBaseline.enumerate(g, k, sink, dl))
      case "bTraversal" => Some(!ReverseSearch.run(g, k, TraversalConfig.bTraversal, sink, dl).aborted)
      case "iTraversal" => Some(!ReverseSearch.run(g, k, iTraversal, sink, dl).aborted)
      case other        => sys.error(s"unknown algorithm $other")
    }
  }

  /** Time (ms) for one algorithm to find n solutions, or INF / OUT. */
  private def firstN(algo: String, g: BipartiteGraph, k: Int, n: Int): String = {
    Console.err.println(s"[bench] first $n MBPs: $algo on $g k=$k")
    var found = 0L
    val (completed, ms) = Harness.timed(
      runAlgo(algo, g, k, iTraversalScaled, Harness.budgetMs, _ => { found += 1; found < n }))
    completed.fold("OUT")(c => Harness.cell(ms, c || found >= n))
  }

  // -------------------------------------------------------------------
  // E2 — Figure 7: running time on real datasets (first n MBPs)
  // -------------------------------------------------------------------

  def runtimeAcrossDatasets(datasets: Seq[String], k: Int, n: Int): Harness.Table = {
    val rows = datasets.map { name =>
      Console.err.println(s"[bench] building $name")
      val g = BipartiteGen.dataset(name).build()
      name +: algos.map(a => firstN(a, g, k, n))
    }
    Harness.Table("e2_datasets", s"Fig 7(a): time (ms) to first $n MBPs, k=$k",
      "dataset" +: algos, rows).emit()
  }

  /** Fig 7(b–e): one dataset, time to the first n MBPs over a sweep of k
    * (table `e2_varyk_<dataset>`) or, when `ks` is a single value, of n
    * (`e2_varyn_<dataset>`).
    */
  def runtimeVary(dataset: String, ks: Seq[Int], ns: Seq[Int]): Harness.Table = {
    require(ks.size == 1 || ns.size == 1, "sweep k or n, not both")
    val varyK = ks.size > 1
    val g = BipartiteGen.dataset(dataset).build()
    val rows = for (k <- ks; n <- ns)
      yield (if (varyK) s"k=$k" else s"n=$n") +: traversals.map(a => firstN(a, g, k, n))
    if (varyK)
      Harness.Table(s"e2_varyk_$dataset", s"Fig 7(b,c): $dataset, time (ms) to first ${ns.head} MBPs vs k",
        "k" +: traversals, rows).emit()
    else
      Harness.Table(s"e2_varyn_$dataset", s"Fig 7(d,e): $dataset, time (ms) to first n MBPs, k=${ks.head}",
        "#MBPs" +: traversals, rows).emit()
  }

  // -------------------------------------------------------------------
  // E3 — Figure 8: delay (full enumeration, small datasets)
  // -------------------------------------------------------------------

  /** Max delay in microseconds over a full enumeration, or INF / OUT.
    * iTraversal keeps the given left order, which `e3_delay` holds: the
    * order moves the largest gap between consecutive MBPs.
    */
  private def maxDelay(algo: String, g: BipartiteGraph, k: Int, budgetMs: Long): String = {
    val meter = new Harness.DelayMeter
    runAlgo(algo, g, k, TraversalConfig.iTraversal.copy(degreeOrder = false), budgetMs, _ => { meter.tick(); true })
      .fold("OUT")(completed => if (completed) s"${meter.finish()}" else "INF")
  }

  def delayTable(datasets: Seq[(String, BipartiteGraph)], ks: Seq[Int]): Harness.Table = {
    val rows = for ((name, g) <- datasets; k <- ks) yield {
      Seq(name, s"$k") ++ algos.map(a => maxDelay(a, g, k, Harness.budgetMs * 3))
    }
    Harness.Table("e3_delay", "Fig 8: max delay (microseconds), full enumeration",
      Seq("dataset", "k") ++ algos, rows).emit()
  }

  // -------------------------------------------------------------------
  // E4 — Figure 9: synthetic scalability (ER graphs)
  // -------------------------------------------------------------------

  /** Fig 9: ER graphs with `nv` vertices and nv·density edges, time to the
    * first n MBPs over a sweep of the vertex count (table `e4_vertices`)
    * or, when `nVertices` is a single value, of the density (`e4_density`).
    */
  def scalability(nVertices: Seq[Int], densities: Seq[Int], k: Int, n: Int): Harness.Table = {
    require(nVertices.size == 1 || densities.size == 1, "sweep vertices or density, not both")
    val varyVertices = nVertices.size > 1
    val rows = for (nv <- nVertices; d <- densities) yield {
      val g = BipartiteGen.er(nv / 2, nv / 2, nv.toLong * d, seed = if (varyVertices) 7 else 8)
      s"${if (varyVertices) nv else d}" +: traversals.map(a => firstN(a, g, k, n))
    }
    if (varyVertices)
      Harness.Table("e4_vertices", s"Fig 9(a): ER graphs, density ${densities.head}, time (ms) to first $n MBPs, k=$k",
        "#vertices" +: traversals, rows).emit()
    else
      Harness.Table("e4_density", s"Fig 9(b): ER graphs, ${nVertices.head} vertices, time (ms) to first $n MBPs, k=$k",
        "density" +: traversals, rows).emit()
  }

  // -------------------------------------------------------------------
  // E5 — Figure 10: large-MBP enumeration vs theta
  // -------------------------------------------------------------------

  def largeMbpTable(datasets: Seq[String], thetas: Seq[Int], k: Int): Harness.Table = {
    val rows = for (name <- datasets; g = BipartiteGen.dataset(name).build(); theta <- thetas) yield {
      // iTraversal extension (includes its own core reduction).
      var n1 = 0L
      val (st1, ms1) = Harness.timed(
        LargeMbp.enumerate(g, k, theta, theta, s => { n1 += 1; true },
          deadlineNanos = Harness.deadline()))
      // iMB with the same (theta-k)-core pre-reduction (as the paper does).
      var n2 = 0L
      val (coreL, coreR) = CoreReduction.alphaBetaCore(g, theta - k, theta - k)
      val (sub, _, _) = g.inducedSubgraph(coreL, coreR)
      val (completed, ms2) = Harness.timed(
        IMB.enumerate(sub, k, s => { n2 += 1; true }, theta, theta, Harness.deadline()))
      Seq(name, s"$theta",
        Harness.cell(ms1, !st1.aborted), Harness.cell(ms2, completed),
        s"$n1", s"$n2")
    }
    Harness.Table("e5_large", s"Fig 10: large MBPs (both sides >= theta), k=$k, time (ms)",
      Seq("dataset", "theta", "iTraversal", "iMB", "#MBP(iTrav)", "#MBP(iMB)"), rows).emit()
  }

  // -------------------------------------------------------------------
  // E6 — Figure 11: solution-graph links + runtime of the four variants
  // -------------------------------------------------------------------

  val variantNames: Seq[(String, TraversalConfig)] = Seq(
    "bTraversal"          -> TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20),
    "iTraversal-ES-RS"    -> TraversalConfig.iTraversalNoESNoRS,
    "iTraversal-ES"       -> TraversalConfig.iTraversalNoES,
    "iTraversal"          -> TraversalConfig.iTraversal,
  )

  /** Fig 11: links and time of full enumeration per variant, one row per
    * dataset at one k (table `e6_links_k<k>`) or, when `datasets` is a
    * single graph, one row per k (`e6_varyk_<dataset>`).
    */
  def solutionGraph(datasets: Seq[(String, BipartiteGraph)], ks: Seq[Int]): Harness.Table = {
    require(datasets.size == 1 || ks.size == 1, "sweep datasets or k, not both")
    val varyK = ks.size > 1
    val rows = for ((name, g) <- datasets; k <- ks) yield {
      val cells = variantNames.flatMap { case (_, cfg) =>
        val (stats, ms) = Harness.timed(
          ReverseSearch.run(g, k, cfg, _ => true, Harness.deadline(Harness.budgetMs * 3)))
        Seq(if (stats.aborted) s">=${stats.links} (INF)" else s"${stats.links}",
          Harness.cell(ms, !stats.aborted))
      }
      (if (varyK) s"k=$k" else name) +: cells
    }
    val header = variantNames.flatMap { case (n, _) => Seq(s"$n links", s"$n ms") }
    if (varyK)
      Harness.Table(s"e6_varyk_${datasets.head._1}", s"Fig 11(c,d): ${datasets.head._1}, links and time (ms) vs k",
        "k" +: header, rows).emit()
    else
      Harness.Table(s"e6_links_k${ks.head}", s"Fig 11(a,b): solution-graph links and time (ms), k=${ks.head}",
        "dataset" +: header, rows).emit()
  }

  // -------------------------------------------------------------------
  // E7 — Figure 12: EnumAlmostSat implementations
  // -------------------------------------------------------------------

  /** Average time (microseconds) of each EnumAlmostSat variant over
    * `count` random almost-satisfying graphs built from the first `count`
    * MBPs of the dataset (the paper's protocol).
    */
  def enumAlmostSatTable(dataset: String, ks: Seq[Int], count: Int): Harness.Table = {
    val g = BipartiteGen.dataset(dataset).build()
    val variants = EnumAlmostSat.allVariants
    val rows = ks.map { k =>
      // The first MBPs in the given left order, as the table holds them.
      val mbps = mutable.ArrayBuffer.empty[Solution]
      ReverseSearch.run(g, k, TraversalConfig.iTraversal.copy(degreeOrder = false),
        s => { mbps += s; mbps.length < count }, Harness.deadline(Harness.budgetMs * 4))
      val rnd = new Random(31 * k + dataset.hashCode)
      val cases = mbps.flatMap { s =>
        val outside = (0 until g.nL).filter(v => !VertexSets.contains(s.left, v))
        if (outside.isEmpty) None
        else Some((s, outside(rnd.nextInt(outside.length))))
      }
      val cells = variants.map { variant =>
        val dl = Harness.deadline(Harness.budgetMs * 2)
        val (_, ms) = Harness.timed {
          var go = true
          cases.foreach { case (s, v) =>
            if (go && System.nanoTime < dl)
              go = EnumAlmostSat.run(g, k, s.left, s.right, v, variant, (_, _) => true, deadlineNanos = dl)
          }
        }
        if (System.nanoTime >= dl) "INF"
        else if (cases.isEmpty) "-"
        else f"${ms * 1000.0 / cases.length}%.1f"
      }
      s"k=$k" +: cells
    }
    Harness.Table(s"e7_eas_$dataset",
      s"Fig 12: $dataset, avg EnumAlmostSat time (microseconds) over up to $count almost-satisfying graphs",
      "k" +: variants.map(_.toString), rows).emit()
  }

  // -------------------------------------------------------------------
  // E8 — Figure 13: fraud-detection case study
  // -------------------------------------------------------------------

  def fraudTable(thetaL: Int, thetaRs: Seq[Int]): Harness.Table = {
    val inst = FraudGen.generate()
    val g = inst.graph
    val trueL = inst.fakeUsers
    val trueR = inst.fakeProducts
    def fmt(m: Structures.Metrics): Seq[String] =
      Seq(
        if (m.precision.isNaN) "ND" else f"${m.precision}%.2f",
        f"${m.recall}%.2f",
        if (m.f1.isNaN) "ND" else f"${m.f1}%.2f",
      )
    val dl = () => Harness.deadline(Harness.budgetMs * 2)
    val rows = mutable.ArrayBuffer.empty[Seq[String]]
    for (tr <- thetaRs) {
      def detect(name: String, sols: => Set[Solution]): Unit = {
        val (lset, rset) = Structures.vertexUnion(sols)
        rows += Seq(name, s"$tr") ++ fmt(Structures.metrics(lset, rset, trueL, trueR))
      }
      detect("biclique", Structures.bicliques(g, thetaL, tr, dl()))
      detect("1-biplex", Structures.kBiplexes(g, 1, thetaL, tr, dl()))
      detect("2-biplex", Structures.kBiplexes(g, 2, thetaL, tr, dl()))
      val (cl, cr) = Structures.alphaBetaCore(g, tr, thetaL)
      rows += Seq("ab-core", s"$tr") ++ fmt(Structures.metrics(cl, cr, trueL, trueR))
      for (delta <- Seq(0.1, 0.2)) {
        detect(f"QB-$delta%.1f", Structures.deltaQuasiBicliques(g, delta, thetaL, tr, dl()))
      }
    }
    Harness.Table("e8_fraud",
      s"Fig 13: fraud detection, thetaL=$thetaL (precision / recall / F1 per thetaR)",
      Seq("method", "thetaR", "precision", "recall", "F1"), rows.toSeq).emit()
  }

  // -------------------------------------------------------------------
  // E9 — distributed enumeration (abstract's scalability claim)
  // -------------------------------------------------------------------

  def distributedTable(spark: SparkSession, nVertices: Int, density: Int, k: Int): Harness.Table = {
    val g = BipartiteGen.er(nVertices / 2, nVertices / 2, nVertices.toLong * density, seed = 9)
    // The equality row needs both enumerations complete, so each run gets
    // ten default budgets; a run its deadline cut shows INF.
    val budgetMs = 10 * Harness.budgetMs
    val localSet = mutable.HashSet.empty[Solution]
    val (localStats, localMs) = Harness.timed(ReverseSearch.run(
      g, k, TraversalConfig.iTraversal, s => { localSet += s; true }, Harness.deadline(budgetMs)))
    val distDeadline = Harness.deadline(budgetMs)
    val (distSet, distMs) = Harness.timed(DistITraversal.collectSolutions(spark, g, k, distDeadline))
    val distDone = System.nanoTime < distDeadline
    val rows = Seq(
      Seq("local iTraversal", s"${localSet.size}", Harness.cell(localMs, !localStats.aborted)),
      Seq("distributed iTraversal", s"${distSet.size}", Harness.cell(distMs, distDone)),
      Seq("solution sets equal", s"${!localStats.aborted && distDone && localSet == distSet}", "-"),
    )
    Harness.Table("e9_distributed",
      s"Distributed iTraversal on ER($nVertices vertices, density $density), k=$k",
      Seq("run", "#MBP", "ms"), rows).emit()
  }
}
