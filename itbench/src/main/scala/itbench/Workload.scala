package itbench

import repro.core._
import repro.gen.{BipartiteGen, FraudGen}
import repro.graph.{BipartiteGraph, VertexSets}

/** The graph a query's traversal actually runs on, with the map from the
  * program's reported (original) ids into its ids.
  */
final case class TraversalInput(g: BipartiteGraph, cfg: TraversalConfig, toLocal: Solution => Solution)

/** One benchmark workload.
  *
  * Its inputs are a pool of graphs drawn from a fixed corpus of generator
  * seeds; the run seed orders the queries over the pool. Each query is a
  * fixed amount of work on one pool graph: a complete enumeration, or the
  * first `firstN` MBPs with exactly `firstN` reached.
  */
sealed abstract class Workload(val name: String) {
  def k: Int
  def poolSize: Int
  def firstN: Option[Int]
  def cfg: TraversalConfig
  def thetas: (Int, Int) = (0, 0)

  /** Generator seeds of the workload's corpus, one per pool slot. */
  def corpus: Array[Long] = Array.tabulate(poolSize)(i => 1L + i)

  /** Generates one pool graph, through the program's generator. */
  def build(genSeed: Long): BipartiteGraph

  /** One query, through the program's public entry point. */
  def query(g: BipartiteGraph, sink: Solution => Boolean, deadlineNanos: Long): EnumStats

  /** (alpha, beta) of the core the query reduces the graph to, if any. */
  def core: Option[(Int, Int)]

  /** The reduction the query performs, repeated through the same public
    * calls with a span around each.
    */
  def traversal(g: BipartiteGraph, spans: Spans): TraversalInput = core match {
    case None => TraversalInput(g, cfg, identity)
    case Some((alpha, beta)) =>
      val (cl, cr) = spans.span(Spans.Core)(CoreReduction.alphaBetaCore(g, alpha, beta))
      val (sub, _, _) = spans.span(Spans.Induced)(g.inducedSubgraph(cl, cr))
      TraversalInput(sub, cfg,
        s => Solution(s.left.map(java.util.Arrays.binarySearch(cl, _)), s.right.map(java.util.Arrays.binarySearch(cr, _))))
  }
}

/** Complete enumeration at k = 1 on Divorce-shaped Zipf graphs. */
object DenseFull extends Workload("dense-full") {
  val k = 1
  val poolSize = 20
  val firstN: Option[Int] = None
  val cfg: TraversalConfig = TraversalConfig.iTraversal
  val core: Option[(Int, Int)] = None

  /** The Divorce stand-in's shape: 9 x 50 vertices, 225 edges. */
  def build(genSeed: Long): BipartiteGraph = BipartiteGen.zipf(9, 50, 225, 1.0, 1.0, genSeed)

  def query(g: BipartiteGraph, sink: Solution => Boolean, deadlineNanos: Long): EnumStats =
    ReverseSearch.run(g, k, cfg, sink, deadlineNanos)
}

/** First N large MBPs (k = 1, thetaL = 4, thetaR = 7) on FraudGen
  * camouflage-attack instances, through LargeMbp.enumerate.
  */
object FraudLarge extends Workload("fraud-large") {
  val k = 1
  val poolSize = 20
  val firstN: Option[Int] = Some(1000)
  override val thetas: (Int, Int) = (4, 7)
  // LargeMbp.enumerate's traversal configuration for these thresholds.
  val cfg: TraversalConfig =
    TraversalConfig.iTraversal.copy(theta = Some(thetas), twoHopSeeds = thetas._2 > k)
  val core: Option[(Int, Int)] = Some((thetas._2 - k, thetas._1 - k))

  def build(genSeed: Long): BipartiteGraph = FraudGen.generate(seed = genSeed).graph

  def query(g: BipartiteGraph, sink: Solution => Boolean, deadlineNanos: Long): EnumStats =
    LargeMbp.enumerate(g, k, thetas._1, thetas._2, sink, deadlineNanos = deadlineNanos)
}

object Workload {
  val all: Seq[Workload] = Seq(DenseFull, FraudLarge)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Left seeds the traversal forms almost-satisfying graphs with at node
    * (l, r), in its order: two-hop seeds neighbour r; with thresholds, seeds
    * that cannot reach thetaR right vertices are skipped.
    */
  def seeds(t: TraversalInput, k: Int, l: Array[Int], r: Array[Int]): Array[Int] = {
    val g = t.g
    val mark = new Array[Boolean](g.nL)
    if (t.cfg.twoHopSeeds && r.length < g.nR) r.foreach(u => g.adjR(u).foreach(mark(_) = true))
    else java.util.Arrays.fill(mark, true)
    val thetaR = t.cfg.theta.fold(0)(_._2)
    Array.range(0, g.nL).filter { v =>
      mark(v) && !VertexSets.contains(l, v) &&
      (t.cfg.theta.isEmpty || VertexSets.intersectCount(g.adjL(v), r) + k >= thetaR)
    }
  }
}
