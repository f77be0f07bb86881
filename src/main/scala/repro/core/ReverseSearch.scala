package repro.core

import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** Statistics of one enumeration run.
  *
  * `links` counts the links of the (variant-specific) solution graph that
  * the DFS traversed: one per (H, v, H_loc) triple surviving the variant's
  * prunings — the quantity plotted in Figure 11. `easCalls` counts only the
  * EnumAlmostSat calls made (almost-satisfying graphs formed): a seed skipped
  * by the θ pruning or because it is already excluded is not counted.
  * `aborted` means the deadline fired; a sink that returns false ends the
  * run without setting it. `maxDepth` is the most frames the DFS stack
  * held at once, one per solution on the path from the root. `locals`
  * counts the local solutions the DFS pulled from EnumAlmostSat, and
  * `rightRejected` those the right-shrinking test (Algorithm 2 line 7)
  * dropped; every other pulled local solution is a link, so
  * locals = links + rightRejected.
  */
final case class EnumStats(
    solutions: Long,
    links: Long,
    easCalls: Long,
    aborted: Boolean,
    maxDepth: Int = 0,
    locals: Long = 0,
    rightRejected: Long = 0,
)

/** Sparsification level of the traversal. The paper's techniques stack:
  * right-shrinking traversal (Section 3.4) is built on left-anchored
  * traversal (Section 3.3), and the exclusion strategy (Section 3.5) on
  * both, so a level enables itself and every level of lower rank.
  */
sealed abstract class Technique(val rank: Int) extends Ordered[Technique] {
  def compare(that: Technique): Int = rank - that.rank
}

object Technique {
  /** No sparsification: Algorithm 1 (bTraversal). */
  case object Basic extends Technique(0)
  /** Start from H0 = (L0, R_all) and seed almost-satisfying graphs with
    * left vertices only.
    */
  case object LeftAnchored extends Technique(1)
  /** Discard local solutions that still admit a right vertex and extend
    * with left vertices only.
    */
  case object RightShrinking extends Technique(2)
  /** Prune links toward solutions containing a vertex of the exclusion set
    * (Algorithm 2, iTraversal).
    */
  case object Exclusion extends Technique(3)
}

/** Configuration of the reverse-search engine.
  *
  * @param technique     sparsification level (see [[Technique]])
  * @param eas           EnumAlmostSat implementation (Section 4)
  * @param theta         large-MBP mode (θL, θR): report only solutions with
  *                      |L| >= θL and |R| >= θR and apply the Section-5
  *                      prunings (requires rightShrinking)
  * @param twoHopSeeds   restrict almost-satisfying-graph seeds at a node
  *                      (L, R) to left vertices with Γ(v) ∩ R ≠ ∅. Lossless
  *                      for every MBP whose right side exceeds k: any left
  *                      vertex v of such an MBP has Γ(v) ∩ R'' ≠ ∅
  *                      (δ̄(v,R'') ≤ k < |R''|), so the canonical
  *                      left-anchored path (Section 3.3) only ever seeds
  *                      with such vertices. Solutions with |R| ≤ k may be
  *                      skipped — this is the scalability mode used by the
  *                      large-graph benchmarks, mirroring how the paper's
  *                      implementation reaches billion-edge graphs.
  * @param degreeOrder   walk the left side in ascending (degree, id) order
  *                      instead of the given id order. The run relabels
  *                      the left side once at its entry and maps every
  *                      solution back, so seeds, exclusion marks,
  *                      extensions and H0 follow that order (see
  *                      [[ReverseSearch.run]]). On complete enumeration
  *                      the exclusion strategy then prunes far more links
  *                      (DESIGN §3); the solution set is the same.
  */
final case class TraversalConfig(
    technique: Technique,
    eas: EnumAlmostSat.Variant = EnumAlmostSat.L20R20,
    theta: Option[(Int, Int)] = None,
    twoHopSeeds: Boolean = false,
    degreeOrder: Boolean = false,
) {
  require(theta.isEmpty || rightShrinking, "size-constrained mode requires right-shrinking traversal")

  def leftAnchored: Boolean = technique >= Technique.LeftAnchored
  def rightShrinking: Boolean = technique >= Technique.RightShrinking
  def exclusion: Boolean = technique >= Technique.Exclusion
}

object TraversalConfig {
  /** Algorithm 1 with the inflation-based EnumAlmostSat (paper's bTraversal). */
  val bTraversal: TraversalConfig =
    TraversalConfig(Technique.Basic, eas = EnumAlmostSat.Inflated)

  /** Algorithm 2, all three techniques (paper's iTraversal), walking the
    * left side in ascending degree order.
    */
  val iTraversal: TraversalConfig = TraversalConfig(Technique.Exclusion, degreeOrder = true)

  /** iTraversal without the exclusion strategy. */
  val iTraversalNoES: TraversalConfig = iTraversal.copy(technique = Technique.RightShrinking)

  /** iTraversal without exclusion and right-shrinking (left-anchored only). */
  val iTraversalNoESNoRS: TraversalConfig = iTraversal.copy(technique = Technique.LeftAnchored)
}

/** Reverse-search enumeration of maximal k-biplexes: a DFS over the implicit
  * solution graph, parameterized by the paper's three sparsification
  * techniques (bTraversal = none, iTraversal = all).
  */
object ReverseSearch {

  /** Enumerate maximal k-biplexes of g.
    *
    * `sink` receives each solution exactly once (pre-order); returning
    * false ends the run ("first N MBPs") without setting `aborted`.
    * `deadlineNanos` (absolute, System.nanoTime scale) aborts long runs —
    * the paper's INF budget.
    *
    * `parts` > 1 splits the root: run `part` walks only the contiguous
    * block [part·n/parts, (part+1)·n/parts) of the root's n left seed
    * positions, in the run's order — the distributed runner's unit of
    * work. The root marks the seeds before the block, so the block starts
    * from the exclusion set the full run has there. Only part 0 reports
    * H0, and bTraversal's root right seeds go to the last part, so the
    * union over the parts is the full run's solution set.
    *
    * With `cfg.degreeOrder` the DFS runs on g with its left side relabelled
    * by [[BipartiteGraph.leftByDegree]], and every solution is mapped back
    * before the sink: all ids a caller receives are g's.
    *
    * The DFS keeps its path in an explicit stack of frames, so the run and
    * its sink stay on the caller's thread whatever the depth.
    */
  def run(
      g: BipartiteGraph,
      k: Int,
      cfg: TraversalConfig,
      sink: Solution => Boolean,
      deadlineNanos: Long = Long.MaxValue,
      part: Int = 0,
      parts: Int = 1,
  ): EnumStats = {
    require(0 <= part && part < parts, s"part $part is not one of $parts")
    val order = new LeftOrder(g, cfg)
    traverse(order.graph, k, cfg, s => sink(order.toGiven(s)), deadlineNanos, part, parts)
  }

  /** The graph a run of cfg on g traverses, and the map back to g's left
    * ids. `back(i)` is g's id of the run's left vertex i; it is null when
    * the run keeps g's order.
    */
  private final class LeftOrder(g: BipartiteGraph, cfg: TraversalConfig) {
    private val back = if (cfg.degreeOrder) g.leftByDegree else null
    val graph: BipartiteGraph = if (back == null) g else g.relabelLeft(back)

    def toGiven(s: Solution): Solution =
      if (back == null) s
      else {
        val l = s.left.map(back)
        java.util.Arrays.sort(l)
        Solution(l, s.right)
      }
  }

  private def traverse(
      g: BipartiteGraph,
      k: Int,
      cfg: TraversalConfig,
      sink: Solution => Boolean,
      deadlineNanos: Long,
      part: Int,
      parts: Int,
  ): EnumStats = {
    var solutions = 0L
    var links = 0L
    var easCalls = 0L
    var pulled = 0L
    var rightRejected = 0L
    var sinkStopped = false
    var timedOut = false
    val (thetaL, thetaR) = cfg.theta.getOrElse((0, 0))
    val visited = new mutable.HashSet[Solution]
    // The exclusion set (Algorithm 2) of the node being expanded: a mark per
    // left id, and the marked ids in marking order. A node marks its seeds
    // as it processes them and unmarks back to its entry height when its
    // frame is popped, so the set grows and shrinks with the DFS like a stack.
    val excluded = if (cfg.exclusion) new Array[Boolean](g.nL) else null
    val marked = if (cfg.exclusion) new Array[Int](g.nL) else null
    var nMarked = 0
    def mark(v: Int): Unit =
      if (!excluded(v)) { excluded(v) = true; marked(nMarked) = v; nMarked += 1 }

    /** Report a newly found solution; false (the sink's) ends the whole run. */
    def report(s: Solution): Boolean = {
      if (s.left.length < thetaL || s.right.length < thetaR) true
      else {
        solutions += 1
        sinkStopped = !sink(s)
        !sinkStopped
      }
    }

    /** One solution (l, r) on the DFS path and how far its (i)ThreeStep
      * procedure has got under the current exclusion set. The frame
      * processes block `part` of `parts` of its left seed positions and
      * marks the seeds before the block without processing them; only the
      * last block takes the right seeds. Every frame but a split root
      * takes the one block of all its seeds.
      */
    final class Frame(l: Array[Int], r: Array[Int], part: Int, parts: Int) {
      val entryMarked: Int = nMarked
      // Disconnection structures of (l, r), shared by every seed's
      // EnumAlmostSat call (one ThreeStep = one solution).
      private lazy val ctx: EnumAlmostSat.SolutionCtx = EnumAlmostSat.buildCtx(g, l, r)
      // Left-side seeds (all frameworks), ascending, so membership in l and
      // the counts below are read by merge pointers. One count over R's
      // adjacency lists gives |Γ(v) ∩ R| for the θ pruning and, in
      // two-hop mode, the seeds themselves: the vertices neighbouring R
      // (see TraversalConfig.twoHopSeeds).
      private val near =
        if (cfg.twoHopSeeds || cfg.theta.isDefined) Biplex.occurrences(Biplex.listsOf(g.adjR, r), 1, g.nL)
        else null
      private val twoHop = cfg.twoHopSeeds && r.length < g.nR
      private val nSeeds = if (twoHop) near.ids.length else g.nL
      private val from = (part.toLong * nSeeds / parts).toInt
      private val until = ((part + 1).toLong * nSeeds / parts).toInt
      private var i = 0 // next left seed index
      private var p = 0 // first position of near.ids at or after the current seed
      private var q = 0 // first position of l at or after the current seed
      // Next right seed (bTraversal only; pruned by left-anchored traversal,
      // and left to the last block of a split root).
      private var u = if (cfg.leftAnchored || part < parts - 1) g.nR else 0
      /** The seed `locals` belongs to: a left id, or -1 for a right seed. */
      var v: Int = -1
      var locals: Iterator[EnumAlmostSat.Local] = Iterator.empty

      private def common(v: Int): Int = {
        while (p < near.ids.length && near.ids(p) < v) p += 1
        if (p < near.ids.length && near.ids(p) == v) near.counts(p) else 0
      }
      private def inL(v: Int): Boolean = {
        while (q < l.length && l(q) < v) q += 1
        q < l.length && l(q) == v
      }
      private def seed(i: Int): Int = if (twoHop) near.ids(i) else i

      /** Marks the seed just processed and points `locals` at the next
        * seed's local solutions; false when no seed is left.
        */
      def nextSeed(): Boolean = {
        if (cfg.exclusion && v >= 0) mark(v)
        v = -1
        while (i < until) {
          val before = i < from
          val w = seed(i)
          i += 1
          if (!inL(w)) {
            // Before the block, the full run would have processed w. A seed
            // already in the exclusion set forms no almost-satisfying
            // graph: every local solution contains w, so every one would
            // be pruned. Then almost-satisfying-graph pruning (Section 5).
            // A skipped seed still enters the exclusion set.
            val skip = before || (cfg.exclusion && excluded(w)) ||
              (cfg.theta.isDefined && common(w) + k < thetaR)
            if (!skip) {
              easCalls += 1
              v = w
              locals = EnumAlmostSat.locals(g, k, l, r, w, cfg.eas, thetaR, deadlineNanos,
                ctx = if (cfg.eas == EnumAlmostSat.Inflated) null else ctx)
              return true
            }
            if (cfg.exclusion) mark(w)
          }
        }
        // Right-side seeds: the local solutions come from the flipped graph.
        while (u < g.nR) {
          val x = u
          u += 1
          if (!VertexSets.contains(r, x)) {
            easCalls += 1
            locals = EnumAlmostSat.locals(g.flipped, k, r, l, x, cfg.eas, deadlineNanos = deadlineNanos)
            return true
          }
        }
        false
      }
    }

    val stack = mutable.ArrayBuffer.empty[Frame]
    var maxDepth = 0
    def push(s: Solution, part: Int = 0, parts: Int = 1): Unit =
      // Solution pruning and left-side pruning (Section 5).
      if (s.right.length >= thetaR && !(cfg.exclusion && g.nL - nMarked < thetaL)) {
        stack += new Frame(s.left, s.right, part, parts)
        maxDepth = math.max(maxDepth, stack.length)
      }

    /** The link from frame f toward its local solution loc. Every pulled
      * local solution is right-rejected or a link, so locals = links +
      * rightRejected; a link is followed iff its extension is non-null, new
      * and reported.
      */
    def link(f: Frame, loc: EnumAlmostSat.Local): Unit =
      // Right-shrinking traversal (Algorithm 2 line 7): drop local
      // solutions that still admit a vertex from the right universe.
      if (cfg.rightShrinking && loc.admitsRight) rightRejected += 1
      else {
        links += 1
        // A right seed's local solution (bTraversal only) is extended on the
        // flipped graph. Otherwise loc avoids the exclusion set: f.v is not
        // excluded (seed loop), and f's left side avoids every vertex
        // excluded at f — those inherited because the extension toward f
        // avoided them, the rest because its members are not seeds there. So
        // extend returns null iff the extension would take in an excluded vertex.
        val ext =
          if (f.v < 0) Biplex.extend(g.flipped, k, loc.left, loc.right, leftOnly = false).flip
          else Biplex.extend(g, k, loc.left, loc.right, leftOnly = cfg.rightShrinking, excluded)
        if (ext != null && visited.add(ext) && report(ext)) push(ext)
      }

    // The DFS in pre-order: a frame's next local solution is linked (and a
    // new solution pushed on top) before the frame asks for another. The
    // deadline is read after the iterator moves, because a seed's local
    // solutions can end at the deadline: then the run is aborted even when
    // that seed was the last one left.
    val h0 = if (cfg.leftAnchored) Biplex.initialLeftAnchored(g, k) else Biplex.initialArbitrary(g, k)
    visited += h0
    if (part > 0 || report(h0)) push(h0, part, parts)
    while (stack.nonEmpty && !sinkStopped && !timedOut) {
      val f = stack.last
      val more = f.locals.hasNext
      if (System.nanoTime >= deadlineNanos) timedOut = true
      else if (more) { pulled += 1; link(f, f.locals.next()) }
      else if (!f.nextSeed()) {
        // Leave the exclusion set as this node found it.
        while (nMarked > f.entryMarked) { nMarked -= 1; excluded(marked(nMarked)) = false }
        stack.remove(stack.length - 1)
      }
    }
    // A run stops early only when the sink or the deadline says so, and the
    // sink's stop is not an abort.
    EnumStats(solutions, links, easCalls, aborted = timedOut, maxDepth, pulled, rightRejected)
  }
}
