package repro.core

import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** k-biplex predicates and deterministic maximal extension, outside an
  * exclusion set when one is given.
  *
  * Notation follows the paper: for a left vertex v and right set R,
  * `dbar(v,R)` is the number of vertices of R that v *disconnects*
  * (Definition 2.1 bounds it by k on both sides).
  *
  * The recompute-style predicates here are the reference semantics used by
  * tests and by the traversal engines on the (small) solution-sized sets;
  * enumerator inner loops use candidate generation to avoid scanning the
  * whole vertex universe on large graphs.
  *
  * Every neighbour-count question of the traversal (left candidates, the
  * right-shrinking test with no saturated vertex, two-hop seeds and their
  * |Γ(v) ∩ R| for the θ pruning) is answered by one counting kernel,
  * [[occurrences]], whose cost follows the lists it reads, not the graph.
  */
object Biplex {

  /** δ̄(v, R) for left vertex v. */
  def dbarL(g: BipartiteGraph, v: Int, r: Array[Int]): Int =
    r.length - VertexSets.intersectCount(g.adjL(v), r)

  /** δ̄(u, L) for right vertex u. */
  def dbarR(g: BipartiteGraph, u: Int, l: Array[Int]): Int =
    l.length - VertexSets.intersectCount(g.adjR(u), l)

  /** Definition 2.1: every vertex disconnects at most k on the other side. */
  def isKBiplex(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean =
    l.forall(v => dbarL(g, v, r) <= k) && r.forall(u => dbarR(g, u, l) <= k)

  /** Can left vertex v (∉ L) be added to the k-biplex (L, R)? */
  def addableL(g: BipartiteGraph, k: Int, v: Int, l: Array[Int], r: Array[Int]): Boolean = {
    if (dbarL(g, v, r) > k) return false
    // Every right vertex that disconnects v gains one disconnection.
    var i = 0
    val nb = g.adjL(v)
    while (i < r.length) {
      val u = r(i)
      if (!VertexSets.contains(nb, u) && dbarR(g, u, l) >= k) return false
      i += 1
    }
    true
  }

  /** Can right vertex u (∉ R) be added to the k-biplex (L, R)? */
  def addableR(g: BipartiteGraph, k: Int, u: Int, l: Array[Int], r: Array[Int]): Boolean =
    addableL(g.flipped, k, u, r, l)

  /** Left vertices of L with δ̄(v,R) exactly k (no slack left). */
  def saturatedL(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Array[Int] =
    l.filter(v => dbarL(g, v, r) == k)

  /** Result of [[occurrences]]: the hit ids, ascending, and for each the
    * number of lists it occurs in.
    */
  private[core] final class Occurrences(val ids: Array[Int], val counts: Array[Int])

  /** Scratch of [[occurrences]], one per thread: a counter per vertex id,
    * zero between calls, and the ids whose counter the running call made
    * non-zero. Grows to the largest universe seen on the thread.
    */
  private final class CountScratch {
    var counts: Array[Int] = Array.emptyIntArray
    var touched: Array[Int] = new Array[Int](64)
  }

  // Per thread because traversals run concurrently in one JVM (the
  // distributed runner's executor threads). A call runs no callback, so
  // nothing is held across a sink or emit.
  private val countScratch = ThreadLocal.withInitial[CountScratch](() => new CountScratch)

  /** The counting kernel behind every neighbour-count question of the
    * traversal: the ids in [0, universe) that occur in at least `need` of
    * the given duplicate-free lists, with their occurrence counts.
    * Counters indexed by vertex id are bumped list by list and reset
    * through the touched list, never by a pass over the universe. The hits
    * come out ascending by reading the counters across the touched id
    * range when it is at most [[DenseRange]] times the number of touched
    * ids, and by sorting them otherwise; either way the call costs
    * O(Σ|lists| + h log h) for h hits. `need` ≥ 1.
    */
  private[core] def occurrences(lists: Array[Array[Int]], need: Int, universe: Int): Occurrences = {
    val s = countScratch.get
    if (s.counts.length < universe) s.counts = new Array[Int](universe)
    val cnt = s.counts
    var t = 0 // touched ids so far; their counters are reset however the call ends
    try {
      var lo = Int.MaxValue
      var hi = -1
      var i = 0
      while (i < lists.length) {
        val a = lists(i)
        var j = 0
        while (j < a.length) {
          val id = a(j)
          if (cnt(id) == 0) {
            if (t == s.touched.length) s.touched = java.util.Arrays.copyOf(s.touched, 2 * t)
            s.touched(t) = id
            t += 1
            if (id < lo) lo = id
            if (id > hi) hi = id
          }
          cnt(id) += 1
          j += 1
        }
        i += 1
      }
      val touched = s.touched
      var h = 0
      i = 0
      while (i < t) { if (cnt(touched(i)) >= need) h += 1; i += 1 }
      val ids = new Array[Int](h)
      val counts = new Array[Int](h)
      if (hi - lo < DenseRange.toLong * t) {
        var id = lo
        i = 0
        while (i < h) {
          val c = cnt(id)
          if (c >= need) { ids(i) = id; counts(i) = c; i += 1 }
          id += 1
        }
      } else {
        i = 0
        h = 0
        while (i < t) { if (cnt(touched(i)) >= need) { ids(h) = touched(i); h += 1 }; i += 1 }
        java.util.Arrays.sort(ids)
        i = 0
        while (i < h) { counts(i) = cnt(ids(i)); i += 1 }
      }
      new Occurrences(ids, counts)
    } finally {
      val touched = s.touched
      var i = 0
      while (i < t) { cnt(touched(i)) = 0; i += 1 }
    }
  }

  /** [[occurrences]] reads its hits in id order, instead of sorting them,
    * when the touched ids span at most this many ids per touched id: a
    * counter read costs far less than a comparison sort's work per hit.
    */
  private final val DenseRange = 32

  /** The adjacency lists of `ids`, in their order. */
  private[core] def listsOf(adj: Array[Array[Int]], ids: Array[Int]): Array[Array[Int]] = {
    val out = new Array[Array[Int]](ids.length)
    var i = 0
    while (i < ids.length) { out(i) = adj(ids(i)); i += 1 }
    out
  }

  /** Candidate left vertices that could satisfy δ̄(v,R) ≤ k, ascending.
    *
    * A superset of the truly addable vertices outside L; callers re-check
    * with [[addableL]]. A candidate needs at least |R| − k neighbours in R.
    * When R is the full right side that is its degree, and when |R| ≤ k
    * every vertex qualifies, so the universe is scanned; otherwise the
    * neighbours of R are counted.
    */
  def leftCandidates(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Array[Int] = {
    val need = r.length - k
    if (r.length == g.nR || need <= 0)
      (0 until g.nL).iterator.filter(v => g.degL(v) >= need && !VertexSets.contains(l, v)).toArray
    else VertexSets.diff(occurrences(listsOf(g.adjR, r), need, g.nL).ids, l)
  }

  /** Does some right vertex outside R extend (L, R) to a larger k-biplex?
    * This is the right-shrinking test of Algorithm 2 line 7.
    */
  def existsAddableRight(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean =
    r.length < g.nR && searchAddableRight(g, k, l, r, saturatedL(g, k, l, r))

  /** [[existsAddableRight]] given `sat`, the members of L with δ̄(v,R) = k,
    * done without scanning the whole right universe: an addable u must
    * (a) connect every saturated left vertex and (b) have δ̄(u,L) ≤ k.
    * R must not be the whole right side.
    */
  private[core] def searchAddableRight(
      g: BipartiteGraph,
      k: Int,
      l: Array[Int],
      r: Array[Int],
      sat: Array[Int],
  ): Boolean = {
    if (sat.nonEmpty) {
      // Candidates must be common neighbours of sat: scan the smallest list.
      var w0 = sat(0)
      var s = 1
      while (s < sat.length) { if (g.degL(sat(s)) < g.degL(w0)) w0 = sat(s); s += 1 }
      g.adjL(w0).exists { u =>
        !VertexSets.contains(r, u) && sat.forall(w => g.hasEdge(w, u)) && dbarR(g, u, l) <= k
      }
    } else if (l.length > k) {
      // u needs at least |L| - k neighbours in L, which also gives (b).
      occurrences(listsOf(g.adjL, l), l.length - k, g.nR).ids.exists(u => !VertexSets.contains(r, u))
    } else {
      // |L| <= k and no saturated left vertex: any outside u is addable.
      true
    }
  }

  /** Is (L, R) maximal w.r.t. G (no vertex on either side addable)? */
  def isMaximal(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean = {
    if (existsAddableRight(g, k, l, r)) return false
    !existsAddableRight(g.flipped, k, r, l)
  }

  /** Is (L, R) a maximal k-biplex of G? */
  def isMaximalKBiplex(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean =
    isKBiplex(g, k, l, r) && isMaximal(g, k, l, r)

  /** Deterministically extend the k-biplex (L, R) to a maximal one.
    *
    * Adds vertices in ascending id order — left side first, then (iff
    * `leftOnly` is false) the right side. Because addability is monotone
    * non-increasing as the solution grows, one pass per side yields a
    * maximal result; `leftOnly` extensions preserve R exactly
    * (right-shrinking traversal, Algorithm 2 line 8).
    *
    * `excluded`, if not null, marks Algorithm 2's exclusion set X by left
    * id (X disjoint from L). The left pass then skips X, and the result is
    * null iff some x ∈ X is still addable to it: an ascending pass would add
    * the first such x it reaches, since addability only falls as L grows,
    * so every maximal extension contains a vertex of X.
    */
  def extend(
      g: BipartiteGraph,
      k: Int,
      l0: Array[Int],
      r0: Array[Int],
      leftOnly: Boolean,
      excluded: Array[Boolean] = null,
  ): Solution = {
    val l = extendLeftPass(g, k, l0, r0, excluded)
    if (l == null) null
    else Solution(l, if (leftOnly) r0 else extendLeftPass(g.flipped, k, r0, l, null))
  }

  /** One maximal-growing pass over the left candidates, with incremental
    * bookkeeping: δ̄(u, L) per u ∈ R and the saturated set are updated on
    * each accepted vertex instead of recomputed per candidate. Addability
    * is monotone non-increasing, so a single ascending pass over a
    * candidate superset yields a result maximal among the vertices outside
    * the exclusion set (`excluded` marks it by left id, or is null when
    * there is none).
    *
    * One rule covers excluded vertices: one the pass reaches is set aside,
    * and after the pass each set-aside vertex is tested for addability; the
    * pass returns null iff one is addable. An excluded vertex the pass
    * never reaches cannot be addable: it is outside the candidate superset,
    * or it is not adjacent to a right vertex that was already saturated,
    * and saturation only grows.
    */
  private def extendLeftPass(
      g: BipartiteGraph,
      k: Int,
      l0: Array[Int],
      r: Array[Int],
      excluded: Array[Boolean],
  ): Array[Int] = {
    val fullRight = r.length == g.nR
    val dbar = new Array[Int](r.length)
    var satR = VertexSets.empty // right vertices with δ̄(u, L) == k, sorted
    var i = 0
    while (i < r.length) {
      dbar(i) = dbarR(g, r(i), l0)
      if (dbar(i) == k) satR = VertexSets.add(satR, r(i))
      i += 1
    }
    // Candidates arrive ascending, each once, so both buffers stay sorted;
    // accepted vertices are merged into l0 once at the end — re-allocating
    // the set per add would be quadratic when a pass accepts a large
    // fraction of the universe (e.g. extending toward (L, ∅)). A buffer is
    // made at its first vertex: most passes set nothing aside.
    var added: mutable.ArrayBuilder.ofInt = null
    var setAside: mutable.ArrayBuilder.ofInt = null

    /** Is a left vertex v ∉ L with neighbours nb addable to the current
      * (L, R): δ̄(v, R) ≤ k and v adjacent to every saturated u ∈ R?
      */
    def addable(nb: Array[Int]): Boolean = {
      val db = if (fullRight) g.nR - nb.length else r.length - VertexSets.intersectCount(nb, r)
      if (db > k) return false
      var s = 0
      while (s < satR.length) {
        if (!VertexSets.contains(nb, satR(s))) return false
        s += 1
      }
      true
    }

    /** Set aside an excluded candidate v ∉ L; otherwise add v if it is
      * addable and update the bookkeeping.
      */
    def tryAdd(v: Int): Unit = {
      if (excluded != null && excluded(v)) {
        if (setAside == null) setAside = new mutable.ArrayBuilder.ofInt
        setAside += v
        return
      }
      val nb = g.adjL(v)
      if (!addable(nb)) return
      if (added == null) added = new mutable.ArrayBuilder.ofInt
      added += v
      var j = 0
      while (j < r.length) {
        if (!VertexSets.contains(nb, r(j))) {
          dbar(j) += 1
          if (dbar(j) == k) satR = VertexSets.add(satR, r(j))
        }
        j += 1
      }
    }

    if (r.length > k) {
      val cands = leftCandidates(g, k, l0, r)
      var c = 0
      while (c < cands.length) { tryAdd(cands(c)); c += 1 }
    } else {
      // |R| <= k: every vertex passes the degree test. Phase A adds
      // greedily while nothing is saturated; once some u saturates, only
      // common neighbours of the saturated set remain addable (Phase B),
      // which avoids scanning the whole left universe.
      var v = 0
      while (v < g.nL && satR.isEmpty) { if (!VertexSets.contains(l0, v)) tryAdd(v); v += 1 }
      if (v < g.nL && satR.nonEmpty) {
        var common: Array[Int] = null
        def recompute(): Unit = {
          common = g.adjR(satR(0))
          var s = 1
          while (s < satR.length) { common = VertexSets.intersect(common, g.adjR(satR(s))); s += 1 }
        }
        recompute()
        var continueB = true
        while (continueB) {
          val p = java.util.Arrays.binarySearch(common, v)
          val idx = if (p >= 0) p else -p - 1
          if (idx >= common.length) continueB = false
          else {
            val cand = common(idx)
            val satBefore = satR.length
            if (!VertexSets.contains(l0, cand)) tryAdd(cand)
            v = cand + 1
            if (satR.length != satBefore) recompute()
          }
        }
      }
    }
    if (setAside != null && setAside.result().exists(x => addable(g.adjL(x)))) return null
    if (added == null) l0 else VertexSets.union(l0, added.result())
  }

  /** The paper's initial solution H0 = (L0, R_all): greedily grow L0 from ∅. */
  def initialLeftAnchored(g: BipartiteGraph, k: Int): Solution = {
    val all = Array.range(0, g.nR)
    extend(g, k, VertexSets.empty, all, leftOnly = true)
  }

  /** An arbitrary initial solution for bTraversal: greedy from (∅, ∅) over
    * an interleaved vertex order (l0, r0, l1, r1, …). Interleaving keeps
    * the initial solution of normal size — a left-only first pass would
    * absorb the whole left side (every L-subset with R = ∅ is a k-biplex).
    * Addability is monotone non-increasing, so one pass is maximal.
    */
  def initialArbitrary(g: BipartiteGraph, k: Int): Solution = {
    var l = VertexSets.empty
    var r = VertexSets.empty
    var i = 0
    val n = math.max(g.nL, g.nR)
    while (i < n) {
      if (i < g.nL && addableL(g, k, i, l, r)) l = VertexSets.add(l, i)
      if (i < g.nR && addableR(g, k, i, l, r)) r = VertexSets.add(r, i)
      i += 1
    }
    Solution(l, r)
  }
}
