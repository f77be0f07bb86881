package repro.core

import repro.baselines.KPlexEnum
import repro.graph.{BipartiteGraph, Inflation, VertexSets}
import scala.collection.mutable

/** The EnumAlmostSat procedure (Section 4 / Algorithm 3).
  *
  * Given a solution (L, R) and a left vertex v ∉ L, the almost-satisfying
  * graph is (L ∪ {v}, R); this procedure enumerates all *local solutions*:
  * induced subgraphs (L' ∪ {v}, R') with L' ⊆ L, R' ⊆ R that are k-biplexes
  * and maximal within the almost-satisfying graph.
  *
  * Variants (Figure 12): the cross-product of the refined enumerations on R
  * (1.0 = all subsets of R_enum up to size k; 2.0 = prune via Lemma 4.2)
  * and on L (1.0 = all removal subsets of L_remo up to size |R2''|; 2.0 =
  * additionally prune supersets of successful minimal removals), plus the
  * Inflation baseline (inflate the almost-satisfying graph, enumerate local
  * maximal (k+1)-plexes containing v).
  *
  * All variants emit exactly the same set of local solutions — the tests
  * assert this — they differ only in how much of the search space they touch.
  *
  * Because (L, R) is a k-biplex, every vertex's non-neighbour set within it
  * has at most k elements; [[SolutionCtx]] materialises those sets once per
  * solution so that each candidate check costs O(k²·log) instead of
  * O((|L|+|R|)·deg) — this is what makes the traversal's delay small on
  * solutions with a large side.
  */
object EnumAlmostSat {

  sealed trait Variant
  case object L10R10 extends Variant
  case object L10R20 extends Variant
  case object L20R10 extends Variant
  case object L20R20 extends Variant
  case object Inflated extends Variant

  val allVariants: Seq[Variant] = Seq(L10R10, L10R20, L20R10, L20R20, Inflated)

  /** Per-solution disconnection structures, shared by all almost-satisfying
    * graphs formed from the same solution (one per ThreeStep call).
    *
    * All arrays are aligned with the sorted `l` / `r` id arrays; every
    * nbar list has at most k entries because (L, R) is a k-biplex.
    */
  final class SolutionCtx(
      val l: Array[Int],
      val r: Array[Int],
      val nbarR: Array[Array[Int]],   // non-neighbours of r(i) within L, sorted; length δ̄(r(i), L)
      val nbarL: Array[Array[Int]],   // non-neighbours of l(i) within R, sorted
  ) {
    def posR(u: Int): Int = java.util.Arrays.binarySearch(r, u)
    def posL(w: Int): Int = java.util.Arrays.binarySearch(l, w)
  }

  /** Build the context for solution (L, R) in O((|L|+|R|)·(deg+side)). */
  def buildCtx(g: BipartiteGraph, l: Array[Int], r: Array[Int]): SolutionCtx = {
    val nbarR = new Array[Array[Int]](r.length)
    var i = 0
    while (i < r.length) {
      nbarR(i) = VertexSets.diff(l, g.adjR(r(i)))
      i += 1
    }
    val nbarL = new Array[Array[Int]](l.length)
    i = 0
    while (i < l.length) {
      nbarL(i) = VertexSets.diff(r, g.adjL(l(i)))
      i += 1
    }
    new SolutionCtx(l, r, nbarR, nbarL)
  }

  /** The local solutions of the almost-satisfying graph (L∪{v}, R), pulled
    * one at a time: (L' ∪ {v}, R'), both arrays sorted. They can share
    * their right array, so a caller must not write to the arrays; it may
    * keep them. `minRight`, when set, skips candidates whose right side is
    * smaller than the threshold (local-solution pruning for large MBPs,
    * Section 5). Past `deadlineNanos` the iterator may end early, so a
    * caller reads the deadline after the last one. `ctx`, when provided,
    * must be `buildCtx(g, l, r)`: the traversal engine builds it once per
    * solution and shares it across all seeds. The Inflated variant collects
    * the output of one call of the callback-driven [[KPlexEnum]] first.
    */
  def locals(
      g: BipartiteGraph,
      k: Int,
      l: Array[Int],
      r: Array[Int],
      v: Int,
      variant: Variant,
      minRight: Int = 0,
      deadlineNanos: Long = Long.MaxValue,
      ctx: SolutionCtx = null,
  ): Iterator[Solution] = variant match {
    case Inflated => inflatedLocals(g, k, l, r, v, minRight, deadlineNanos)
    case _ =>
      val pruneR = variant == L10R20 || variant == L20R20
      val pruneL = variant == L20R10 || variant == L20R20
      val c = if (ctx != null) ctx else buildCtx(g, l, r)
      refinedLocals(g, k, c, v, pruneR, pruneL, minRight, deadlineNanos)
  }

  /** [[locals]] with a callback: `emit(lWithV, rPrime)` receives each local
    * solution; returning false aborts. Returns false iff `emit` aborted or
    * the deadline has passed. Kept for callers that time one whole call
    * (`itbench`'s replay, E7); the traversal pulls from [[locals]].
    */
  def run(
      g: BipartiteGraph,
      k: Int,
      l: Array[Int],
      r: Array[Int],
      v: Int,
      variant: Variant,
      emit: (Array[Int], Array[Int]) => Boolean,
      minRight: Int = 0,
      deadlineNanos: Long = Long.MaxValue,
      ctx: SolutionCtx = null,
  ): Boolean =
    locals(g, k, l, r, v, variant, minRight, deadlineNanos, ctx).forall(s => emit(s.left, s.right)) &&
      System.nanoTime < deadlineNanos

  // ---------------------------------------------------------------------
  // Refined enumerations (Sections 4.1-4.4)
  // ---------------------------------------------------------------------

  private def refinedLocals(
      g: BipartiteGraph,
      k: Int,
      ctx: SolutionCtx,
      v: Int,
      pruneR: Boolean,
      pruneL: Boolean,
      minRight: Int,
      deadlineNanos: Long,
  ): Iterator[Solution] = {
    val l = ctx.l
    val r = ctx.r
    val adjV = g.adjL(v)
    val rKeep = VertexSets.intersect(adjV, r) // Lemma 4.1: always kept
    val rEnum = VertexSets.diff(r, adjV)
    // Partition of R_enum by δ̄(u, L) (Section 4.2).
    val e1 = rEnum.filter(u => ctx.nbarR(ctx.posR(u)).length <= k - 1)
    val e2 = rEnum.filter(u => ctx.nbarR(ctx.posR(u)).length == k)
    // δ̄(w, R_keep) per left vertex = |nbarL(w) ∩ Γ(v)| (≤ k entries each).
    val dbarKeep = new Array[Int](l.length)
    var i = 0
    while (i < l.length) {
      val nb = ctx.nbarL(i)
      var c = 0
      var j = 0
      while (j < nb.length) {
        if (VertexSets.contains(adjV, nb(j))) c += 1
        j += 1
      }
      dbarKeep(i) = c
      i += 1
    }

    /** Is (L \ lBar ∪ {v}, rKeep ∪ rpp) a local solution? O(k² log). */
    def isLocal(rpp: Array[Int], lBar: Array[Int]): Boolean = {
      // Lemma 4.2 as a filter: with |R''| < k, every vertex of E1 \ R''
      // (and of E2 hit by lBar, handled below) would remain addable.
      if (rpp.length < k && !VertexSets.subsetOf(e1, rpp)) return false
      // (b) u ∈ R'': δ̄(u, L') + 1 ≤ k.
      var a = 0
      while (a < rpp.length) {
        val p = ctx.posR(rpp(a))
        if (ctx.nbarR(p).length - VertexSets.intersectCount(ctx.nbarR(p), lBar) + 1 > k) return false
        a += 1
      }
      // (a) w ∈ L' gaining disconnections from R'': δ̄(w, R') ≤ k.
      a = 0
      while (a < rpp.length) {
        val p = ctx.posR(rpp(a))
        val nw = ctx.nbarR(p)
        var b = 0
        while (b < nw.length) {
          val w = nw(b)
          if (!VertexSets.contains(lBar, w)) {
            // count how many u ∈ rpp disconnect w
            var cnt = 0
            var c2 = 0
            while (c2 < rpp.length) {
              val p2 = ctx.posR(rpp(c2))
              if (VertexSets.contains(ctx.nbarR(p2), w)) cnt += 1
              c2 += 1
            }
            if (dbarKeep(ctx.posL(w)) + cnt > k) return false
          }
          b += 1
        }
        a += 1
      }
      // (c) removed left vertices must not be re-addable.
      a = 0
      while (a < lBar.length) {
        val w = lBar(a)
        val pw = ctx.posL(w)
        // δ̄(w, R') = δ̄(w, R_keep) + |nbarL(w) ∩ rpp|
        val dW = dbarKeep(pw) + VertexSets.intersectCount(ctx.nbarL(pw), rpp)
        if (dW <= k) {
          // w is re-addable unless some u ∈ Γ̄(w) ∩ R' is saturated.
          var blocked = false
          val nb = ctx.nbarL(pw)
          var b = 0
          while (!blocked && b < nb.length) {
            val u = nb(b)
            val inRpp = VertexSets.contains(rpp, u)
            if (inRpp || VertexSets.contains(adjV, u)) { // u ∈ R'
              val p = ctx.posR(u)
              val dU = ctx.nbarR(p).length - VertexSets.intersectCount(ctx.nbarR(p), lBar) +
                (if (inRpp) 1 else 0) // v disconnects u iff u ∈ R''
              if (dU >= k) blocked = true
            }
            b += 1
          }
          if (!blocked) return false
        }
        a += 1
      }
      // (d) with |R''| < k, a vertex u' ∈ E2 \ R'' that lost a
      // disconnection through lBar is re-addable (its left blockers
      // cannot exist: a saturated w ∈ L' would have δ̄(w, R) > k).
      if (rpp.length < k) {
        a = 0
        while (a < lBar.length) {
          val nb = ctx.nbarL(ctx.posL(lBar(a)))
          var b = 0
          while (b < nb.length) {
            val u = nb(b)
            if (!VertexSets.contains(adjV, u) && !VertexSets.contains(rpp, u) &&
                ctx.nbarR(ctx.posR(u)).length == k) return false
            b += 1
          }
          a += 1
        }
      }
      true
    }

    /** The local solutions of one R'' choice, smallest L̄ first. */
    def localsOf(rpp: Array[Int]): Iterator[Solution] = {
      // Violators: members of R'' already at δ̄(u,L) = k (Lemma 4.3).
      val r2pp = rpp.filter(u => ctx.nbarR(ctx.posR(u)).length == k)
      // L_remo = left vertices disconnecting ≥ 1 violator (≤ k² ids).
      var lRemo = VertexSets.empty
      var a = 0
      while (a < r2pp.length) {
        lRemo = VertexSets.union(lRemo, ctx.nbarR(ctx.posR(r2pp(a))))
        a += 1
      }
      val successes = mutable.ArrayBuffer.empty[Array[Int]]
      // R' = R_keep ∪ R'', the right side every local solution of this R''
      // shares.
      val rPrime = VertexSets.union(rKeep, rpp)
      (0 to math.min(r2pp.length, lRemo.length)).iterator
        .flatMap(s => combinations(lRemo, s))
        .filter { lBar =>
          val ok = !(pruneL && successes.exists(VertexSets.subsetOf(_, lBar))) && isLocal(rpp, lBar)
          if (ok) successes += lBar
          ok
        }
        .map(lBar => Solution(localLeft(l, lBar, v), rPrime))
    }

    // R'' enumeration, ascending size then lexicographic.
    (0 to math.min(k, rEnum.length)).iterator
      .flatMap { size =>
        if (size == k || !pruneR) combinations(rEnum, size)
        // Lemma 4.2: a viable R'' with |R''| < k must contain all of E1.
        else if (e1.length <= size) combinations(e2, size - e1.length).map(VertexSets.union(e1, _))
        else Iterator.empty
      }
      .takeWhile(_ => System.nanoTime < deadlineNanos)
      .filter(rpp => rKeep.length + rpp.length >= minRight)
      .flatMap(localsOf)
  }

  // ---------------------------------------------------------------------
  // Inflation baseline (Figure 12's "Inflation")
  // ---------------------------------------------------------------------

  private def inflatedLocals(
      g: BipartiteGraph,
      k: Int,
      l: Array[Int],
      r: Array[Int],
      v: Int,
      minRight: Int,
      deadlineNanos: Long,
  ): Iterator[Solution] = {
    val ls = VertexSets.add(l, v)
    val (inflated, back) = Inflation.inflateSub(g, ls, r)
    val vNew = java.util.Arrays.binarySearch(ls, v)
    val out = mutable.ArrayBuffer.empty[Solution]
    KPlexEnum.enumerate(
      inflated,
      k + 1,
      seed = Array(vNew),
      sink = { s =>
        val rPart = s.filter(_ >= ls.length).map(back)
        if (rPart.length >= minRight) out += Solution(s.filter(_ < ls.length).map(back), rPart)
        true
      },
      deadlineNanos = deadlineNanos,
    )
    out.iterator
  }

  /** L' = (L \ L̄) ∪ {v} in one merge pass, for L̄ ⊆ L and v ∉ L. */
  private def localLeft(l: Array[Int], lBar: Array[Int], v: Int): Array[Int] = {
    val out = new Array[Int](l.length - lBar.length + 1)
    var o = 0
    var j = 0 // next member of lBar
    var vOut = false
    var i = 0
    while (i < l.length) {
      val w = l(i)
      if (j < lBar.length && lBar(j) == w) j += 1
      else {
        if (!vOut && v < w) { out(o) = v; o += 1; vOut = true }
        out(o) = w
        o += 1
      }
      i += 1
    }
    if (!vOut) out(o) = v
    out
  }

  /** Lexicographic size-`s` combinations of a sorted array. */
  private[core] def combinations(arr: Array[Int], s: Int): Iterator[Array[Int]] = {
    if (s == 0) return Iterator.single(VertexSets.empty)
    if (s > arr.length) return Iterator.empty
    new Iterator[Array[Int]] {
      private val idx = Array.range(0, s)
      private var done = false
      def hasNext: Boolean = !done
      def next(): Array[Int] = {
        val out = idx.map(arr(_))
        var i = s - 1
        while (i >= 0 && idx(i) == arr.length - s + i) i -= 1
        if (i < 0) done = true
        else {
          idx(i) += 1
          var j = i + 1
          while (j < s) { idx(j) = idx(j - 1) + 1; j += 1 }
        }
        out
      }
    }
  }
}
