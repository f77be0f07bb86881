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

    // The outside table (see buildOutside), flat: outside right vertex
    // outIds(i) misses the left vertices at positions
    // outNbar(outStart(i) until outStart(i + 1)) of `l`. Null until built.
    private[core] var outIds: Array[Int] = null
    private[core] var outStart: Array[Int] = null
    private[core] var outNbar: Array[Int] = null

    /** Builds, at most once, the table of right vertices u ∉ R with
      * δ̄(u, L) ≤ k, each with its at most k non-neighbours in L, from one
      * count over L's adjacency lists. It is empty when |L| ≤ k or R is the
      * whole right side. Only an answer of true from [[Local.admitsRight]]
      * builds it (see [[locals]]).
      */
    private[EnumAlmostSat] def buildOutside(g: BipartiteGraph, k: Int): Unit = if (outIds == null) {
      val hits =
        if (l.length <= k || r.length == g.nR) new Biplex.Occurrences(VertexSets.empty, VertexSets.empty)
        else Biplex.occurrences(Biplex.listsOf(g.adjL, l), l.length - k, g.nR)
      // Every u ∈ R misses at most k of L, so the hits hold all of R.
      val ids = new Array[Int](if (hits.ids.length == 0) 0 else hits.ids.length - r.length)
      val start = new Array[Int](ids.length + 1)
      val nbar = new Array[Int](k * ids.length)
      var n = 0 // entries so far
      var q = 0 // first position of r at or after the current hit
      var i = 0
      while (i < hits.ids.length) {
        val u = hits.ids(i)
        while (q < r.length && r(q) < u) q += 1
        if (q == r.length || r(q) != u) {
          // u misses |L| − count members of L; find them, in order.
          val adj = g.adjR(u)
          val until = start(n) + l.length - hits.counts(i)
          var o = start(n)
          var p = 0
          while (o < until) {
            if (!VertexSets.contains(adj, l(p))) { nbar(o) = p; o += 1 }
            p += 1
          }
          ids(n) = u
          n += 1
          start(n) = o
        }
        i += 1
      }
      outStart = start
      outNbar = nbar
      outIds = ids
    }
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

  /** One local solution (L' ∪ {v}, R'), both arrays sorted; local
    * solutions can share their right array, so a holder must not write to
    * the arrays. `admitsRight` is the right-shrinking test (Algorithm 2
    * line 7), the predicate of [[Biplex.existsAddableRight]], computed on
    * each call.
    */
  final class Local(val left: Array[Int], val right: Array[Int], rightTest: () => Boolean) {
    def admitsRight: Boolean = rightTest()
  }

  /** The local solutions of the almost-satisfying graph (L∪{v}, R), pulled
    * one at a time. `minRight`, when set, skips candidates whose right side
    * is smaller than the threshold (local-solution pruning for large MBPs,
    * Section 5). Past `deadlineNanos` the iterator may end early, so a
    * caller reads the deadline after the last one. `ctx`, when provided,
    * must be `buildCtx(g, l, r)` and be used with one k: the traversal
    * engine builds it once per solution and shares it across all seeds.
    * Once a local solution on ctx has answered `admitsRight` with true, the
    * refined variants skip the R'' choices whose every local solution would
    * too (DESIGN §3), so a caller that never asks gets them all. The
    * Inflated variant collects the output of one call of the
    * callback-driven [[KPlexEnum]] first and never skips.
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
  ): Iterator[Local] = variant match {
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
  ): Iterator[Local] = {
    val l = ctx.l
    val r = ctx.r
    val adjV = g.adjL(v)
    val rKeep = VertexSets.intersect(adjV, r) // Lemma 4.1: always kept
    val rEnum = VertexSets.diff(r, adjV)
    // Partition of R_enum by δ̄(u, L) (Section 4.2), in one pass: E1 below
    // k, E2 at k.
    val (e1, e2) = {
      val below = new Array[Int](rEnum.length)
      val at = new Array[Int](rEnum.length)
      var n1 = 0
      var n2 = 0
      for (u <- rEnum)
        if (ctx.nbarR(ctx.posR(u)).length < k) { below(n1) = u; n1 += 1 } else { at(n2) = u; n2 += 1 }
      (java.util.Arrays.copyOf(below, n1), java.util.Arrays.copyOf(at, n2))
    }

    /** Adds to d(w), per position w of `l`, the members of rs ⊆ R that w
      * misses, and returns d.
      */
    def addMisses(d: Array[Int], rs: Array[Int]): Array[Int] = {
      var a = 0
      while (a < rs.length) {
        val nw = ctx.nbarR(ctx.posR(rs(a)))
        var b = 0
        while (b < nw.length) { d(ctx.posL(nw(b))) += 1; b += 1 }
        a += 1
      }
      d
    }
    // δ̄(w, R_keep) per position w of `l`.
    val dbarKeep = addMisses(new Array[Int](l.length), rKeep)

    // Right-shrinking pruning (DESIGN §3). An outside vertex u of ctx's
    // table is addable to every local solution of an R'' when each of its
    // non-neighbours in L ∪ {v} has δ̄(·, R_keep ∪ R'') < k; every one of
    // them would answer admitsRight with true, so the R'' is skipped. Read
    // once the table exists, `cands` holds the entries that can do this
    // for some R'': an entry e with u ∈ Γ(v) as e, for any R''; one with
    // u ∉ Γ(v) as ~e, only for |R''| < k, because v is then a non-neighbour
    // and δ̄(v, R') = |R''|. An entry with δ̄(u, L ∪ {v}) > k, or with a
    // non-neighbour in L already at k through R_keep, can do it for none.
    var cands: Array[Int] = null
    var nCands = 0

    /** Does every non-neighbour in L of table entry e stay below k under d? */
    def slack(e: Int, d: Array[Int]): Boolean = {
      var j = ctx.outStart(e)
      while (j < ctx.outStart(e + 1) && d(ctx.outNbar(j)) < k) j += 1
      j == ctx.outStart(e + 1)
    }

    def killed(rpp: Array[Int], d: Array[Int]): Boolean = ctx.outIds != null && {
      if (cands == null) {
        cands = new Array[Int](ctx.outIds.length)
        var q = 0 // first position of adjV at or after the current entry's vertex
        var e = 0
        while (e < ctx.outIds.length) {
          while (q < adjV.length && adjV(q) < ctx.outIds(e)) q += 1
          val adjacent = q < adjV.length && adjV(q) == ctx.outIds(e)
          if ((adjacent || ctx.outStart(e + 1) - ctx.outStart(e) < k) && slack(e, dbarKeep)) {
            cands(nCands) = if (adjacent) e else ~e
            nCands += 1
          }
          e += 1
        }
      }
      var found = false
      var c = 0
      while (!found && c < nCands) {
        val e = cands(c)
        found = if (e >= 0) slack(e, d) else rpp.length < k && slack(~e, d)
        c += 1
      }
      found
    }

    /** Is (L \ lBar ∪ {v}, rKeep ∪ rpp) a local solution, with d =
      * δ̄(·, R_keep ∪ rpp) on `l`? O(k² log).
      */
    def isLocal(rpp: Array[Int], lBar: Array[Int], d: Array[Int]): Boolean = {
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
        val nw = ctx.nbarR(ctx.posR(rpp(a)))
        var b = 0
        while (b < nw.length) {
          if (d(ctx.posL(nw(b))) > k && !VertexSets.contains(lBar, nw(b))) return false
          b += 1
        }
        a += 1
      }
      // (c) removed left vertices must not be re-addable.
      a = 0
      while (a < lBar.length) {
        val pw = ctx.posL(lBar(a))
        if (d(pw) <= k) {
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

    /** The right-shrinking test on the local solution (lFull, rPrime) =
      * (L \ lBar ∪ {v}, R_keep ∪ rpp), with d as in isLocal. Its saturated
      * left vertices are the w ∈ L \ lBar with d(w) = k, and v when
      * |R''| = k: v misses exactly R''.
      */
    def admitsRight(lFull: Array[Int], rPrime: Array[Int], rpp: Array[Int], lBar: Array[Int], d: Array[Int]) =
      rPrime.length < g.nR && {
        val sat = new Array[Int](lFull.length)
        var n = 0
        var j = 0 // next member of lBar
        var p = 0
        while (p < l.length) {
          if (j < lBar.length && lBar(j) == l(p)) j += 1
          else if (d(p) == k) { sat(n) = l(p); n += 1 }
          p += 1
        }
        if (rpp.length == k) { sat(n) = v; n += 1 }
        val admits = Biplex.searchAddableRight(g, k, lFull, rPrime, java.util.Arrays.copyOf(sat, n))
        if (admits) ctx.buildOutside(g, k)
        admits
      }

    /** The local solutions of one R'' choice, smallest L̄ first. */
    def localsOf(rpp: Array[Int], d: Array[Int]): Iterator[Local] = {
      // Violators: members of R'' already at δ̄(u, L) = k (Lemma 4.3), and
      // L_remo, the left vertices disconnecting ≥ 1 violator (≤ k² ids).
      var violators = 0
      var lRemo = VertexSets.empty
      var a = 0
      while (a < rpp.length) {
        val nw = ctx.nbarR(ctx.posR(rpp(a)))
        if (nw.length == k) { violators += 1; lRemo = VertexSets.union(lRemo, nw) }
        a += 1
      }
      val successes = mutable.ArrayBuffer.empty[Array[Int]]
      // R' = R_keep ∪ R'', the right side every local solution of this R''
      // shares.
      val rPrime = VertexSets.union(rKeep, rpp)
      (0 to math.min(violators, lRemo.length)).iterator
        .flatMap(s => combinations(lRemo, s))
        .filter { lBar =>
          val ok = !(pruneL && successes.exists(VertexSets.subsetOf(_, lBar))) && isLocal(rpp, lBar, d)
          if (ok) successes += lBar
          ok
        }
        .map { lBar =>
          val lFull = localLeft(l, lBar, v)
          new Local(lFull, rPrime, () => admitsRight(lFull, rPrime, rpp, lBar, d))
        }
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
      .flatMap { rpp =>
        // δ̄(w, R_keep ∪ R'') per position w of `l`: every check of this R''
        // reads it.
        val d = addMisses(dbarKeep.clone(), rpp)
        if (killed(rpp, d)) Iterator.empty else localsOf(rpp, d)
      }
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
  ): Iterator[Local] = {
    val ls = VertexSets.add(l, v)
    val (inflated, back) = Inflation.inflateSub(g, ls, r)
    val vNew = java.util.Arrays.binarySearch(ls, v)
    val out = mutable.ArrayBuffer.empty[Local]
    KPlexEnum.enumerate(
      inflated,
      k + 1,
      seed = Array(vNew),
      sink = { s =>
        val rPart = s.filter(_ >= ls.length).map(back)
        if (rPart.length >= minRight) {
          val lPart = s.filter(_ < ls.length).map(back)
          out += new Local(lPart, rPart, () => Biplex.existsAddableRight(g, k, lPart, rPart))
        }
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
