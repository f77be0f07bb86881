package repro.baselines

import repro.graph.{GeneralGraph, VertexSets}

/** Maximal k-plex enumeration on a general graph.
  *
  * A vertex set S is a k-plex iff every v ∈ S has at most k non-neighbours
  * in S *including itself* (deg_S(v) ≥ |S| − k). This is the FaPlexen-style
  * branch-and-bound backtracking enumerator (include/exclude branching with
  * candidate filtering); it is intentionally in the exponential-delay
  * algorithm family the paper compares against, but exact: cross-validated
  * against subset brute force in the tests.
  */
object KPlexEnum {

  /** Enumerate all maximal k-plexes of g containing `seed`.
    *
    * `sink` receives each maximal k-plex (sorted); returning false aborts
    * the enumeration. Returns false iff aborted.
    */
  def enumerate(
      g: GeneralGraph,
      k: Int,
      seed: Array[Int] = VertexSets.empty,
      sink: Array[Int] => Boolean,
      deadlineNanos: Long = Long.MaxValue,
  ): Boolean = {
    require(k >= 1, s"k-plex needs k >= 1, got $k")
    // nbP(x) = number of neighbours of x inside the current P.
    val nbP = new Array[Int](g.n)
    var p = VertexSets.empty

    def addToP(w: Int): Unit = {
      p = VertexSets.add(p, w)
      val nb = g.adj(w)
      var i = 0
      while (i < nb.length) { nbP(nb(i)) += 1; i += 1 }
    }
    def removeFromP(w: Int): Unit = {
      p = VertexSets.remove(p, w)
      val nb = g.adj(w)
      var i = 0
      while (i < nb.length) { nbP(nb(i)) -= 1; i += 1 }
    }

    /** Is P ∪ {c} still a k-plex (c ∉ P)? */
    def feasible(c: Int): Boolean = {
      if (p.length - nbP(c) > k - 1) return false // c's own non-nbs, excl self
      var i = 0
      while (i < p.length) {
        val x = p(i)
        if (p.length - 1 - nbP(x) + (if (g.hasEdge(x, c)) 0 else 1) > k - 1) return false
        i += 1
      }
      true
    }

    def rec(cand: Array[Int], excl: Array[Int]): Boolean = {
      if (System.nanoTime >= deadlineNanos) return false
      if (cand.isEmpty) {
        if (excl.isEmpty) return sink(p) // maximal: nothing addable remains
        return true
      }
      // Domination pruning: an excluded vertex adjacent to every vertex of
      // P ∪ cand stays addable in every descendant (nobody's slack ever
      // shrinks because of it), so no descendant can be maximal.
      var e = 0
      while (e < excl.length) {
        val x = excl(e)
        if (nbP(x) == p.length && cand.forall(c => g.hasEdge(x, c))) return true
        e += 1
      }
      val w = cand(0)
      val rest = cand.drop(1)
      // Branch 1: include w.
      addToP(w)
      val cand1 = rest.filter(feasible)
      val excl1 = excl.filter(feasible)
      val cont = rec(cand1, excl1)
      removeFromP(w)
      if (!cont) return false
      // Branch 2: exclude w (w stays individually addable to P here).
      rec(rest, VertexSets.add(excl, w))
    }

    // Seed with the required vertices; vertices incompatible with them can
    // never appear in a superset (hereditary), so they are dropped.
    var ok = true
    seed.foreach { w =>
      if (ok && !feasible(w)) ok = false
      if (ok) addToP(w)
    }
    if (!ok) return true // required set itself is not a k-plex: empty output
    val others = VertexSets.diff(Array.range(0, g.n), p)
    rec(others.filter(feasible), VertexSets.empty)
  }
}
