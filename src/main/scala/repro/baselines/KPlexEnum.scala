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

    // Seed with the required vertices; vertices incompatible with them can
    // never appear in a superset (hereditary), so they are dropped.
    var ok = true
    seed.foreach { w =>
      if (ok && !feasible(w)) ok = false
      if (ok) addToP(w)
    }
    if (!ok) return true // required set itself is not a k-plex: empty output
    val others = VertexSets.diff(Array.range(0, g.n), p)
    // Search nodes still to visit: (cand, excl, w). A node with w ≥ 0 is
    // the exclude branch of w, and w leaves P before it is visited. A
    // branch pushes it under the include branch, which has w in P.
    val stack = scala.collection.mutable.ArrayBuffer((others.filter(feasible), VertexSets.empty, -1))
    while (stack.nonEmpty) {
      val (cand, excl, w0) = stack.remove(stack.length - 1)
      if (w0 >= 0) removeFromP(w0)
      if (System.nanoTime >= deadlineNanos) return false
      if (cand.isEmpty) {
        if (excl.isEmpty && !sink(p)) return false // maximal: nothing addable remains
      }
      // Domination pruning: an excluded vertex adjacent to every vertex of
      // P ∪ cand stays addable in every descendant (nobody's slack ever
      // shrinks because of it), so no descendant can be maximal.
      else if (!excl.exists(x => nbP(x) == p.length && cand.forall(c => g.hasEdge(x, c)))) {
        val w = cand(0)
        val rest = cand.drop(1)
        // The exclude branch: w stays individually addable to P there.
        stack += ((rest, VertexSets.add(excl, w), w))
        addToP(w)
        stack += ((rest.filter(feasible), excl.filter(feasible), -1))
      }
    }
    true
  }
}
