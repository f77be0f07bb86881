package repro.baselines

import repro.core.{Biplex, Solution}
import repro.graph.{BipartiteGraph, VertexSets}

/** iMB-style baseline: branch-and-bound set-enumeration of maximal
  * k-biplexes (Sim et al. / Yu et al., the paper's first baseline).
  *
  * Classic include/exclude backtracking for hereditary properties: branch
  * on one candidate vertex at a time, filter candidate and exclusion sets
  * to individually-addable vertices, and emit at leaves with an empty
  * exclusion set. The size-threshold prunings (|L| + |candL| < θ etc.) are
  * the kind of pruning iMB relies on — without a size constraint the
  * algorithm degrades to plain exponential-delay backtracking, which is the
  * behaviour the paper reports.
  *
  * Setting k = 0 enumerates maximal bicliques (used by the case study).
  */
object IMB {

  /** Enumerate maximal k-biplexes with |L| ≥ thetaL and |R| ≥ thetaR.
    *
    * `sink` returning false aborts; returns false iff aborted (by sink or
    * deadline).
    */
  def enumerate(
      g: BipartiteGraph,
      k: Int,
      sink: Solution => Boolean,
      thetaL: Int = 0,
      thetaR: Int = 0,
      deadlineNanos: Long = Long.MaxValue,
  ): Boolean = {

    // Candidate filtering dominates on large graphs; the deadline must be
    // polled inside the filter loops, not only between search steps.
    var timedOut = false
    def filt(arr: Array[Int], pred: Int => Boolean): Array[Int] = {
      val out = new scala.collection.mutable.ArrayBuffer[Int](arr.length)
      var i = 0
      while (i < arr.length && !timedOut) {
        if ((i & 255) == 0 && System.nanoTime >= deadlineNanos) timedOut = true
        else if (pred(arr(i))) out += arr(i)
        i += 1
      }
      out.toArray
    }

    // Search nodes still to visit: (l, r, candL, candR, exclL, exclR). A
    // branch pushes its exclude child under its include child, so the
    // include subtree is searched first.
    val stack = scala.collection.mutable.ArrayBuffer((
      VertexSets.empty, VertexSets.empty,
      Array.range(0, g.nL), Array.range(0, g.nR),
      VertexSets.empty, VertexSets.empty,
    ))
    while (stack.nonEmpty) {
      val (l, r, candL, candR, exclL, exclR) = stack.remove(stack.length - 1)
      if (timedOut || System.nanoTime >= deadlineNanos) return false
      // Size-bound pruning: even taking every candidate cannot reach theta.
      if (l.length + candL.length < thetaL || r.length + candR.length < thetaR) ()
      else if (candL.isEmpty && candR.isEmpty) {
        if (exclL.isEmpty && exclR.isEmpty && l.length >= thetaL && r.length >= thetaR && !sink(Solution(l, r)))
          return false
      } else {
        // Branch on the first candidate, left side first: include it, then
        // exclude it.
        val onLeft = candL.nonEmpty
        val w = if (onLeft) candL(0) else candR(0)
        val restL = if (onLeft) candL.drop(1) else candL
        val restR = if (onLeft) candR else candR.drop(1)
        val l2 = if (onLeft) VertexSets.add(l, w) else l
        val r2 = if (onLeft) r else VertexSets.add(r, w)
        val cL = filt(restL, x => Biplex.addableL(g, k, x, l2, r2))
        val cR = filt(restR, x => Biplex.addableR(g, k, x, l2, r2))
        val eL = filt(exclL, x => Biplex.addableL(g, k, x, l2, r2))
        val eR = filt(exclR, x => Biplex.addableR(g, k, x, l2, r2))
        if (timedOut) return false
        stack += (if (onLeft) (l, r, restL, restR, VertexSets.add(exclL, w), exclR)
                  else (l, r, restL, restR, exclL, VertexSets.add(exclR, w)))
        stack += ((l2, r2, cL, cR, eL, eR))
      }
    }
    true
  }
}
