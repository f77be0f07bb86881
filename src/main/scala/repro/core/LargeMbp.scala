package repro.core

import repro.graph.BipartiteGraph

/** Large-MBP enumeration (Section 5): maximal k-biplexes with |L| ≥ θL and
  * |R| ≥ θR (the paper uses θL = θR = θ; the case study needs them split).
  *
  * Pipeline: core pre-reduction (every large MBP lies inside the
  * (θR−k, θL−k)-core — a left vertex of a large MBP keeps ≥ θR−k
  * neighbours, a right vertex ≥ θL−k — and a large k-biplex maximal in the
  * core is maximal in G because any vertex extending it would itself
  * survive the peeling), then iTraversal on the reduced graph with the
  * Section-5 prunings: almost-satisfying-graph pruning, local-solution
  * pruning, solution pruning and the exclusion-based left-side pruning.
  */
object LargeMbp {

  /** Enumerate large MBPs of g; solutions are reported in original ids.
    *
    * Returns the traversal statistics of the run on the reduced graph.
    */
  def enumerate(
      g: BipartiteGraph,
      k: Int,
      thetaL: Int,
      thetaR: Int,
      sink: Solution => Boolean,
      deadlineNanos: Long = Long.MaxValue,
  ): EnumStats = {
    require(thetaL >= 1 && thetaR >= 1, s"thetas must be positive, got ($thetaL,$thetaR)")
    val (coreL, coreR) = CoreReduction.alphaBetaCore(g, thetaR - k, thetaL - k)
    if (coreL.length < thetaL || coreR.length < thetaR)
      return EnumStats(0, 0, 0, aborted = false)
    val (sub, backL, backR) = g.inducedSubgraph(coreL, coreR)
    // Two-hop seeding is lossless whenever the right-side threshold
    // exceeds k (every large MBP then has |R| > k). The left side keeps the
    // given order: first-N queries go the other way from complete
    // enumeration. On FraudGen seed 1 at θ = (4, 7) the first 1000 large
    // MBPs take 2 662 links in the given order, 125 359 in ascending degree
    // order and 198 284 in degeneracy order.
    val cfg = TraversalConfig.iTraversal.copy(
      theta = Some((thetaL, thetaR)), twoHopSeeds = thetaR > k, degreeOrder = false)
    ReverseSearch.run(
      sub, k, cfg,
      s => sink(Solution(s.left.map(backL), s.right.map(backR))),
      deadlineNanos,
    )
  }
}
