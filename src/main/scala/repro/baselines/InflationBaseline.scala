package repro.baselines

import repro.core.Solution
import repro.graph.{BipartiteGraph, Inflation}

/** FaPlexen-style baseline (the paper's second baseline).
  *
  * Inflates the bipartite graph into a general graph (cliques on both
  * sides) and enumerates maximal (k+1)-plexes there; a maximal (k+1)-plex
  * of the inflated graph is exactly a maximal k-biplex of the original
  * graph. The inflation step is what makes this baseline run out of memory
  * on large graphs (Marvel: 96K edges → >200M inflated edges), so callers
  * should check [[inflatedEdges]] against a budget first.
  */
object InflationBaseline {

  /** Number of edges the inflated graph would have. */
  def inflatedEdges(g: BipartiteGraph): Long =
    g.numEdges + g.nL.toLong * (g.nL - 1) / 2 + g.nR.toLong * (g.nR - 1) / 2

  /** Enumerate maximal k-biplexes via inflation; false iff aborted. */
  def enumerate(
      g: BipartiteGraph,
      k: Int,
      sink: Solution => Boolean,
      deadlineNanos: Long = Long.MaxValue,
  ): Boolean = {
    val inflated = Inflation.inflate(g)
    KPlexEnum.enumerate(
      inflated,
      k + 1,
      sink = { s =>
        val lPart = s.filter(_ < g.nL)
        val rPart = s.filter(_ >= g.nL).map(_ - g.nL)
        sink(Solution(lPart, rPart))
      },
      deadlineNanos = deadlineNanos,
    )
  }
}
