package repro.graph

/** Immutable general (non-bipartite) graph with sorted adjacency arrays.
  *
  * Used by the inflation baselines: a bipartite graph is inflated into a
  * general graph by adding a clique on each side, and maximal (k+1)-plexes
  * are enumerated on the result ([[repro.baselines.KPlexEnum]]).
  */
final class GeneralGraph(val n: Int, val adj: Array[Array[Int]]) extends Serializable {

  /** Number of (undirected) edges. */
  val numEdges: Long = adj.iterator.map(_.length.toLong).sum / 2

  /** Edge test via binary search. */
  def hasEdge(v: Int, u: Int): Boolean = VertexSets.contains(adj(v), u)

  override def toString: String = s"GeneralGraph(n=$n, m=$numEdges)"
}
