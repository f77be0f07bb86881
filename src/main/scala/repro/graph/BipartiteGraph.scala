package repro.graph

import scala.collection.mutable

/** Immutable bipartite graph with sorted adjacency arrays on both sides.
  *
  * Left vertices are `0 until nL`, right vertices are `0 until nR`
  * (independent id spaces). `adjL(v)` lists the right neighbours of left
  * vertex `v` in ascending order; `adjR(u)` the left neighbours of right
  * vertex `u`. The structure is `Serializable` so it can be broadcast to
  * Spark executors by [[repro.spark.DistITraversal]].
  */
final class BipartiteGraph(
    val nL: Int,
    val nR: Int,
    val adjL: Array[Array[Int]],
    val adjR: Array[Array[Int]],
) extends Serializable {

  /** Number of edges. Lazy so that constructing a graph (in particular a
    * [[flipped]] view, built on every right-side add-check) costs O(1).
    */
  lazy val numEdges: Long = adjL.iterator.map(_.length.toLong).sum

  /** Degree of left vertex v. */
  def degL(v: Int): Int = adjL(v).length

  /** Degree of right vertex u. */
  def degR(u: Int): Int = adjR(u).length

  /** Edge test via binary search on the smaller endpoint's list. */
  def hasEdge(v: Int, u: Int): Boolean =
    if (adjL(v).length <= adjR(u).length) VertexSets.contains(adjL(v), u)
    else VertexSets.contains(adjR(u), v)

  /** The graph with the two sides swapped (no copying of adjacency data). */
  def flipped: BipartiteGraph = new BipartiteGraph(nR, nL, adjR, adjL)

  /** All edges as (left, right) pairs, ascending. */
  def edges: Iterator[(Int, Int)] =
    (0 until nL).iterator.flatMap(v => adjL(v).iterator.map(u => (v, u)))

  /** Induced subgraph on (keepL, keepR), with vertex ids compacted.
    *
    * Returns the subgraph plus the maps from new ids back to original ids.
    */
  def inducedSubgraph(keepL: Array[Int], keepR: Array[Int]): (BipartiteGraph, Array[Int], Array[Int]) = {
    val mapL = new mutable.HashMap[Int, Int]
    val mapR = new mutable.HashMap[Int, Int]
    keepL.zipWithIndex.foreach { case (v, i) => mapL(v) = i }
    keepR.zipWithIndex.foreach { case (u, i) => mapR(u) = i }
    val newAdjL = keepL.map { v =>
      adjL(v).collect { case u if mapR.contains(u) => mapR(u) }.sorted
    }
    val newAdjR = keepR.map { u =>
      adjR(u).collect { case v if mapL.contains(v) => mapL(v) }.sorted
    }
    (new BipartiteGraph(keepL.length, keepR.length, newAdjL, newAdjR), keepL, keepR)
  }

  override def toString: String = s"BipartiteGraph(nL=$nL, nR=$nR, m=$numEdges)"
}

object BipartiteGraph {

  /** Build from an edge list; duplicates are dropped, ids must be in range. */
  def fromEdges(nL: Int, nR: Int, edges: Iterable[(Int, Int)]): BipartiteGraph = {
    val bufL = Array.fill(nL)(new mutable.ArrayBuffer[Int]())
    edges.foreach { case (v, u) =>
      require(v >= 0 && v < nL, s"left id $v out of [0,$nL)")
      require(u >= 0 && u < nR, s"right id $u out of [0,$nR)")
      bufL(v) += u
    }
    val adjL = bufL.map(b => VertexSets.canonical(b))
    val bufR = Array.fill(nR)(new mutable.ArrayBuffer[Int]())
    for (v <- 0 until nL; u <- adjL(v)) bufR(u) += v
    val adjR = bufR.map(_.toArray) // already ascending: v iterated in order
    new BipartiteGraph(nL, nR, adjL, adjR)
  }
}
