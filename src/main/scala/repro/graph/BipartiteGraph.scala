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

  /** Left ids ascending by (degree, id): the sort is stable, so ties keep
    * id order.
    */
  def leftByDegree: Array[Int] = Array.range(0, nL).sortBy(adjL(_).length)

  /** The graph with left vertex `order(i)` renamed i, for a permutation
    * `order` of the left ids. Left lists are shared; each right list is
    * filled by appending new ids in ascending order, so it comes out sorted
    * without a sort: O(n + m).
    */
  def relabelLeft(order: Array[Int]): BipartiteGraph = {
    val newAdjL = order.map(adjL)
    val newAdjR = adjR.map(a => new Array[Int](a.length))
    val filled = new Array[Int](nR)
    var i = 0
    while (i < nL) {
      val nb = newAdjL(i)
      var j = 0
      while (j < nb.length) { val u = nb(j); newAdjR(u)(filled(u)) = i; filled(u) += 1; j += 1 }
      i += 1
    }
    new BipartiteGraph(nL, nR, newAdjL, newAdjR)
  }

  /** All edges as (left, right) pairs, ascending. */
  def edges: Iterator[(Int, Int)] =
    (0 until nL).iterator.flatMap(v => adjL(v).iterator.map(u => (v, u)))

  /** Induced subgraph on (keepL, keepR), with vertex ids compacted.
    * Both keep arrays must be strictly ascending; new ids then follow the
    * old ones in order, so remapped adjacency lists stay sorted.
    *
    * Returns the subgraph plus the maps from new ids back to original ids.
    */
  def inducedSubgraph(keepL: Array[Int], keepR: Array[Int]): (BipartiteGraph, Array[Int], Array[Int]) = {
    def newIds(keep: Array[Int], n: Int): Array[Int] = {
      require(keep.indices.drop(1).forall(i => keep(i - 1) < keep(i)), "keep arrays must be strictly ascending")
      val id = Array.fill(n)(-1)
      keep.indices.foreach(i => id(keep(i)) = i)
      id
    }
    val idL = newIds(keepL, nL)
    val idR = newIds(keepR, nR)
    val newAdjL = keepL.map(v => adjL(v).map(u => idR(u)).filter(_ >= 0))
    val newAdjR = keepR.map(u => adjR(u).map(v => idL(v)).filter(_ >= 0))
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
