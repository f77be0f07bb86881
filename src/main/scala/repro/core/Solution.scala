package repro.core

import repro.graph.VertexSets

/** One (maximal) k-biplex: sorted left ids + sorted right ids.
  *
  * Equality and hash compare the two id arrays, so a solution is its own
  * dedup key: the traversal's visited set (the paper's B-tree) stores
  * solutions directly.
  */
final case class Solution(left: Array[Int], right: Array[Int]) {

  /** Left ids followed by right ids offset by `nL`: equal for two
    * solutions iff they are equal. Kept for `itbench`'s replay of the
    * traversal, which times building it; the engine does not call it.
    */
  def key(nL: Int): Vector[Int] =
    (left.iterator ++ right.iterator.map(_ + nL)).toVector

  def size: Int = left.length + right.length

  /** Sides swapped (for algorithms that run on the flipped graph). */
  def flip: Solution = Solution(right, left)

  override def equals(o: Any): Boolean = o match {
    case s: Solution =>
      java.util.Arrays.equals(left, s.left) && java.util.Arrays.equals(right, s.right)
    case _ => false
  }

  override def hashCode: Int =
    31 * java.util.Arrays.hashCode(left) + java.util.Arrays.hashCode(right)

  override def toString: String =
    s"({${left.mkString(",")}},{${right.mkString(",")}})"
}

object Solution {
  def of(left: Iterable[Int], right: Iterable[Int]): Solution =
    Solution(VertexSets.canonical(left), VertexSets.canonical(right))
}
