package repro.graph

/** Set algebra over sorted, duplicate-free `Array[Int]` vertex sets.
  *
  * Every enumerator in this reproduction represents the sides of a
  * (candidate) solution as sorted int arrays; these primitives keep the
  * inner loops allocation-light and O(n + m) / O(log n): a result is built
  * in a primitive array and trimmed by one copy, never boxed.
  */
object VertexSets {

  /** The canonical empty set. */
  val empty: Array[Int] = Array.emptyIntArray

  /** Sort + dedup an arbitrary collection into canonical form. */
  def canonical(xs: Iterable[Int]): Array[Int] = {
    val a = xs.toArray
    java.util.Arrays.sort(a)
    dedupSorted(a)
  }

  private def dedupSorted(a: Array[Int]): Array[Int] = {
    if (a.length <= 1) return a
    val out = new Array[Int](a.length)
    var i = 0; var n = 0
    while (i < a.length) {
      if (n == 0 || out(n - 1) != a(i)) { out(n) = a(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** Membership via binary search. */
  def contains(set: Array[Int], x: Int): Boolean =
    java.util.Arrays.binarySearch(set, x) >= 0

  /** |a ∩ b| for sorted arrays. When one side is much smaller, binary
    * searches from the small side beat the linear merge (hub adjacency
    * lists vs solution-sized sets are the common case here).
    */
  def intersectCount(a: Array[Int], b: Array[Int]): Int = {
    if (a.length > b.length) return intersectCount(b, a)
    if (a.length.toLong * 16 < b.length) {
      var i = 0; var c = 0
      while (i < a.length) {
        if (java.util.Arrays.binarySearch(b, a(i)) >= 0) c += 1
        i += 1
      }
      return c
    }
    var i = 0; var j = 0; var c = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { c += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    c
  }

  /** a ∩ b for sorted arrays. */
  def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out(n) = a(i); n += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** a \ b for sorted arrays. */
  def diff(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](a.length)
    var i = 0; var j = 0; var n = 0
    while (i < a.length) {
      while (j < b.length && b(j) < a(i)) j += 1
      if (j >= b.length || b(j) != a(i)) { out(n) = a(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** a ∪ b for sorted arrays. */
  def union(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](a.length + b.length)
    var i = 0; var j = 0; var n = 0
    while (i < a.length || j < b.length) {
      if (j >= b.length || (i < a.length && a(i) < b(j))) { out(n) = a(i); i += 1 }
      else if (i >= a.length || b(j) < a(i)) { out(n) = b(j); j += 1 }
      else { out(n) = a(i); i += 1; j += 1 }
      n += 1
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** Insert x into sorted set a (no-op if present). */
  def add(a: Array[Int], x: Int): Array[Int] = {
    val p = java.util.Arrays.binarySearch(a, x)
    if (p >= 0) a
    else {
      val ins = -p - 1
      val out = new Array[Int](a.length + 1)
      System.arraycopy(a, 0, out, 0, ins)
      out(ins) = x
      System.arraycopy(a, ins, out, ins + 1, a.length - ins)
      out
    }
  }

  /** Remove x from sorted set a (no-op if absent). */
  def remove(a: Array[Int], x: Int): Array[Int] = {
    val p = java.util.Arrays.binarySearch(a, x)
    if (p < 0) a
    else {
      val out = new Array[Int](a.length - 1)
      System.arraycopy(a, 0, out, 0, p)
      System.arraycopy(a, p + 1, out, p, a.length - p - 1)
      out
    }
  }

  /** true iff a ⊆ b (both sorted). */
  def subsetOf(a: Array[Int], b: Array[Int]): Boolean = {
    var i = 0; var j = 0
    while (i < a.length) {
      while (j < b.length && b(j) < a(i)) j += 1
      if (j >= b.length || b(j) != a(i)) return false
      i += 1
    }
    true
  }
}
