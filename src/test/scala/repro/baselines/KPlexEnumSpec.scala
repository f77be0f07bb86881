package repro.baselines

import repro.SparkSpec
import repro.graph.{GeneralGraph, VertexSets}
import scala.collection.mutable
import scala.util.Random

class KPlexEnumSpec extends SparkSpec {

  /** Build from an undirected edge list (self-loops rejected, dups dropped). */
  private def fromEdges(n: Int, edges: Iterable[(Int, Int)]): GeneralGraph = {
    val buf = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    edges.foreach { case (a, b) =>
      require(a != b, s"self-loop $a")
      require(a >= 0 && a < n && b >= 0 && b < n, s"edge ($a,$b) out of [0,$n)")
      buf(a) += b
      buf(b) += a
    }
    new GeneralGraph(n, buf.map(b => VertexSets.canonical(b)))
  }

  /** Reference: all maximal k-plexes via subset scan. */
  private def bruteForce(g: GeneralGraph, k: Int): Set[Vector[Int]] = {
    require(g.n <= 16, s"brute force on n=${g.n} too large")
    def isPlex(s: Array[Int]): Boolean =
      s.forall(v => s.length - 1 - VertexSets.intersectCount(g.adj(v), s) <= k - 1)
    val all = (0 until (1 << g.n))
      .map(m => (0 until g.n).filter(i => (m & (1 << i)) != 0).toArray)
      .filter(s => s.nonEmpty && isPlex(s))
    all
      .filter(s => !all.exists(t => t.length > s.length && VertexSets.subsetOf(s, t)))
      .map(_.toVector)
      .toSet
  }

  private def randomGeneral(n: Int, p: Double, seed: Long): GeneralGraph = {
    val rnd = new Random(seed)
    val edges = for (a <- 0 until n; b <- a + 1 until n if rnd.nextDouble() < p) yield (a, b)
    fromEdges(n, edges)
  }

  private def collect(g: GeneralGraph, k: Int, seed: Array[Int] = Array.emptyIntArray): Set[Vector[Int]] = {
    val out = mutable.HashSet.empty[Vector[Int]]
    KPlexEnum.enumerate(g, k, seed, s => { out += s.toVector; true })
    out.toSet
  }

  for (k <- 1 to 3) {
    test(s"matches subset brute force (k=$k)") {
      val rnd = new Random(7000 + k)
      for (i <- 0 until 30) {
        val n = 2 + rnd.nextInt(7)
        val g = randomGeneral(n, 0.2 + rnd.nextDouble() * 0.6, 7100 + k * 100 + i)
        assert(collect(g, k) == bruteForce(g, k), s"n=$n i=$i")
      }
    }
  }

  test("k=1 on a triangle-free graph: maximal 1-plexes are maximal cliques") {
    // A 4-cycle: maximal cliques are its 4 edges.
    val g = fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (3, 0)))
    assert(collect(g, 1) == Set(Vector(0, 1), Vector(1, 2), Vector(2, 3), Vector(0, 3)))
  }

  test("complete graph: single maximal k-plex") {
    val g = fromEdges(5, for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b))
    for (k <- 1 to 2) assert(collect(g, k) == Set(Vector(0, 1, 2, 3, 4)))
  }

  test("edgeless graph: k-plexes are the k-subsets' maximal family") {
    val g = fromEdges(4, Nil)
    // Any set of size <= k is a k-plex; maximal ones have exactly size k.
    for (k <- 1 to 3) {
      val got = collect(g, k)
      assert(got == bruteForce(g, k))
      got.foreach(s => assert(s.size == k))
    }
  }

  test("seeded enumeration returns exactly the maximal plexes containing the seed") {
    val rnd = new Random(7200)
    for (i <- 0 until 20) {
      val n = 3 + rnd.nextInt(6)
      val g = randomGeneral(n, 0.5, 7300 + i)
      val v = rnd.nextInt(n)
      val exp = bruteForce(g, 2).filter(_.contains(v))
      assert(collect(g, 2, Array(v)) == exp, s"i=$i v=$v")
    }
  }

  test("sink=false aborts") {
    val g = randomGeneral(8, 0.5, 7400)
    var n = 0
    val completed = KPlexEnum.enumerate(g, 2, sink = _ => { n += 1; false })
    assert(!completed && n == 1)
  }
}
