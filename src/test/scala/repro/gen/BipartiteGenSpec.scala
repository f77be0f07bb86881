package repro.gen

import repro.SparkSpec

class BipartiteGenSpec extends SparkSpec {

  test("er produces exactly m distinct edges within bounds") {
    val g = BipartiteGen.er(30, 20, 100, seed = 1)
    assert(g.numEdges == 100)
    assert(g.nL == 30 && g.nR == 20)
    assert(g.edges.toSeq.distinct.size == 100)
  }

  test("er caps at the complete graph") {
    val g = BipartiteGen.er(3, 3, 100, seed = 2)
    assert(g.numEdges == 9)
  }

  test("er is deterministic in the seed") {
    val a = BipartiteGen.er(20, 20, 80, seed = 3)
    val b = BipartiteGen.er(20, 20, 80, seed = 3)
    val c = BipartiteGen.er(20, 20, 80, seed = 4)
    assert(a.edges.toSeq == b.edges.toSeq)
    assert(a.edges.toSeq != c.edges.toSeq)
  }

  test("zipf hits the target edge count on mild skew and is deterministic") {
    val a = BipartiteGen.zipf(200, 200, 1000, 1.0, 1.0, seed = 5)
    val b = BipartiteGen.zipf(200, 200, 1000, 1.0, 1.0, seed = 5)
    assert(a.numEdges == 1000)
    assert(a.edges.toSeq == b.edges.toSeq)
  }

  test("zipf skews degrees toward low ranks") {
    val g = BipartiteGen.zipf(500, 500, 3000, 1.2, 1.2, seed = 6)
    val topDeg = (0 until 10).map(g.degL).sum
    val bottomDeg = (490 until 500).map(g.degL).sum
    assert(topDeg > bottomDeg * 2, s"top=$topDeg bottom=$bottomDeg")
  }

  test("catalog covers the ten Table-1 datasets with plausible shapes") {
    assert(BipartiteGen.catalog.size == 10)
    assert(BipartiteGen.catalog.map(_.name) ==
      Seq("divorce", "cfat", "crime", "opsahl", "marvel", "writer", "actors", "imdb", "dblp", "google"))
    // Scale ratios: the stand-in keeps the paper's |L|:|R| ordering.
    BipartiteGen.catalog.foreach { d =>
      assert(d.nL > 0 && d.nR > 0 && d.m > 0)
      assert((d.paperL > d.paperR) == (d.nL > d.nR), s"${d.name}: side ratio flipped")
    }
  }

  test("small catalog datasets build with the spec'd sizes") {
    for (name <- Seq("divorce", "cfat", "crime")) {
      val spec = BipartiteGen.dataset(name)
      val g = spec.build()
      assert(g.nL == spec.nL && g.nR == spec.nR)
      assert(g.numEdges >= spec.m * 9 / 10, s"$name: only ${g.numEdges} of ${spec.m} edges")
    }
  }

  test("dataset lookup fails on unknown names") {
    intercept[RuntimeException] { BipartiteGen.dataset("nope") }
  }
}
