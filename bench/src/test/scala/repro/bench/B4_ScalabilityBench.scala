package repro.bench

import repro.SparkSpec

/** E4 — Figure 9: synthetic ER scalability (paper: 100x+ speedup of
  * iTraversal over bTraversal, iTraversal reaches billion-edge graphs; the
  * speedup narrows as density grows). Scaled sweep: up to 10^6 vertices /
  * 10^7 edges.
  */
class B4_ScalabilityBench extends SparkSpec {

  test("Fig 9(a): vary #vertices at density 10") {
    val table = Experiments.scalability(Seq(10000, 100000, 1000000), densities = Seq(10), k = 1, n = 1000)
    table.rows.foreach { row =>
      assert(row.last.forall(_.isDigit), s"iTraversal did not finish at ${row.head} vertices")
    }
  }

  test("Fig 9(b): vary density at 100000 vertices") {
    val table = Experiments.scalability(Seq(100000), densities = Seq(2, 5, 10, 20), k = 1, n = 1000)
    table.rows.foreach { row =>
      assert(row.last.forall(_.isDigit), s"iTraversal did not finish at density ${row.head}")
    }
  }
}
