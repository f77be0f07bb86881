package repro.bench

import repro.SparkSpec
import repro.gen.BipartiteGen

/** E2 — Figure 7: running time to the first 1000 MBPs on the real-dataset
  * stand-ins (paper: iTraversal finishes everywhere; iMB/FaPlexen die on
  * the large datasets; bTraversal scales further but loses by up to 4
  * orders of magnitude).
  */
class B2_RuntimeRealBench extends SparkSpec {

  test("Fig 7(a): all datasets, k=1, first 1000 MBPs") {
    val table = Experiments.runtimeAcrossDatasets(BipartiteGen.catalog.map(_.name), k = 1, n = 1000)
    // iTraversal must produce its 1000 MBPs within budget on every dataset.
    table.rows.foreach { row =>
      assert(row.last.forall(_.isDigit), s"iTraversal did not finish on ${row.head}: ${row.last}")
    }
  }

  test("Fig 7(b): writer, vary k") {
    val table = Experiments.runtimeVary("writer", ks = 1 to 3, ns = Seq(1000))
    table.rows.foreach { row =>
      assert(row.last.forall(_.isDigit), s"iTraversal did not finish for ${row.head}")
    }
  }

  test("Fig 7(d): writer, vary number of returned MBPs") {
    val table = Experiments.runtimeVary("writer", ks = Seq(2), ns = Seq(10, 100, 1000))
    assert(table.rows.size == 3)
  }
}
