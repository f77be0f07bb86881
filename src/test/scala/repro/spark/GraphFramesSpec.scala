package repro.spark

import repro.{Oracle, SparkSpec, TestGraphs}

class GraphFramesSpec extends SparkSpec {

  test("summary matches DuckDB") {
    val g = TestGraphs.random(20, 10, 0.25, 10004)
    val edges = GraphFrames.toEdges(spark, g)
    Oracle.assertEquivalent(
      GraphFrames.summary(edges),
      "SELECT count(*) AS m, count(DISTINCT src) AS active_l, count(DISTINCT dst) AS active_r FROM edges",
      "edges" -> edges,
    )
  }
}
