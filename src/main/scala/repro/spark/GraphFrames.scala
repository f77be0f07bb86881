package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.BipartiteGraph

/** A local [[BipartiteGraph]] as an edge DataFrame, and the DataFrame
  * statistics of the dataset table (Table 1), validated against DuckDB in
  * the tests.
  *
  * Edge DataFrames use the schema (src BIGINT, dst BIGINT) with src a left
  * id in [0, nL) and dst a right id in [0, nR).
  */
object GraphFrames {

  /** Lift a local graph into an edge DataFrame. */
  def toEdges(spark: SparkSession, g: BipartiteGraph): DataFrame = {
    import spark.implicits._
    g.edges.map { case (v, u) => (v.toLong, u.toLong) }.toSeq.toDF("src", "dst")
  }

  /** One-row dataset summary: edges and distinct endpoints per side. */
  def summary(edges: DataFrame): DataFrame =
    edges.agg(
      count(lit(1)).as("m"),
      countDistinct(col("src")).as("active_l"),
      countDistinct(col("dst")).as("active_r"),
    )
}
