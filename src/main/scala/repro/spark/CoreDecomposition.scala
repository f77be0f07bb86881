package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed (α,β)-core decomposition by iterative degree peeling over
  * edge DataFrames.
  *
  * The DataFrame counterpart of [[repro.core.CoreReduction.alphaBetaCore]]
  * for edge lists that do not fit comfortably on the driver; the large-MBP
  * pipeline and the case study run the local implementation. Semantics
  * match the local one, which the tests assert.
  */
object CoreDecomposition {

  /** Edges of the (α,β)-core: every surviving left vertex has degree ≥ α,
    * every surviving right vertex degree ≥ β. Runs peeling rounds until a
    * fixpoint; each round prunes both sides at once.
    */
  def alphaBetaCoreEdges(edges: DataFrame, alpha: Int, beta: Int): DataFrame = {
    var cur = edges.select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
    var curCount = cur.count()
    var changed = true
    while (changed && curCount > 0) {
      val keepL = cur.groupBy("src").agg(count(lit(1)).as("dl")).filter(col("dl") >= alpha).select("src")
      val keepR = cur.groupBy("dst").agg(count(lit(1)).as("dr")).filter(col("dr") >= beta).select("dst")
      val next = cur.join(keepL, "src").join(keepR, "dst").select("src", "dst").cache()
      val nextCount = next.count()
      changed = nextCount != curCount
      cur = next
      curCount = nextCount
    }
    cur
  }

  /** The (d,d)-core (paper's (θ−k)-core). */
  def dCoreEdges(edges: DataFrame, d: Int): DataFrame = alphaBetaCoreEdges(edges, d, d)

  /** Surviving (left ids, right ids) of the (α,β)-core.
    *
    * Note: vertices with degree 0 never survive a core with α,β ≥ 1; for
    * α ≤ 0 or β ≤ 0 isolated vertices of that side would belong to the core
    * but carry no edges — callers that need them must handle the id
    * universe themselves (the local reference does).
    */
  def alphaBetaCoreVertices(edges: DataFrame, alpha: Int, beta: Int): (Array[Int], Array[Int]) = {
    val core = alphaBetaCoreEdges(edges, alpha, beta)
    val ls = core.select("src").distinct().collect().map(_.getLong(0).toInt).sorted
    val rs = core.select("dst").distinct().collect().map(_.getLong(0).toInt).sorted
    (ls, rs)
  }
}
