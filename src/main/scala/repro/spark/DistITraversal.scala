package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** Distributed iTraversal: reverse-search DFS parallelised over the root
  * level of the solution graph.
  *
  * The driver computes the initial solution H0 = (L0, R_all) that the
  * engine's run starts from ([[ReverseSearch.initial]]; it depends on the
  * run's left order) and ships the left ids outside L0, one per task, with
  * the broadcast graph. A task runs the *same* engine ([[ReverseSearch]])
  * with `rootSeed` set to its id; the engine derives the seed's exclusion
  * set from the root's seed order.
  * Subtrees can overlap (tasks keep only a local visited set), so
  * solutions are deduplicated globally with an RDD `distinct` —
  * correctness is preserved because reachability, not the visited set,
  * defines the solution set.
  *
  * This is the "parallel and distributed implementation" the paper's
  * conclusion calls for and the reproduction hint asks for (RDD-based
  * traversal with pruning over partitions of the root level).
  */
object DistITraversal {

  /** Enumerate all MBPs distributedly and collect them on the driver.
    *
    * `deadlineNanos` is the run's absolute deadline (System.nanoTime
    * scale, as for [[ReverseSearch.run]]); every task stops its traversal
    * at it, so a run past its deadline returns only the MBPs found so far.
    */
  def collectSolutions(
      spark: SparkSession,
      g: BipartiteGraph,
      k: Int,
      deadlineNanos: Long = Long.MaxValue,
  ): Set[Solution] = {
    // nanoTime has no common origin across JVMs: tasks get the deadline as
    // wall-clock time and turn it back into their own nanoTime.
    val deadlineMillis =
      if (deadlineNanos == Long.MaxValue) Long.MaxValue
      else System.currentTimeMillis + (deadlineNanos - System.nanoTime) / 1000000
    val cfg = TraversalConfig.iTraversal
    val h0 = ReverseSearch.initial(g, k, cfg)
    val seeds = (0 until g.nL).filter(v => !VertexSets.contains(h0.left, v))

    val bcG = spark.sparkContext.broadcast(g)
    val slices = math.max(1, math.min(spark.sparkContext.defaultParallelism, seeds.length))
    val found = spark.sparkContext
      .parallelize(seeds, slices)
      .flatMap { v =>
        val out = mutable.ArrayBuffer.empty[Solution]
        ReverseSearch.run(
          bcG.value, k, cfg,
          sink = { s => out += s; true },
          deadlineNanos =
            if (deadlineMillis == Long.MaxValue) Long.MaxValue
            else System.nanoTime + (deadlineMillis - System.currentTimeMillis) * 1000000,
          rootSeed = v,
        )
        out
      }
    found.distinct().collect().toSet + h0
  }
}
