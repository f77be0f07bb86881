package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.BipartiteGraph
import scala.collection.mutable

/** Distributed iTraversal: reverse-search DFS parallelised over the root
  * level of the solution graph.
  *
  * The driver ships part indices with the broadcast graph. A task runs the
  * *same* engine ([[ReverseSearch]]) on its part of the root's seeds
  * (`ReverseSearch.run(part = p, parts = n)`); the engine derives the
  * part's exclusion set from its own seed order, and part 0 reports H0.
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

  /** Parts per default-parallelism slot. More parts balance the tasks
    * better but overlap more: on E9's graph the parts together walk 1.32×,
    * 1.65× and 2.19× the full run's links at 4, 8 and 16 parts. Of 1, 2
    * and 4 per slot, 2 ran E9 fastest on 4 cores (DESIGN §3).
    */
  private val PartsPerSlot = 2

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
    val bcG = spark.sparkContext.broadcast(g)
    val parts = spark.sparkContext.defaultParallelism * PartsPerSlot
    spark.sparkContext
      .parallelize(0 until parts, parts)
      .flatMap { part =>
        val out = mutable.ArrayBuffer.empty[Solution]
        ReverseSearch.run(
          bcG.value, k, TraversalConfig.iTraversal,
          sink = { s => out += s; true },
          deadlineNanos =
            if (deadlineMillis == Long.MaxValue) Long.MaxValue
            else System.nanoTime + (deadlineMillis - System.currentTimeMillis) * 1000000,
          part = part,
          parts = parts,
        )
        out
      }
      .distinct()
      .collect()
      .toSet
  }
}
