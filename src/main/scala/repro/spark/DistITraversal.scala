package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** Distributed iTraversal: reverse-search DFS parallelised over the root
  * level of the solution graph.
  *
  * The driver computes the initial solution H0 = (L0, R_all) and the list
  * of root seeds (left vertices outside L0, in the order the sequential
  * algorithm would process them), and broadcasts it with the graph. Task i
  * is seed i; its exclusion-set snapshot is the seeds before it, sliced
  * from the broadcast list on the executor, so the driver holds O(nL)
  * ints rather than O(nL²). Executors run the *same* engine
  * ([[ReverseSearch]]) on the broadcast graph, restricted to their seed's
  * root subtree. Subtrees can overlap (tasks keep only a local visited
  * set), so solutions are deduplicated globally with a DataFrame
  * `distinct` — correctness is preserved because reachability, not the
  * visited set, defines the solution set.
  *
  * This is the "parallel and distributed implementation" the paper's
  * conclusion calls for and the reproduction hint asks for (RDD-based
  * traversal with pruning over partitions of the root level).
  */
object DistITraversal {

  /** Enumerate all MBPs distributedly; returns a DataFrame with columns
    * (left: array<int>, right: array<int>), globally deduplicated.
    *
    * `maxPerTask` bounds the number of solutions any one task reports
    * (0 = unbounded) — the distributed analogue of "first N MBPs".
    * `deadlineNanos` is the run's absolute deadline (System.nanoTime
    * scale, as for [[ReverseSearch.run]]); every task stops its traversal
    * at it, so a run past its deadline returns only the MBPs found so far.
    */
  def enumerate(
      spark: SparkSession,
      g: BipartiteGraph,
      k: Int,
      maxPerTask: Int = 0,
      deadlineNanos: Long = Long.MaxValue,
  ): DataFrame = {
    import spark.implicits._
    // nanoTime has no common origin across JVMs: tasks get the deadline as
    // wall-clock time and turn it back into their own nanoTime.
    val deadlineMillis =
      if (deadlineNanos == Long.MaxValue) Long.MaxValue
      else System.currentTimeMillis + (deadlineNanos - System.nanoTime) / 1000000
    val h0 = Biplex.initialLeftAnchored(g, k)

    // Root seeds in sequential order.
    val seeds = (0 until g.nL).filter(v => !VertexSets.contains(h0.left, v)).toArray

    val bcG = spark.sparkContext.broadcast(g)
    val bcSeeds = spark.sparkContext.broadcast(seeds)
    val slices = math.max(1, math.min(spark.sparkContext.defaultParallelism, seeds.length))
    val found = spark.sparkContext
      .parallelize(seeds.indices, slices)
      .flatMap { i =>
        val graph = bcG.value
        val all = bcSeeds.value
        val out = mutable.ArrayBuffer.empty[(Seq[Int], Seq[Int])]
        var n = 0
        ReverseSearch.run(
          graph, k, TraversalConfig.iTraversal,
          sink = { s =>
            out += ((s.left.toSeq, s.right.toSeq))
            n += 1
            maxPerTask <= 0 || n < maxPerTask
          },
          deadlineNanos =
            if (deadlineMillis == Long.MaxValue) Long.MaxValue
            else System.nanoTime + (deadlineMillis - System.currentTimeMillis) * 1000000,
          rootRestrict = Some(ReverseSearch.RootRestrict(Array(all(i)), all.take(i))),
        )
        out
      }
    val df = found.toDF("left", "right")
    val root = Seq((h0.left.toSeq, h0.right.toSeq)).toDF("left", "right")
    df.union(root).distinct()
  }

  /** Collect the distributed result as a solution set. */
  def collectSolutions(
      spark: SparkSession,
      g: BipartiteGraph,
      k: Int,
      deadlineNanos: Long = Long.MaxValue,
  ): Set[Solution] =
    enumerate(spark, g, k, deadlineNanos = deadlineNanos)
      .collect()
      .map { r =>
        Solution.of(r.getSeq[Int](0), r.getSeq[Int](1))
      }
      .toSet
}
