package repro.core

import repro.graph.BipartiteGraph
import scala.collection.mutable

/** Core decompositions of bipartite graphs.
  *
  * The (θ−k)-core pre-reduction of the large-MBP experiments (Section 6.1 /
  * Figure 10): every MBP with both sides ≥ θ lies inside the (θ−k)-core.
  */
object CoreReduction {

  /** Vertices of the (α,β)-core: the maximal induced subgraph where every
    * left vertex has degree ≥ α and every right vertex degree ≥ β.
    * Returns sorted (left ids, right ids).
    */
  def alphaBetaCore(g: BipartiteGraph, alpha: Int, beta: Int): (Array[Int], Array[Int]) = {
    val degL = Array.tabulate(g.nL)(g.degL)
    val degR = Array.tabulate(g.nR)(g.degR)
    val goneL = new Array[Boolean](g.nL)
    val goneR = new Array[Boolean](g.nR)
    val queue = mutable.Queue.empty[(Boolean, Int)] // (isLeft, id)
    for (v <- 0 until g.nL if degL(v) < alpha) { goneL(v) = true; queue += ((true, v)) }
    for (u <- 0 until g.nR if degR(u) < beta) { goneR(u) = true; queue += ((false, u)) }
    while (queue.nonEmpty) {
      val (isLeft, x) = queue.dequeue()
      if (isLeft) {
        g.adjL(x).foreach { u =>
          if (!goneR(u)) {
            degR(u) -= 1
            if (degR(u) < beta) { goneR(u) = true; queue += ((false, u)) }
          }
        }
      } else {
        g.adjR(x).foreach { v =>
          if (!goneL(v)) {
            degL(v) -= 1
            if (degL(v) < alpha) { goneL(v) = true; queue += ((true, v)) }
          }
        }
      }
    }
    ((0 until g.nL).filterNot(goneL).toArray, (0 until g.nR).filterNot(goneR).toArray)
  }
}
