package repro.core

import repro.SparkSpec
import repro.graph.BipartiteGraph
import scala.collection.mutable

/** Every bipartite graph of one size against brute force. Random samples
  * test the exclusion strategy, whose proof is not available offline; all
  * graphs of a size also cover every left order of each of them.
  */
class ExhaustiveSpec extends SparkSpec {

  private val givenOrder = TraversalConfig.iTraversal.copy(degreeOrder = false)

  private val complete: Seq[(String, TraversalConfig)] = Seq(
    "iTraversal"              -> TraversalConfig.iTraversal,
    "iTraversal(given order)" -> givenOrder,
    "iTraversal-ES"           -> TraversalConfig.iTraversalNoES,
    "bTraversal(L20R20)"      -> TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20),
  )

  /** The solutions one run reports, in order; fails on a repeat. */
  private def reported(name: String)(run: (Solution => Boolean) => EnumStats): Seq[Solution] = {
    val out = mutable.ArrayBuffer.empty[Solution]
    val seen = mutable.HashSet.empty[Solution]
    run { s => assert(seen.add(s), s"$name reports $s twice"); out += s; true }
    out.toSeq
  }

  for ((nL, nR) <- Seq((3, 4), (4, 3))) {
    test(s"every ${nL}x$nR graph: each level, both orders, LargeMbp and the root split are exact (k=0..2)") {
      val cells = nL * nR
      for (mask <- 0 until 1 << cells; k <- 0 to 2) {
        val g = BipartiteGraph.fromEdges(nL, nR,
          (0 until cells).filter(b => (mask >> b & 1) == 1).map(b => (b / nR, b % nR)))
        val exp = BruteForce.maximalKBiplexes(g, k)
        val at = s"graph $mask k=$k"
        for ((name, cfg) <- complete)
          assert(reported(s"$name $at")(ReverseSearch.run(g, k, cfg, _)).toSet == exp, s"$name $at")
        for (thetaL <- 1 to 2; thetaR <- 1 to 2) {
          val large = reported(s"LargeMbp($thetaL, $thetaR) $at")(LargeMbp.enumerate(g, k, thetaL, thetaR, _))
          assert(large.toSet == exp.filter(s => s.left.length >= thetaL && s.right.length >= thetaR),
            s"LargeMbp($thetaL, $thetaR) $at")
        }
        for (cfg <- Seq(TraversalConfig.iTraversal, givenOrder)) {
          val h0 = reported(at)(ReverseSearch.run(g, k, cfg, _)).head
          for (parts <- Seq(2, nL)) {
            val runs = (0 until parts).map(p =>
              reported(s"part $p of $parts $at")(ReverseSearch.run(g, k, cfg, _, part = p, parts = parts)))
            assert(runs.flatten.toSet == exp, s"$parts parts $at")
            assert(runs.head.head == h0 && runs.tail.forall(!_.contains(h0)), s"$parts parts $at: H0 not from part 0 alone")
          }
        }
      }
    }
  }
}
