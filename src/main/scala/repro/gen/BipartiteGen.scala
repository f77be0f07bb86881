package repro.gen

import repro.graph.BipartiteGraph
import scala.collection.mutable
import scala.util.Random

/** Synthetic bipartite graphs.
  *
  * Two families, mirroring the paper's evaluation:
  *  - Erdös–Rényi bipartite graphs (`er`) for the scalability experiments
  *    (Figure 9: vary #vertices at edge density 10, vary density);
  *  - Zipf-degree graphs (`zipf`) standing in for the KONECT real datasets
  *    of Table 1 (`catalog`), with the same |L|/|R|/|E| *shape* scaled to
  *    the local session (documented substitution — see DESIGN.md).
  *
  * All generators are deterministic in their seed.
  */
object BipartiteGen {

  /** ER bipartite graph: exactly `m` distinct uniform edges (or the maximum
    * possible if m exceeds nL*nR). Dedup is sort-based so generation stays
    * allocation-light at tens of millions of edges.
    */
  def er(nL: Int, nR: Int, m: Long, seed: Long): BipartiteGraph = {
    val rnd = new Random(seed)
    val target = math.min(m, nL.toLong * nR).toInt
    var keys = new Array[Long](0)
    while (keys.length < target) {
      val missing = target - keys.length
      val draw = new Array[Long](keys.length + missing + missing / 8 + 8)
      System.arraycopy(keys, 0, draw, 0, keys.length)
      var i = keys.length
      while (i < draw.length) {
        draw(i) = rnd.nextInt(nL).toLong * nR + rnd.nextInt(nR)
        i += 1
      }
      java.util.Arrays.sort(draw)
      var w = 0
      i = 0
      while (i < draw.length) {
        if (w == 0 || draw(w - 1) != draw(i)) { draw(w) = draw(i); w += 1 }
        i += 1
      }
      keys = java.util.Arrays.copyOfRange(draw, 0, math.min(w, target))
    }
    BipartiteGraph.fromEdges(nL, nR,
      keys.iterator.map(key => ((key / nR).toInt, (key % nR).toInt)).toSeq)
  }

  /** Zipf-degree bipartite graph: endpoints drawn from rank-weight 1/r^alpha
    * distributions on each side; duplicate edges dropped (so |E| can fall
    * slightly short of m on highly skewed settings).
    */
  def zipf(nL: Int, nR: Int, m: Long, alphaL: Double, alphaR: Double, seed: Long): BipartiteGraph = {
    val rnd = new Random(seed)
    val sampL = zipfSampler(nL, alphaL)
    val sampR = zipfSampler(nR, alphaR)
    val seen = new mutable.HashSet[Long]
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    var attempts = 0L
    val maxAttempts = m * 8
    while (edges.length < m && attempts < maxAttempts) {
      val v = sampL(rnd)
      val u = sampR(rnd)
      val key = v.toLong * nR + u
      if (seen.add(key)) edges += ((v, u))
      attempts += 1
    }
    BipartiteGraph.fromEdges(nL, nR, edges)
  }

  /** Inverse-CDF Zipf sampler over ranks 0..n-1. */
  private def zipfSampler(n: Int, alpha: Double): Random => Int = {
    val cum = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += 1.0 / math.pow(i + 1.0, alpha); cum(i) = acc; i += 1 }
    val total = acc
    rnd => {
      val x = rnd.nextDouble() * total
      val p = java.util.Arrays.binarySearch(cum, x)
      val idx = if (p >= 0) p else -p - 1
      math.min(idx, n - 1)
    }
  }

  // ---------------------------------------------------------------------
  // Table-1 dataset catalog (scaled stand-ins for the KONECT graphs)
  // ---------------------------------------------------------------------

  /** One stand-in dataset: the paper's name/category/sizes plus our scaled
    * generation parameters.
    */
  final case class DatasetSpec(
      name: String,
      category: String,
      paperL: Long,
      paperR: Long,
      paperE: Long,
      nL: Int,
      nR: Int,
      m: Long,
      seed: Long,
  ) {
    def build(): BipartiteGraph = zipf(nL, nR, m, 1.0, 1.0, seed)
  }

  /** The ten Table-1 datasets; tiny ones at full scale, large ones scaled
    * 1/10 (Google 1/100) so the full benchmark suite runs locally.
    */
  val catalog: Seq[DatasetSpec] = Seq(
    DatasetSpec("divorce", "HumanSocial",          9L,        50L,       225L,        9,      50,      225L, 11),
    DatasetSpec("cfat",    "Miscellaneous",      100L,       100L,       802L,      100,     100,      802L, 12),
    DatasetSpec("crime",   "Social",             551L,       829L,     1_476L,      551,     829,    1_476L, 13),
    DatasetSpec("opsahl",  "Authorship",       2_865L,     4_558L,    16_910L,    2_865,   4_558,   16_910L, 14),
    DatasetSpec("marvel",  "Collaboration",   19_428L,     6_486L,    96_662L,    1_943,     649,    9_666L, 15),
    DatasetSpec("writer",  "Affiliation",     89_356L,    46_213L,   144_340L,    8_936,   4_621,   14_434L, 16),
    DatasetSpec("actors",  "Affiliation",    392_400L,   127_823L, 1_470_404L,   39_240,  12_782,  147_040L, 17),
    DatasetSpec("imdb",    "Communication",  428_440L,   896_308L, 3_782_463L,   42_844,  89_631,  378_246L, 18),
    DatasetSpec("dblp",    "Authorship",   1_425_813L, 4_000_150L, 8_649_016L,  142_581, 400_015,  864_901L, 19),
    DatasetSpec("google",  "Hyperlink",   17_091_929L, 3_108_141L, 14_693_125L, 170_919,  31_081,  146_931L, 20),
  )

  /** Catalog lookup by name. */
  def dataset(name: String): DatasetSpec =
    catalog.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))
}
