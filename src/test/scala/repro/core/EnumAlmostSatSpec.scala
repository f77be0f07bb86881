package repro.core

import repro.{SparkSpec, Sinks, TestGraphs}
import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable
import scala.util.Random

/** EnumAlmostSat: all five implementations against a subset-scan reference. */
class EnumAlmostSatSpec extends SparkSpec {

  /** Reference: all local solutions of (L∪{v}, R) by exhaustive scan. */
  private def naiveLocalSolutions(
      g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int], v: Int): Set[Solution] = {
    val lSubsets = subsets(l)
    val rSubsets = subsets(r)
    val all = for {
      lp <- lSubsets
      rp <- rSubsets
      lFull = VertexSets.add(lp, v)
      if Biplex.isKBiplex(g, k, lFull, rp)
    } yield Solution(lFull, rp)
    all.filter { s =>
      val othersL = VertexSets.diff(l, s.left)
      val othersR = VertexSets.diff(r, s.right)
      othersL.forall(w => !Biplex.isKBiplex(g, k, VertexSets.add(s.left, w), s.right)) &&
      othersR.forall(u => !Biplex.isKBiplex(g, k, s.left, VertexSets.add(s.right, u)))
    }.toSet
  }

  private def subsets(a: Array[Int]): Seq[Array[Int]] =
    (0 until (1 << a.length)).map { m =>
      a.indices.filter(i => (m & (1 << i)) != 0).map(a(_)).toArray
    }

  private def collect(
      g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int], v: Int,
      variant: EnumAlmostSat.Variant): Set[Solution] = {
    val out = mutable.HashSet.empty[Solution]
    EnumAlmostSat.run(g, k, l, r, v, variant, (lf, rp) => { out += Solution(lf, rp); true })
    out.toSet
  }

  /** Sample (solution, outside-vertex) pairs from random small graphs. */
  private def cases(k: Int, seed: Int): Seq[(BipartiteGraph, Array[Int], Array[Int], Int, Long)] = {
    val rnd = new Random(seed)
    TestGraphs.smallBatch(30, maxSide = 5, seed = seed).flatMap { case (g, gseed) =>
      val sols = BruteForce.maximalKBiplexes(g, k).toSeq.sortBy(_.toString)
      if (sols.isEmpty) None
      else {
        val s = sols(rnd.nextInt(sols.length))
        val outside = (0 until g.nL).filter(v => !VertexSets.contains(s.left, v))
        if (outside.isEmpty) None
        else Some((g, s.left, s.right, outside(rnd.nextInt(outside.length)), gseed))
      }
    }
  }

  for (k <- 0 to 2; variant <- EnumAlmostSat.allVariants) {
    // The k-plex enumerator needs k+1 >= 1, fine for k = 0 as well.
    test(s"$variant matches the subset-scan reference (k=$k)") {
      for ((g, l, r, v, seed) <- cases(k, 3000 + k)) {
        val got = collect(g, k, l, r, v, variant)
        val exp = naiveLocalSolutions(g, k, l, r, v)
        assert(got == exp,
          s"seed $seed k=$k v=$v L=${l.toSeq} R=${r.toSeq}:\n got ${got.toSeq.sortBy(_.toString)}\n exp ${exp.toSeq.sortBy(_.toString)}")
      }
    }
  }

  test("all variants agree pairwise on a larger batch (k=1)") {
    for ((g, l, r, v, seed) <- cases(1, 3500)) {
      val results = EnumAlmostSat.allVariants.map(variant => collect(g, 1, l, r, v, variant))
      results.sliding(2).foreach {
        case Seq(a, b) => assert(a == b, s"seed $seed")
        case _         =>
      }
    }
  }

  for (k <- 1 to 2) {
    test(s"admitsRightVertex agrees with Biplex.existsAddableRight on local solutions (k=$k)") {
      var checked = 0
      for ((g, l, r, v, seed) <- cases(k, 3900 + k)) {
        val ctx = EnumAlmostSat.buildCtx(g, l, r)
        EnumAlmostSat.run(g, k, l, r, v, EnumAlmostSat.L20R20, (lf, rp) => {
          assert(ReverseSearch.admitsRightVertex(g, k, ctx, v, lf, rp) ==
            Biplex.existsAddableRight(g, k, lf, rp), s"seed $seed v=$v L'=${lf.toSeq} R'=${rp.toSeq}")
          checked += 1
          true
        }, ctx = ctx)
      }
      assert(checked > 0)
    }
  }

  for (k <- 0 to 3) {
    test(s"with the outside table built, only local solutions the right-shrinking test rejects go (k=$k)") {
      // (MBP, outside seed) pairs, every refined variant; the MBPs come
      // from iTraversal, as graphs large enough for an outside vertex to
      // miss k of |L| > k vertices are beyond brute force at k = 3. The
      // table drops whole R'' choices; what it drops must be rejected by
      // admitsRightVertex, and what it keeps must be the unpruned
      // iterator's output in its order.
      var dropped = 0
      for ((g, seed) <- TestGraphs.smallBatch(60, maxSide = 9, seed = 3950 + k);
           h <- Sinks.collect(ReverseSearch.run(g, k, TraversalConfig.iTraversal, _))._1.toSeq.sortBy(_.toString);
           v <- 0 until g.nL if !VertexSets.contains(h.left, v);
           variant <- EnumAlmostSat.allVariants if variant != EnumAlmostSat.Inflated) {
        val plain = EnumAlmostSat.locals(g, k, h.left, h.right, v, variant).toVector
        val ctx = EnumAlmostSat.buildCtx(g, h.left, h.right)
        ctx.buildOutside(g, k)
        val pruned = EnumAlmostSat.locals(g, k, h.left, h.right, v, variant, ctx = ctx).toVector
        def rejected(s: Solution) = ReverseSearch.admitsRightVertex(g, k, ctx, v, s.left, s.right)
        val clue = s"seed $seed $variant v=$v H=$h"
        assert(plain.filter(pruned.toSet) == pruned, s"$clue: kept ${pruned.filterNot(plain.toSet)}")
        assert(plain.filterNot(pruned.toSet).forall(rejected), s"$clue: dropped a local solution with no addable right vertex")
        dropped += plain.length - pruned.length
      }
      info(s"dropped $dropped local solutions")
      // At k = 0 the table of a maximal solution is empty: a right vertex
      // outside R that sees all of L would extend it.
      if (k == 0) assert(dropped == 0) else assert(dropped > 0, "the table never dropped an R''")
    }
  }

  test("every emitted local solution contains v and is a k-biplex") {
    for ((g, l, r, v, seed) <- cases(2, 3600)) {
      EnumAlmostSat.run(g, 2, l, r, v, EnumAlmostSat.L20R20, (lf, rp) => {
        assert(VertexSets.contains(lf, v), s"seed $seed")
        assert(Biplex.isKBiplex(g, 2, lf, rp), s"seed $seed")
        true
      })
    }
  }

  test("emit=false aborts the enumeration") {
    for ((g, l, r, v, _) <- cases(1, 3700).take(5)) {
      var n = 0
      val completed = EnumAlmostSat.run(g, 1, l, r, v, EnumAlmostSat.L20R20,
        (_, _) => { n += 1; false })
      if (n > 0) assert(!completed)
      assert(n <= 1)
    }
  }

  test("vertices connecting v are kept in every local solution (Lemma 4.1)") {
    for ((g, l, r, v, seed) <- cases(1, 3800)) {
      val rKeep = VertexSets.intersect(g.adjL(v), r)
      EnumAlmostSat.run(g, 1, l, r, v, EnumAlmostSat.L20R20, (_, rp) => {
        assert(VertexSets.subsetOf(rKeep, rp), s"seed $seed")
        true
      })
    }
  }

  test("combinations iterator is exact") {
    val arr = Array(2, 4, 6, 8)
    assert(EnumAlmostSat.combinations(arr, 0).map(_.toSeq).toSeq == Seq(Seq()))
    assert(EnumAlmostSat.combinations(arr, 2).map(_.toSeq).toSeq ==
      Seq(Seq(2, 4), Seq(2, 6), Seq(2, 8), Seq(4, 6), Seq(4, 8), Seq(6, 8)))
    assert(EnumAlmostSat.combinations(arr, 4).map(_.toSeq).toSeq == Seq(Seq(2, 4, 6, 8)))
    assert(EnumAlmostSat.combinations(arr, 5).isEmpty)
  }
}
