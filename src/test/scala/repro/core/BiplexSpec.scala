package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.VertexSets
import scala.util.Random

/** k-biplex predicates against definition-level reference implementations. */
class BiplexSpec extends SparkSpec {

  private def naiveAddableL(g: repro.graph.BipartiteGraph, k: Int, v: Int,
                            l: Array[Int], r: Array[Int]): Boolean =
    Biplex.isKBiplex(g, k, VertexSets.add(l, v), r)

  private def naiveAddableR(g: repro.graph.BipartiteGraph, k: Int, u: Int,
                            l: Array[Int], r: Array[Int]): Boolean =
    Biplex.isKBiplex(g, k, l, VertexSets.add(r, u))

  test("dbar counts disconnections") {
    val g = TestGraphs.complete(3, 3)
    assert(Biplex.dbarL(g, 0, Array(0, 1, 2)) == 0)
    val e = TestGraphs.empty(3, 3)
    assert(Biplex.dbarL(e, 0, Array(0, 1, 2)) == 3)
    assert(Biplex.dbarR(e, 1, Array(0, 1)) == 2)
  }

  for (k <- 0 to 3) {
    test(s"addableL/addableR match definition (k=$k)") {
      val rnd = new Random(500 + k)
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 600 + k)) {
        // random k-biplex (L,R): grow greedily from random order
        var l = VertexSets.empty
        var r = VertexSets.empty
        rnd.shuffle((0 until g.nL).toList).foreach { v =>
          if (rnd.nextBoolean() && naiveAddableL(g, k, v, l, r)) l = VertexSets.add(l, v)
        }
        rnd.shuffle((0 until g.nR).toList).foreach { u =>
          if (rnd.nextBoolean() && naiveAddableR(g, k, u, l, r)) r = VertexSets.add(r, u)
        }
        assert(Biplex.isKBiplex(g, k, l, r), s"seed $seed")
        for (v <- 0 until g.nL if !VertexSets.contains(l, v)) {
          assert(Biplex.addableL(g, k, v, l, r) == naiveAddableL(g, k, v, l, r), s"seed $seed v=$v")
        }
        for (u <- 0 until g.nR if !VertexSets.contains(r, u)) {
          assert(Biplex.addableR(g, k, u, l, r) == naiveAddableR(g, k, u, l, r), s"seed $seed u=$u")
        }
        // existsAddableRight agrees with a naive scan
        val naiveExists = (0 until g.nR).exists(u =>
          !VertexSets.contains(r, u) && naiveAddableR(g, k, u, l, r))
        assert(Biplex.existsAddableRight(g, k, l, r) == naiveExists, s"seed $seed")
      }
    }
  }

  test("existsAddableRight matches a scan of addableR on sub-biplexes of MBPs") {
    // Sub-biplexes of maximal ones reach all three branches of the search:
    // a saturated left vertex, none with |L| > k, and |L| <= k.
    val rnd = new Random(1200)
    val branches = Array(0, 0, 0)
    for (k <- 0 to 2; (g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 1250 + k);
         s <- BruteForce.maximalKBiplexes(g, k).toSeq.sortBy(_.toString)) {
      val l = s.left.filter(_ => rnd.nextInt(3) > 0)
      val r = s.right.filter(_ => rnd.nextInt(3) > 0)
      val scan = (0 until g.nR).exists(u => !VertexSets.contains(r, u) && Biplex.addableR(g, k, u, l, r))
      assert(Biplex.existsAddableRight(g, k, l, r) == scan, s"seed $seed k=$k L=${l.toSeq} R=${r.toSeq}")
      if (r.length < g.nR) {
        val branch =
          if (Biplex.saturatedL(g, k, l, r).nonEmpty) 0
          else if (l.length > k) 1
          else 2
        branches(branch) += 1
      }
    }
    assert(branches.forall(_ > 0), s"branch counts ${branches.toSeq}")
  }

  test("extendExcluding reports exclusion iff some x ∈ X is addable after the pass outside X") {
    // Reference first pass: grow (L, R) in ascending id order over the left
    // vertices outside X, by the definition-level addableL.
    val rnd = new Random(1300)
    var excluded = 0
    var kept = 0
    for (k <- 0 to 2; (g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 1350 + k);
         s <- BruteForce.maximalKBiplexes(g, k).toSeq.sortBy(_.toString)) {
      val l = s.left.filter(_ => rnd.nextInt(3) > 0)
      val r = s.right.filter(_ => rnd.nextInt(3) > 0)
      val x = (0 until g.nL).filter(v => !VertexSets.contains(l, v) && rnd.nextInt(3) == 0).toArray
      var first = l
      for (v <- 0 until g.nL if !VertexSets.contains(first, v) && !VertexSets.contains(x, v) &&
             Biplex.addableL(g, k, v, first, r)) first = VertexSets.add(first, v)
      val excludedAddable = x.exists(Biplex.addableL(g, k, _, first, r))
      val what = s"seed $seed k=$k L=${l.toSeq} R=${r.toSeq} X=${x.toSeq}"
      val marks = new Array[Boolean](g.nL)
      x.foreach(marks(_) = true)
      Biplex.extendExcluding(g, k, l, r, marks) match {
        case None =>
          excluded += 1
          assert(excludedAddable, s"$what: reported excluded, but no x is addable to ${first.toSeq}")
        case Some(ext) =>
          kept += 1
          assert(!excludedAddable, s"$what: an x is addable to ${first.toSeq}")
          assert(ext.left.toSeq == first.toSeq && ext.right.toSeq == r.toSeq, s"$what: got $ext")
          assert(Biplex.isKBiplex(g, k, ext.left, r), what)
          for (v <- 0 until g.nL if !VertexSets.contains(ext.left, v) && !VertexSets.contains(x, v))
            assert(!Biplex.addableL(g, k, v, ext.left, r), s"$what: $v still addable to $ext")
      }
    }
    assert(excluded > 0 && kept > 0, s"excluded $excluded, kept $kept")
  }

  for (k <- 0 to 2) {
    test(s"extend produces maximal k-biplexes (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 700 + k)) {
        val s = Biplex.extend(g, k, VertexSets.empty, VertexSets.empty, leftOnly = false)
        assert(Biplex.isKBiplex(g, k, s.left, s.right), s"seed $seed")
        assert(Biplex.isMaximal(g, k, s.left, s.right), s"seed $seed: $s not maximal")
      }
    }

    test(s"extend leftOnly preserves the right side exactly (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(30, maxSide = 6, seed = 800 + k)) {
        val r0 = Array.range(0, g.nR)
        val s = Biplex.extend(g, k, VertexSets.empty, r0, leftOnly = true)
        assert(s.right.toSeq == r0.toSeq, s"seed $seed")
        // No left vertex outside is addable.
        for (v <- 0 until g.nL if !VertexSets.contains(s.left, v)) {
          assert(!Biplex.addableL(g, k, v, s.left, s.right), s"seed $seed v=$v")
        }
      }
    }
  }

  for (k <- 1 to 3) {
    test(s"initialLeftAnchored is a maximal k-biplex with full right side (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 900 + k)) {
        val h0 = Biplex.initialLeftAnchored(g, k)
        assert(h0.right.length == g.nR, s"seed $seed")
        assert(Biplex.isMaximalKBiplex(g, k, h0.left, h0.right), s"seed $seed")
      }
    }

    test(s"initialArbitrary is a maximal k-biplex (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 950 + k)) {
        val h0 = Biplex.initialArbitrary(g, k)
        assert(Biplex.isMaximalKBiplex(g, k, h0.left, h0.right), s"seed $seed")
      }
    }
  }

  test("initialArbitrary on the imdb stand-in is a maximal 1-biplex within 5 s") {
    // Every right-side add-check works on g.flipped; building that view must
    // not rescan the graph, or H0 is quadratic in the vertex count.
    val g = repro.gen.BipartiteGen.dataset("imdb").build()
    val t0 = System.nanoTime
    val h0 = Biplex.initialArbitrary(g, 1)
    val secs = (System.nanoTime - t0) / 1e9
    assert(secs < 5, f"initialArbitrary took $secs%.1f s")
    assert(Biplex.isMaximalKBiplex(g, 1, h0.left, h0.right))
  }

  test("leftCandidates is a superset of the addable left vertices") {
    for (k <- 0 to 2; (g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 1000 + k)) {
      val h0 = Biplex.initialArbitrary(g, k)
      val cands = Biplex.leftCandidates(g, k, h0.left, h0.right).toSet
      for (v <- 0 until g.nL if !VertexSets.contains(h0.left, v)) {
        if (Biplex.isKBiplex(g, k, VertexSets.add(h0.left, v), h0.right))
          assert(cands.contains(v), s"seed $seed: candidate $v missing")
      }
    }
  }

  test("occurrences equals a naive count, called back to back on one thread") {
    // One thread's scratch serves every call: a counter left non-zero by
    // one call, or sized for another universe, would show in a later one.
    val rnd = new Random(1300)
    for (trial <- 0 until 400) {
      val universe = 1 + rnd.nextInt(if (trial % 3 == 0) 5000 else 40)
      val lists = Array.fill(rnd.nextInt(7)) {
        rnd.nextInt(4) match {
          case 0 => VertexSets.empty
          case 1 => VertexSets.canonical(Seq.fill(rnd.nextInt(12))(rnd.nextInt(universe)) :+ (universe - 1))
          case _ => VertexSets.canonical(Seq.fill(rnd.nextInt(12))(rnd.nextInt(universe)))
        }
      }
      for (need <- 1 to lists.length + 2) {
        val got = Biplex.occurrences(lists, need, universe)
        val naive = lists.toSeq.flatMap(_.toSeq).groupBy(identity).view.mapValues(_.size)
          .filter(_._2 >= need).toSeq.sorted
        assert(got.ids.toSeq.zip(got.counts.toSeq) == naive,
          s"trial $trial, universe $universe, need $need, lists ${lists.map(_.mkString("[", ",", "]")).mkString}")
      }
    }
  }

  test("a sink that calls the counting kernel leaves the traversal unchanged") {
    // Two-hop seeds and θ counts come from the kernel and are read across
    // the sink; a kernel that kept them in its scratch would be clobbered
    // by the sink's own call.
    val g = repro.gen.BipartiteGen.er(14, 14, 70, seed = 3)
    for (cfg <- Seq(TraversalConfig.iTraversal.copy(twoHopSeeds = true),
                    TraversalConfig.iTraversal.copy(theta = Some((2, 3)), twoHopSeeds = true))) {
      val plain = scala.collection.mutable.ArrayBuffer.empty[Solution]
      val plainStats = ReverseSearch.run(g, 1, cfg, s => { plain += s; true })
      val seen = scala.collection.mutable.ArrayBuffer.empty[Solution]
      val stats = ReverseSearch.run(g, 1, cfg, { s =>
        val cands = Biplex.leftCandidates(g, 1, s.left, s.right)
        val naive = (0 until g.nL).filter(v =>
          !VertexSets.contains(s.left, v) && Biplex.dbarL(g, v, s.right) <= 1)
        assert(cands.toSeq == naive, s"candidates of $s")
        seen += s
        true
      })
      assert(plain.size > 100, s"only ${plain.size} MBPs")
      assert(seen == plain, cfg)
      assert((stats.links, stats.easCalls, stats.solutions) ==
        (plainStats.links, plainStats.easCalls, plainStats.solutions), cfg)
    }
  }

  test("hereditary property: subgraphs of a k-biplex are k-biplexes") {
    val rnd = new Random(77)
    for (k <- 1 to 2; (g, seed) <- TestGraphs.smallBatch(20, maxSide = 5, seed = 1100 + k)) {
      val h = Biplex.initialArbitrary(g, k)
      val l2 = h.left.filter(_ => rnd.nextBoolean())
      val r2 = h.right.filter(_ => rnd.nextBoolean())
      assert(Biplex.isKBiplex(g, k, l2, r2), s"seed $seed")
    }
  }
}
