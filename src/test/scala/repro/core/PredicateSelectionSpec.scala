package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import PredicateSelection._

/** Tests of the §V optimization: objective, submodularity, both greedy
  * algorithms, the best-of-two bound, and budget feasibility.
  */
class PredicateSelectionSpec extends AnyFunSuite with PropSupport {

  private def cl(name: String): Clause = Clause(ExactMatch("k", name))
  private def cand(name: String, sel: Double, cost: Double): Candidate =
    Candidate(cl(name), sel, cost)
  private def q(freq: Double, names: String*): CiaoQuery =
    CiaoQuery(names.map(cl).toVector, freq)

  /** Exhaustive optimum — exponential; only for small test universes. */
  private def selectBruteForce(candidates: Seq[Candidate], queries: Seq[CiaoQuery], budget: Double): Vector[Candidate] = {
    val cands = candidates.distinctBy(_.key).toVector
    require(cands.size <= 20, "brute force limited to 20 candidates")
    var best  = Vector.empty[Candidate]
    var bestF = objective(best, queries)
    for (mask <- 0 until (1 << cands.size)) {
      val subset = cands.zipWithIndex.collect { case (c, i) if (mask & (1 << i)) != 0 => c }
      if (subset.map(_.cost).sum <= budget + 1e-12) {
        val f = objective(subset, queries)
        if (f > bestF) { best = subset; bestF = f }
      }
    }
    best
  }

  /** Submodularity witness f(S)+f(T) − f(S∩T) − f(S∪T); must be ≥ 0 for
    * all S, T (paper §V-B).
    */
  private def submodularityGap(s: Seq[Candidate], t: Seq[Candidate], queries: Seq[CiaoQuery]): Double = {
    val sk    = s.map(_.key).toSet
    val tk    = t.map(_.key).toSet
    val union = (s ++ t).distinctBy(_.key)
    val inter = union.filter(c => sk.contains(c.key) && tk.contains(c.key))
    objective(s, queries) + objective(t, queries) -
      objective(inter, queries) - objective(union, queries)
  }

  // ---- objective f(S) ----

  test("objective of the empty set is 0") {
    assert(objective(Nil, Seq(q(1.0, "a"), q(2.0, "b"))) === 0.0)
  }

  test("objective of one query, one pushed predicate is freq·(1−sel)") {
    val f = objective(Seq(cand("a", 0.25, 1)), Seq(q(2.0, "a")))
    assert(math.abs(f - 2.0 * 0.75) < 1e-12)
  }

  test("objective multiplies selectivities of a query's pushed clauses") {
    val f = objective(Seq(cand("a", 0.5, 1), cand("b", 0.2, 1)), Seq(q(1.0, "a", "b")))
    assert(math.abs(f - (1 - 0.5 * 0.2)) < 1e-12)
  }

  test("objective ignores pushed predicates not in a query") {
    val f = objective(Seq(cand("z", 0.01, 1)), Seq(q(1.0, "a")))
    assert(f === 0.0)
  }

  test("objective sums over queries weighted by frequency") {
    val s = Seq(cand("a", 0.5, 1))
    val f = objective(s, Seq(q(1.0, "a"), q(3.0, "a", "b"), q(1.0, "c")))
    assert(math.abs(f - (0.5 + 3 * 0.5 + 0)) < 1e-12)
  }

  // ---- submodularity (paper §V-B) ----

  private val universeGen: Gen[(Vector[Candidate], Vector[CiaoQuery])] = for {
    nP    <- Gen.choose(2, 8)
    sels  <- Gen.listOfN(nP, Gen.choose(0.0, 1.0))
    nQ    <- Gen.choose(1, 6)
    qs    <- Gen.listOfN(nQ, for {
      k    <- Gen.choose(1, nP)
      idxs <- Gen.pick(k, 0 until nP)
      f    <- Gen.choose(0.1, 3.0)
    } yield (idxs.toVector, f))
  } yield {
    val cands = sels.zipWithIndex.map { case (s, i) => cand(s"p$i", s, 1.0) }.toVector
    val queries = qs.map { case (idxs, f) => CiaoQuery(idxs.map(i => cl(s"p$i")), f) }.toVector
    (cands, queries)
  }

  test("property: f is submodular — f(S)+f(T) ≥ f(S∩T)+f(S∪T)") {
    forAllSamples(for {
      (cands, queries) <- universeGen
      sIdx <- Gen.someOf(cands.indices)
      tIdx <- Gen.someOf(cands.indices)
    } yield (cands, queries, sIdx.toVector, tIdx.toVector), n = 200) {
      case (cands, queries, sIdx, tIdx) =>
        val gap = submodularityGap(sIdx.map(cands), tIdx.map(cands), queries)
        assert(gap >= -1e-9, s"submodularity violated: gap=$gap")
    }
  }

  test("property: f is monotone — adding a predicate never decreases f") {
    forAllSamples(for {
      (cands, queries) <- universeGen
      sIdx <- Gen.someOf(cands.indices)
      add  <- Gen.oneOf(cands.indices)
    } yield (cands, queries, sIdx.toVector, add), n = 200) {
      case (cands, queries, sIdx, add) =>
        val s  = sIdx.map(cands)
        val s2 = (s :+ cands(add)).distinctBy(_.key)
        assert(objective(s2, queries) >= objective(s, queries) - 1e-9)
    }
  }

  // ---- greedy algorithms ----

  test("naive greedy picks the highest-benefit predicate first") {
    val cands   = Vector(cand("a", 0.1, 1.0), cand("b", 0.5, 0.1))
    val queries = Vector(q(1.0, "a"), q(1.0, "b"))
    val sel     = selectNaive(cands, queries, budget = 1.0)
    assert(sel.head.key === cl("a").canonical, "benefit 0.9 beats 0.5 regardless of cost")
  }

  test("ratio greedy picks the highest benefit-per-cost first") {
    val cands   = Vector(cand("a", 0.1, 1.0), cand("b", 0.5, 0.1))
    val queries = Vector(q(1.0, "a"), q(1.0, "b"))
    val sel     = selectRatio(cands, queries, budget = 1.0)
    assert(sel.head.key === cl("b").canonical, "ratio 5.0 beats 0.9")
  }

  test("greedy respects the budget") {
    val cands   = Vector(cand("a", 0.1, 0.6), cand("b", 0.1, 0.6), cand("c", 0.1, 0.6))
    val queries = Vector(q(1.0, "a"), q(1.0, "b"), q(1.0, "c"))
    for (algo <- Seq(selectNaive _, selectRatio _, selectBest _)) {
      val sel = algo(cands, queries, 1.0)
      assert(sel.map(_.cost).sum <= 1.0 + 1e-9)
      assert(sel.size === 1)
    }
  }

  test("zero budget selects nothing (when all costs are positive)") {
    val cands = Vector(cand("a", 0.1, 0.5))
    assert(selectBest(cands, Vector(q(1.0, "a")), 0.0).isEmpty)
  }

  test("large budget selects every useful predicate") {
    val cands   = Vector(cand("a", 0.2, 0.1), cand("b", 0.3, 0.1), cand("c", 0.4, 0.1))
    val queries = Vector(q(1.0, "a"), q(1.0, "b"), q(1.0, "c"))
    assert(selectBest(cands, queries, 100.0).size === 3)
  }

  test("duplicate candidates are deduplicated") {
    val cands   = Vector(cand("a", 0.2, 0.1), cand("a", 0.2, 0.1))
    val queries = Vector(q(1.0, "a"))
    assert(selectBest(cands, queries, 10.0).size === 1)
  }

  test("classic counterexample: naive greedy overpays, ratio fixes it") {
    // a: benefit .9/cost 1.0; b+c: benefit .6+.6=1.2 within the same budget.
    val cands   = Vector(cand("a", 0.1, 1.0), cand("b", 0.4, 0.5), cand("c", 0.4, 0.5))
    val queries = Vector(q(1.0, "a"), q(1.0, "b"), q(1.0, "c"))
    val naive = selectNaive(cands, queries, 1.0)
    val ratio = selectRatio(cands, queries, 1.0)
    assert(objective(ratio, queries) > objective(naive, queries))
    assert(selectBest(cands, queries, 1.0).map(_.key).toSet === ratio.map(_.key).toSet)
  }

  test("ratio greedy can be beaten by naive (best-of-two takes naive)") {
    // Cheap low-benefit predicate crowds out an expensive high-benefit one.
    val cands   = Vector(cand("cheap", 0.99, 0.01), cand("big", 0.01, 1.0))
    val queries = Vector(q(1.0, "cheap"), q(100.0, "big"))
    val naive = selectNaive(cands, queries, 1.0)
    val ratio = selectRatio(cands, queries, 1.0)
    val best  = selectBest(cands, queries, 1.0)
    assert(objective(best, queries) >= math.max(objective(naive, queries), objective(ratio, queries)) - 1e-12)
    assert(best.map(_.key).contains(cl("big").canonical))
  }

  // ---- approximation bound vs brute force ----

  private val smallUniverseGen: Gen[(Vector[Candidate], Vector[CiaoQuery], Double)] = for {
    (cands0, queries) <- universeGen
    costs <- Gen.listOfN(cands0.size, Gen.choose(0.05, 1.0))
    budget <- Gen.choose(0.2, 2.0)
  } yield (cands0.zip(costs).map { case (c, co) => c.copy(cost = co) }, queries, budget)

  test("property: best-of-two ≥ ½(1−1/e)·OPT on small universes") {
    val bound = 0.5 * (1 - 1 / math.E) // ≈ 0.316
    forAllSamples(smallUniverseGen, n = 120) { case (cands, queries, budget) =>
      val opt  = objective(selectBruteForce(cands, queries, budget), queries)
      val got  = objective(selectBest(cands, queries, budget), queries)
      assert(got >= bound * opt - 1e-9, s"got=$got opt=$opt")
    }
  }

  test("property: brute force respects the budget too") {
    forAllSamples(smallUniverseGen, n = 60) { case (cands, queries, budget) =>
      assert(selectBruteForce(cands, queries, budget).map(_.cost).sum <= budget + 1e-9)
    }
  }

  test("candidate validation rejects bad selectivity and cost") {
    intercept[IllegalArgumentException](cand("a", -0.1, 1))
    intercept[IllegalArgumentException](cand("a", 1.1, 1))
    intercept[IllegalArgumentException](cand("a", 0.5, -1))
  }
}
