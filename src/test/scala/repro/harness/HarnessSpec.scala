package repro.harness

import java.nio.file.Files

import repro.SparkSpec
import repro.core._
import repro.workload._

/** End-to-end harness tests at tiny scale: correctness of every budget
  * point (counts equal ground truth), coverage-driven partial loading, and
  * monotonicity of selection in the budget.
  */
class HarnessSpec extends SparkSpec {

  private def tmpDir(): String = Files.createTempDirectory("harness").toString

  private lazy val bundle = Harness.bundle("yelp", rows = 2000)

  private lazy val workload =
    WorkloadGen.generate(bundle.pool.map(_.clause), nQueries = 30, expectedPreds = 3.0,
      WorkloadGen.Zipfian(1.5), seed = 21)

  private lazy val execQueries = workload.take(8)

  test("bundle carries calibrated, positive cost coefficients") {
    val co = bundle.coeffs
    // The intercept can be slightly negative on a fast machine; the length
    // terms must make total costs positive for the pool's patterns.
    val costs = Harness.candidates(bundle, workload).map(_.cost)
    assert(costs.forall(_ > 0.0))
    assert(co.toSeq.exists(_ != 0.0))
  }

  test("candidates are deduplicated across queries and sized sanely") {
    val cands = Harness.candidates(bundle, workload)
    assert(cands.map(_.key).distinct.size === cands.size)
    assert(cands.size <= workload.flatMap(_.clauses).size)
    cands.foreach { c => assert(c.sel >= 0.0 && c.sel <= 1.0) }
  }

  test("zero budget selects nothing and loads everything") {
    val r = Harness.run(spark, bundle, workload, execQueries, budget = 0.0,
      storeDir = tmpDir(), chunkSize = 500)
    assert(r.nSelected === 0)
    assert(!r.partialEnabled)
    assert(r.loadedRatio === 1.0)
    assert(r.counts === Harness.expectedCounts(bundle.dataset.lines, execQueries))
  }

  test("with budget, counts still equal ground truth (no false negatives e2e)") {
    for (budget <- Seq(0.1, 0.5, 2.0)) {
      val r = Harness.run(spark, bundle, workload, execQueries, budget,
        storeDir = tmpDir(), chunkSize = 500)
      assert(r.counts === Harness.expectedCounts(bundle.dataset.lines, execQueries),
        s"budget=$budget selected=${r.nSelected} partial=${r.partialEnabled}")
    }
  }

  test("selection grows with the budget") {
    val sizes = Seq(0.05, 0.2, 1.0, 5.0).map { b =>
      Harness.run(spark, bundle, workload, execQueries.take(1), b, tmpDir(), 500).nSelected
    }
    assert(sizes === sizes.sorted, s"sizes=$sizes")
    assert(sizes.last > sizes.head)
  }

  test("budget is respected by the selected set's modeled cost") {
    val budget = 0.3
    val r = Harness.run(spark, bundle, workload, execQueries.take(1), budget, tmpDir(), 500)
    assert(r.selected.map(_.cost).sum <= budget + 1e-9)
  }

  test("partial loading activates when the pushed set covers the workload") {
    // Force-push one clause per query's first predicate: full coverage.
    val cover = workload.map(_.clauses.head).distinctBy(_.canonical)
    val r = Harness.run(spark, bundle, workload, execQueries, budget = 99.0,
      storeDir = tmpDir(), chunkSize = 500, forceSelected = Some(cover))
    assert(r.partialEnabled)
    assert(r.loadedRatio < 1.0)
    assert(r.counts === Harness.expectedCounts(bundle.dataset.lines, execQueries))
  }

  test("uncovered workload falls back to full load but still skips") {
    // Pick a clause that provably does NOT appear in every query (the
    // Zipfian head predicate can legitimately cover the whole workload).
    val counts = workload.flatMap(_.clauses.map(_.canonical))
      .groupBy(identity).view.mapValues(_.size).toMap
    val rare = workload.flatMap(_.clauses).minBy(cl => counts(cl.canonical))
    val one  = Vector(rare)
    val r = Harness.run(spark, bundle, workload, execQueries, budget = 99.0,
      storeDir = tmpDir(), chunkSize = 500, forceSelected = Some(one))
    assert(!r.partialEnabled)
    assert(r.loadedRatio === 1.0)
    assert(r.counts === Harness.expectedCounts(bundle.dataset.lines, execQueries))
  }

  test("prefilter time is reported when predicates are pushed") {
    val r = Harness.run(spark, bundle, workload, execQueries.take(1), budget = 1.0, tmpDir(), 500)
    if (r.nSelected > 0) assert(r.prefilterMs > 0.0)
    assert(r.loadMs > 0.0)
    assert(r.perQueryMs.size === 1)
    assert(r.e2eMs >= r.loadMs)
  }

  test("expectedCounts agrees with a direct typed filter") {
    val q = CiaoQuery(Vector(Clause(KeyValueMatch("stars", "5"))))
    val expected = bundle.dataset.lines.count(l =>
      repro.json.JsonParser.parseObject(l).get("stars").contains(repro.json.JNum("5")))
    assert(Harness.expectedCounts(bundle.dataset.lines, Vector(q)) === Vector(expected.toLong))
  }

  test("the calibration design has exact sel and a 3 × 3 length grid, so OLS recovers known coefficients") {
    val samples = Harness.calibrationSamples(bundle.dataset.lines, bundle.pool)
    assert(samples.forall(s => s.sel == 0.0 || s.sel == 1.0), samples.map(_.sel).distinct)
    assert(samples.map(_.lenT).distinct.size >= 3)
    assert(samples.map(_.lenP).distinct.size >= 3)
    val known = CostModel.Coeffs(k1 = 0.0003, k2 = 0.0001, k3 = 0.00002, k4 = 0.0002, c = 0.004)
    val fit = CostModel.calibrate(samples.map(s =>
      s.copy(measuredMicros = CostModel.estimateSearch(known, s.sel, s.lenP, s.lenT))))
    known.toSeq.zip(fit.toSeq).foreach { case (e, g) => assert(math.abs(e - g) < 1e-9, s"expected $e got $g") }
  }

  test("measureSearch returns plausible per-object costs") {
    val lines = bundle.dataset.lines.take(500)
    val s     = Harness.measureSearch(lines, "delicious", bundle.avgLen)
    assert(s.measuredMicros > 0.0 && s.measuredMicros < 50.0, s"got ${s.measuredMicros}µs")
    assert(s.sel >= 0.0 && s.sel <= 1.0)
    assert(s.lenP === 9.0)
  }
}
