package repro.harness

import java.io.File
import java.nio.file.Files
import java.util.Random

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.server.{ChunkStore, PartialLoader}
import repro.workload._

/** Experiment drivers, one per evaluation artifact of the paper (§VII).
  * Each returns structured rows (asserted by `bench/`) and has a formatter
  * (printed by `jobs/` and the bench suites into EXPERIMENTS.md-style
  * tables).
  */
object Experiments {

  /** Chunk size for experiment runs. The paper's clients ship ~1k-object
    * chunks of multi-GB datasets, amortizing the per-chunk fixed cost
    * (Parquet writer open/close) to nothing; at bench scale (~10⁴-10⁵ rows)
    * larger chunks restore the same amortization so per-row costs, not
    * file-count constants, dominate the measured loading times.
    */
  val ChunkSize: Int = 4000

  /** Run `f` on a fresh temporary store directory, deleted once `f` returns. */
  private def withStore[A](prefix: String)(f: String => A): A = {
    val dir = Files.createTempDirectory(prefix).toString
    try f(dir) finally ChunkStore.deleteRecursively(new File(dir))
  }

  /** Warm up the load path (JSON parse, Parquet writer classloading) and the
    * Spark query path before any timed run, so the first measured baseline
    * is not inflated by JIT/classloading (§VII measurements are steady-state).
    */
  private def warmup(spark: SparkSession, b: Harness.Bundle): Unit = {
    val lines  = b.dataset.lines.take(2000)
    val chunks = repro.client.ClientFilter.chunk(lines, 1000)
    withStore("warmup") { dir =>
      PartialLoader.loadFull(dir, b.dataset.schema, chunks, chunks.map(_ => Map.empty[Int, BitVec]),
        ChunkStore.Registry(Vector.empty))
      spark.read.format("ciao").load(dir).count()
    }
    ()
  }

  // ===================================================================
  // End-to-end experiments (Figs. 3/4/5): budget sweep × workloads A/B/C
  // ===================================================================

  /** One budget point of one workload on one dataset. */
  final case class E2ERow(
      dataset: String, workload: String, budget: Double,
      nSelected: Int, partial: Boolean, loadedRatio: Double,
      prefilterMs: Double, loadMs: Double, queryMs: Double, e2eMs: Double,
      loadSpeedup: Double, querySpeedup: Double, e2eSpeedup: Double,
  )

  /** Run the §VII-D experiment for one dataset: workloads A/B/C (Table III)
    * under a budget sweep; budget 0 is the baseline (no optimization).
    * `nExec` queries of each workload are executed on Spark (DESIGN.md §3).
    */
  def endToEnd(spark: SparkSession, datasetName: String, rows: Int,
               budgets: Seq[Double], nQueries: Int = 200, nExec: Int = 20,
               seed: Long = 7L, verifyCounts: Boolean = false): Vector[E2ERow] = {
    val b         = Harness.bundle(datasetName, rows)
    warmup(spark, b)
    val workloads = WorkloadGen.tableIII(b.pool.map(_.clause), nQueries, seed)
    val out = Vector.newBuilder[E2ERow]
    for (label <- Seq("A", "B", "C")) {
      val (queries, _) = workloads(label)
      val exec = queries.take(nExec)
      val expected = if (verifyCounts) Harness.expectedCounts(b.dataset.lines, exec) else Vector.empty
      val baseline = withStore("e2e")(dir => Harness.run(spark, b, queries, exec, 0.0, dir, chunkSize = ChunkSize))
      for (budget <- budgets) {
        val r = if (budget == 0.0) baseline
                else withStore("e2e")(dir => Harness.run(spark, b, queries, exec, budget, dir, chunkSize = ChunkSize))
        if (verifyCounts) require(r.counts == expected,
          s"count mismatch for $datasetName/$label at budget $budget")
        out += E2ERow(datasetName, label, budget,
          r.nSelected, r.partialEnabled, r.loadedRatio,
          r.prefilterMs, r.loadMs, r.queryMs, r.e2eMs,
          loadSpeedup  = baseline.loadMs / math.max(r.loadMs, 1e-9),
          querySpeedup = baseline.queryMs / math.max(r.queryMs, 1e-9),
          e2eSpeedup   = baseline.e2eMs / math.max(r.e2eMs, 1e-9))
      }
    }
    out.result()
  }

  def formatE2E(rows: Seq[E2ERow]): String = {
    val header = f"${"dataset"}%-8s ${"wl"}%-3s ${"budget"}%7s ${"#sel"}%5s ${"partial"}%8s ${"ratio"}%6s " +
      f"${"prefilt(ms)"}%12s ${"load(ms)"}%9s ${"query(ms)"}%10s ${"e2e(ms)"}%9s ${"load×"}%7s ${"query×"}%7s ${"e2e×"}%7s"
    val body = rows.map { r =>
      f"${r.dataset}%-8s ${r.workload}%-3s ${r.budget}%7.2f ${r.nSelected}%5d ${r.partial}%8s ${r.loadedRatio}%6.3f " +
        f"${r.prefilterMs}%12.1f ${r.loadMs}%9.1f ${r.queryMs}%10.1f ${r.e2eMs}%9.1f " +
        f"${r.loadSpeedup}%7.2f ${r.querySpeedup}%7.2f ${r.e2eSpeedup}%7.2f"
    }
    (header +: body).mkString("\n")
  }

  // ===================================================================
  // Fig. 6: fraction of queries improved by data skipping (YCSB, wl C)
  // ===================================================================

  final case class SkipFracRow(budget: Double, nExec: Int, nImproved: Int, fracImproved: Double)

  /** For YCSB workload C, report the fraction of executed queries whose
    * query time improves vs the zero-budget baseline.
    */
  def skippingFraction(spark: SparkSession, rows: Int, budgets: Seq[Double],
                       nQueries: Int = 200, nExec: Int = 30, seed: Long = 7L): Vector[SkipFracRow] = {
    val b       = Harness.bundle("ycsb", rows)
    warmup(spark, b)
    val queries = WorkloadGen.tableIII(b.pool.map(_.clause), nQueries, seed)("C")._1
    val exec    = queries.take(nExec)
    val baseline = withStore("fig6")(dir => Harness.run(spark, b, queries, exec, 0.0, dir, chunkSize = ChunkSize))
    budgets.toVector.map { budget =>
      val r = withStore("fig6")(dir => Harness.run(spark, b, queries, exec, budget, dir, chunkSize = ChunkSize))
      val improved = r.perQueryMs.zip(baseline.perQueryMs).count { case (t, t0) => t < t0 * 0.95 }
      SkipFracRow(budget, exec.size, improved, improved.toDouble / exec.size)
    }
  }

  def formatSkipFrac(rows: Seq[SkipFracRow]): String =
    (f"${"budget"}%7s ${"improved"}%9s ${"frac"}%6s" +:
      rows.map(r => f"${r.budget}%7.2f ${r.nImproved}%4d/${r.nExec}%-4d ${r.fracImproved * 100}%5.1f%%")).mkString("\n")

  // ===================================================================
  // Micro-benchmarks (§VII-E, Figs. 7-12) — all on the Windows log dataset
  // ===================================================================

  /** One micro-benchmark workload result (pushdown vs its own baseline). */
  final case class MicroRow(
      workload: String, pushed: Int, partial: Boolean, loadedRatio: Double,
      loadMs: Double, baselineLoadMs: Double,
      perQueryMs: Vector[Double], baselinePerQueryMs: Vector[Double],
      skewFactor: Double,
  ) {
    def loadSpeedup: Double = baselineLoadMs / math.max(loadMs, 1e-9)
  }

  private def runMicro(spark: SparkSession, b: Harness.Bundle, label: String,
                       queries: Vector[CiaoQuery], pushed: Vector[Clause]): MicroRow = {
    val baseline = withStore("micro")(dir => Harness.run(spark, b, queries, queries, 0.0, dir, chunkSize = ChunkSize))
    val r = withStore("micro")(dir => Harness.run(spark, b, queries, queries, Double.MaxValue, dir,
      chunkSize = ChunkSize, forceSelected = Some(pushed)))
    require(r.counts == baseline.counts, s"micro $label: counts diverged")
    MicroRow(label, pushed.size, r.partialEnabled, r.loadedRatio,
      r.loadMs, baseline.loadMs, r.perQueryMs, baseline.perQueryMs,
      WorkloadGen.skewnessFactor(queries))
  }

  private def winlogBundle(spark: SparkSession, rows: Int): Harness.Bundle = {
    val b = Harness.bundle("winlog", rows)
    warmup(spark, b)
    b
  }

  private def atomsOf(b: Harness.Bundle, template: String): Vector[Clause] =
    b.pool.filter(_.template == template).map(_.clause)

  /** Fig. 7/8 — three 5-query workloads of high (0.01), medium (~0.15) and
    * low (~0.35) selectivity; each query has 3 conjunctive predicates on
    * *different* timestamp fields (so conjunctions are satisfiable), the
    * first two shared and pushed (so partial loading is enabled, §VII-E.1).
    */
  def microSelectivity(spark: SparkSession, rows: Int): Vector[MicroRow] = {
    val b       = winlogBundle(spark, rows)
    val seconds = atomsOf(b, "time LIKE (second)")
    val minutes = atomsOf(b, "time LIKE (minute)")
    val hours   = atomsOf(b, "time LIKE (hour)")
    val months  = atomsOf(b, "time LIKE (month)")
    val days    = atomsOf(b, "time LIKE (day)")
    def disj(cands: Vector[Clause], k: Int, offset: Int): Clause =
      Clause(Vector.tabulate(k)(j => cands((offset + j) % cands.size).atoms.head))
    def workload(shared: Vector[Clause], extra: Int => Clause): (Vector[CiaoQuery], Vector[Clause]) =
      (Vector.tabulate(5)(i => CiaoQuery(shared :+ extra(i))), shared)
    // high ~0.017 per predicate: one second + one minute shared, hour extras
    val (qH, pH) = workload(Vector(seconds(0), minutes(0)), i => hours(i))
    // medium ~0.13-0.17: 8-minute and 8-second disjunctions, 4-hour extras
    val (qM, pM) = workload(Vector(disj(minutes, 8, 0), disj(seconds, 8, 0)), i => disj(hours, 4, i * 4))
    // low ~0.33-0.36: 5-month and 10-day disjunctions, 8-hour extras
    val (qL, pL) = workload(Vector(disj(months, 5, 0), disj(days, 10, 0)), i => disj(hours, 8, i * 3))
    Vector(
      runMicro(spark, b, "sel~0.02(high)", qH, pH),
      runMicro(spark, b, "sel~0.14(med)", qM, pM),
      runMicro(spark, b, "sel~0.35(low)", qL, pL))
  }

  /** Fig. 9/10 — predicate overlap: 5 uniform queries with 1 (L), 2 (M) or
    * 4 (H) conjunctive predicates over the same 5-predicate pool (each on a
    * different timestamp field, so conjunctions are satisfiable), pushing
    * two; only H's pushed pair covers every query (§VII-E.2).
    */
  def microOverlap(spark: SparkSession, rows: Int): Vector[MicroRow] = {
    val b  = winlogBundle(spark, rows)
    val ps = Vector(
      atomsOf(b, "time LIKE (minute)").head,
      atomsOf(b, "time LIKE (second)").head,
      atomsOf(b, "time LIKE (hour)").head,
      atomsOf(b, "time LIKE (month)").head,
      atomsOf(b, "time LIKE (day)").head)
    def q(idxs: Int*) = CiaoQuery(idxs.toVector.map(i => ps(i % 5)))
    val pushed = Vector(ps(0), ps(1))
    val lOl = Vector.tabulate(5)(i => q(i))
    val mOl = Vector.tabulate(5)(i => q(i, i + 1))
    val hOl = Vector.tabulate(5)(i => q(i, i + 1, i + 2, i + 3))
    Vector(
      runMicro(spark, b, "L_ol(1 pred/q)", lOl, pushed),
      runMicro(spark, b, "M_ol(2 preds/q)", mOl, pushed),
      runMicro(spark, b, "H_ol(4 preds/q)", hOl, pushed))
  }

  /** Fig. 11/12 — predicate skewness: 5 two-predicate queries; the shared
    * predicate appears in 1 (L), 3 (M) or 5 (H) queries; one predicate is
    * pushed (§VII-E.3). H enables partial loading.
    */
  def microSkewness(spark: SparkSession, rows: Int): Vector[MicroRow] = {
    val b       = winlogBundle(spark, rows)
    val shared  = atomsOf(b, "info LIKE <string>").head // kw000, sel ~0.15
    val minutes = atomsOf(b, "time LIKE (minute)")
    val hoursC  = atomsOf(b, "time LIKE (hour)")
    // Distinct predicate pairs span different fields so conjunctions are satisfiable.
    val lSk = Vector.tabulate(5)(i => CiaoQuery(Vector(minutes(i), hoursC(i))))
    val mSk = Vector.tabulate(5)(i =>
      if (i < 3) CiaoQuery(Vector(shared, minutes(i)))
      else CiaoQuery(Vector(minutes(10 + i), hoursC(10 + i))))
    val hSk = Vector.tabulate(5)(i => CiaoQuery(Vector(shared, minutes(i))))
    Vector(
      runMicro(spark, b, "L_sk", lSk, Vector(lSk.head.clauses.head)),
      runMicro(spark, b, "M_sk", mSk, Vector(shared)),
      runMicro(spark, b, "H_sk", hSk, Vector(shared)))
  }

  def formatMicro(title: String, rows: Seq[MicroRow]): String = {
    val header = f"${"workload"}%-16s ${"pushed"}%6s ${"partial"}%8s ${"ratio"}%6s ${"load(ms)"}%9s " +
      f"${"base-load"}%10s ${"load×"}%6s ${"skew"}%6s  per-query(ms) vs baseline"
    val body = rows.map { r =>
      val pq = r.perQueryMs.zip(r.baselinePerQueryMs)
        .map { case (t, t0) => f"$t%.0f/$t0%.0f" }.mkString(" ")
      f"${r.workload}%-16s ${r.pushed}%6d ${r.partial}%8s ${r.loadedRatio}%6.3f ${r.loadMs}%9.1f " +
        f"${r.baselineLoadMs}%10.1f ${r.loadSpeedup}%6.2f ${r.skewFactor}%6.2f  $pq"
    }
    (s"== $title ==" +: header +: body).mkString("\n")
  }

  // ===================================================================
  // Table IV — cost-model calibration R² on three "platforms"
  // ===================================================================

  final case class PlatformRow(platform: String, hardware: String, r2: Double)

  /** Reproduce Table IV. The paper calibrates on three machines; here one
    * container plays three roles (DESIGN.md §3): (a) real measured timings,
    * (b) the same measurements with deterministic hypervisor-style
    * throttling spikes, (c) model-generated timings with small noise
    * (an idealized bare-metal cluster node).
    */
  def costModelTable(sampleRows: Int = 2500, predsPerDataset: Int = 34, seed: Long = 99L): Vector[PlatformRow] = {
    val rnd = new Random(seed)
    val samples = Vector("yelp", "winlog", "ycsb").flatMap { name =>
      Harness.calibrationSamples(JsonDatasets.byName(name, sampleRows).lines, PredicatePool.byName(name), predsPerDataset)
    }
    val measured = samples
    val noisy = samples.map { s =>
      val spike = if (rnd.nextDouble() < 0.12) 1.6 + 1.2 * rnd.nextDouble() else 1.0 + 0.15 * rnd.nextDouble()
      s.copy(measuredMicros = s.measuredMicros * spike)
    }
    val idealCoeffs = CostModel.calibrate(measured, lambda = 1e-6)
    val stable = samples.map { s =>
      val t = CostModel.estimateSearch(idealCoeffs, s.sel, s.lenP, s.lenT)
      s.copy(measuredMicros = math.max(1e-6, t * (1.0 + 0.03 * (rnd.nextDouble() - 0.5))))
    }
    def r2(ss: Seq[CostModel.Sample]) = CostModel.rSquared(ss, CostModel.calibrate(ss, lambda = 1e-6))
    Vector(
      PlatformRow("container-jvm (measured)", "this container, JVM String.indexOf", r2(measured)),
      PlatformRow("cloud-vm (simulated)", "measured + hypervisor-style throttling spikes", r2(noisy)),
      PlatformRow("bare-metal (simulated)", "model-generated + 3% noise", r2(stable)))
  }

  def formatCostModel(rows: Seq[PlatformRow]): String =
    (f"${"platform"}%-26s ${"hardware"}%-46s ${"R²"}%6s" +:
      rows.map(r => f"${r.platform}%-26s ${r.hardware}%-46s ${r.r2}%6.3f")).mkString("\n")

  // ===================================================================
  // Tables I / II / III reproduction (workload metadata)
  // ===================================================================

  def formatTableI(): String = {
    val rows = Seq(
      ("Exact String Match", ExactMatch("name", "Bob").sql, ExactMatch("name", "Bob").patterns),
      ("Substring Match", SubstringMatch("text", "delicious").sql, SubstringMatch("text", "delicious").patterns),
      ("Key-Presence Match", KeyPresence("email").sql, KeyPresence("email").patterns),
      ("Key-Value Match", KeyValueMatch("age", "10").sql, KeyValueMatch("age", "10").patterns))
    (f"${"Supported Predicate"}%-20s ${"Example"}%-26s Pattern String(s)" +:
      rows.map { case (k, ex, pats) => f"$k%-20s $ex%-26s ${pats.mkString(" ")}" }).mkString("\n")
  }

  def formatTableII(): String = {
    val sections = Seq("yelp", "winlog", "ycsb").map { name =>
      val counts = PredicatePool.templateCounts(PredicatePool.byName(name)).toSeq.sortBy(_._1)
      (s"-- $name --" +: counts.map { case (t, n) => f"$t%-28s $n%4d" }).mkString("\n")
    }
    sections.mkString("\n")
  }

  def formatTableIII(nQueries: Int = 200, seed: Long = 7L): String = {
    val pool = PredicatePool.yelp().map(_.clause)
    val rows = WorkloadGen.tableIII(pool, nQueries, seed).toSeq.sortBy(_._1).map { case (label, (qs, dist)) =>
      val st = WorkloadGen.stats(qs, dist)
      f"$label%-3s ${st.sumPredicates}%6d ${st.minPredicates}%d/${st.maxPredicates}%-6d ${st.distribution}%-14s skew=${st.skewnessFactor}%6.2f"
    }
    (f"${"wl"}%-3s ${"#Preds"}%6s ${"Min/Max"}%8s ${"Distribution"}%-14s" +: rows).mkString("\n")
  }
}
