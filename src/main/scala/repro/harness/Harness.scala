package repro.harness

import org.apache.spark.sql.SparkSession

import repro.client.ClientFilter
import repro.core._
import repro.json.JsonParser
import repro.server._
import repro.workload._

/** End-to-end CIAO pipeline used by tests, jobs and the benchmark suites.
  *
  * One [[run]] reproduces a single point of the paper's end-to-end plots:
  * given a workload and a client budget it (1) selects predicates to push
  * (§V), (2) runs the client prefilter and times it, (3) loads the data —
  * partially when the pushed set covers every prospective query, fully
  * otherwise (the paper's server behaviour in §VI-A/§VII-E: partial loading
  * is only employed when the pushed predicates cover the workload, since
  * uncovered queries would repeatedly re-parse the raw remainder) — and
  * (4) executes the query workload through Spark over `format("ciao")`,
  * timing it.
  */
object Harness {

  /** A dataset prepared for experiments: lines, pool, selectivities
    * (typed, sample-estimated) and a calibrated client cost model.
    */
  final case class Bundle(
      dataset: JsonDatasets.Dataset,
      pool: Vector[PredicatePool.PoolEntry],
      sels: Map[String, Double],
      coeffs: CostModel.Coeffs,
  ) {
    def name: String         = dataset.name
    def avgLen: Double       = dataset.avgLineLength
    /** Sample-estimated selectivity of an atom, [[FallbackAtomSel]] if unseen. */
    def atomSel(a: Atom): Double = sels.getOrElse(Clause(a).canonical, FallbackAtomSel)
    /** Selectivity of a clause from its atoms (independence for disjunctions). */
    def clauseSel(clause: Clause): Double =
      1.0 - clause.atoms.map(a => 1.0 - atomSel(a)).product
  }

  /** Selectivity assumed for an atom the selectivity sample never saw. */
  val FallbackAtomSel = 0.1

  /** Build a bundle: generate data, expand the Table II pool, estimate
    * selectivities on a sample, calibrate the cost model on this machine.
    */
  def bundle(name: String, rows: Int, sampleSize: Int = 2000, seed: Long = 0L): Bundle = {
    val ds   = JsonDatasets.byName(name, rows, seed)
    val pool = PredicatePool.byName(name)
    val sample = ds.lines.take(sampleSize)
    val sels = PredicatePool.estimateSelectivities(pool, sample)
    val coeffs = calibrate(sample, pool)
    Bundle(ds, pool, sels, coeffs)
  }

  /** Calibrate the §V-D cost model by timing real substring searches of
    * pool patterns over sample lines (warmed up, median of repeats).
    * The sample's `sel` is the *pattern hit rate* (string-level, which is
    * what determines found-vs-not-found search cost). Lines are bucketed by
    * length so `len(t)` varies across samples — with a single constant
    * len(t) the design matrix is collinear (sel·lenT + (1−sel)·lenT equals
    * lenT times the intercept column) and the fit would be singular.
    */
  def calibrate(sampleLines: Seq[String], pool: Vector[PredicatePool.PoolEntry],
                maxPreds: Int = 80): CostModel.Coeffs =
    CostModel.calibrate(calibrationSamples(sampleLines, pool, maxPreds), lambda = 1e-6)

  /** The calibration design: lines sorted into 4 length buckets, and every
    * k-th distinct pool pattern by length (about `maxPreds` of them), each
    * timed over the next bucket in turn.
    */
  def calibrationSamples(sampleLines: Seq[String], pool: Vector[PredicatePool.PoolEntry],
                         maxPreds: Int): Vector[CostModel.Sample] = {
    val lines = sampleLines.toIndexedSeq.sortBy(_.length)
    val nBuckets = 4
    val buckets = (0 until nBuckets)
      .map(b => lines.slice(b * lines.size / nBuckets, (b + 1) * lines.size / nBuckets))
      .filter(_.nonEmpty)
    // One search per sample: use each candidate's first pattern string.
    val patterns = pool.flatMap(_.clause.atoms.flatMap(_.patterns)).distinct
    val chosen   = patterns.sortBy(_.length).grouped(math.max(1, patterns.size / maxPreds)).map(_.head).toVector
    chosen.zipWithIndex.map { case (pat, i) =>
      val bucket = buckets(i % buckets.size)
      val bLen   = bucket.map(_.length.toLong).sum.toDouble / bucket.size
      measureSearch(bucket, pat, bLen)
    }
  }

  /** Measure one pattern's per-object search cost in µs. Each timing runs
    * several passes over the whole bucket so the measured interval is well
    * above clock granularity; the median of 5 timings damps JIT/GC noise.
    */
  def measureSearch(lines: IndexedSeq[String], pattern: String, avgLen: Double): CostModel.Sample = {
    var hits = 0
    lines.foreach(l => if (l.contains(pattern)) hits += 1) // warm-up + hit rate
    val sel    = hits.toDouble / math.max(1, lines.size)
    val passes = math.max(1, 200000 / math.max(1, lines.size))
    var acc    = 0L
    def onePass(): Unit = {
      var i = 0
      while (i < lines.length) { if (lines(i).indexOf(pattern) >= 0) acc += 1; i += 1 }
    }
    onePass(); onePass() // JIT warm-up of the measured loop itself
    val times = (0 until 5).map { _ =>
      val t0 = System.nanoTime()
      var p  = 0
      while (p < passes) { onePass(); p += 1 }
      (System.nanoTime() - t0).toDouble / (lines.length.toLong * passes) / 1e3
    }
    val expected = hits * (2L + 5L * passes) // every pass finds as many lines as the warm-up
    if (acc != expected) throw new IllegalStateException(s"passes over '$pattern' found $acc lines, not $expected")
    CostModel.Sample(sel, pattern.length.toDouble, avgLen, times.sorted.apply(2))
  }

  /** Distinct pushdown candidates across a workload's queries, with
    * sample-estimated selectivity and modeled client cost (µs/object).
    */
  def candidates(bundle: Bundle, queries: Seq[CiaoQuery]): Vector[PredicateSelection.Candidate] =
    queries.flatMap(_.clauses).distinctBy(_.canonical).map { cl =>
      val sel  = bundle.clauseSel(cl)
      val cost = CostModel.clauseCost(bundle.coeffs, cl, bundle.atomSel, bundle.avgLen)
      PredicateSelection.Candidate(cl, sel, math.max(cost, 1e-6))
    }.toVector

  /** Outcome of one budget point. */
  final case class RunResult(
      budget: Double,
      selected: Vector[PredicateSelection.Candidate],
      prefilterMs: Double,
      loadStats: PartialLoader.LoadStats,
      partialEnabled: Boolean,
      perQueryMs: Vector[Double],
      counts: Vector[Long],
  ) {
    def nSelected: Int      = selected.size
    def loadMs: Double      = loadStats.elapsedMillis
    def loadedRatio: Double = loadStats.loadedRatio
    def queryMs: Double     = perQueryMs.sum
    def e2eMs: Double       = prefilterMs + loadMs + queryMs
  }

  /** Run one budget point end to end.
    *
    * @param workloadQueries prospective workload driving selection & coverage
    * @param execQueries     queries actually executed on Spark (may be a
    *                        subsample of the workload — see DESIGN.md §3)
    * @param forceSelected   bypass the optimizer (micro-benchmarks pin the
    *                        pushed set explicitly)
    */
  def run(spark: SparkSession,
          bundle: Bundle,
          workloadQueries: Vector[CiaoQuery],
          execQueries: Vector[CiaoQuery],
          budget: Double,
          storeDir: String,
          chunkSize: Int = 1000,
          forceSelected: Option[Vector[Clause]] = None): RunResult = {
    val cands = candidates(bundle, workloadQueries)
    val selected = forceSelected match {
      case Some(clauses) =>
        clauses.map(cl => cands.find(_.key == cl.canonical).getOrElse(
          PredicateSelection.Candidate(cl, bundle.clauseSel(cl), 1e-6)))
      case None =>
        PredicateSelection.selectBest(cands, workloadQueries, budget)
    }
    val registry = ChunkStore.Registry(selected.zipWithIndex.map { case (c, i) =>
      ChunkStore.RegEntry(i, c.clause, c.sel, c.cost)
    })

    val chunks = ClientFilter.chunk(bundle.dataset.lines, chunkSize)
    val withIds = registry.entries.map(e => e.id -> e.clause)
    val prefilter =
      if (selected.isEmpty) ClientFilter.PrefilterResult(chunks.map(_ => Map.empty[Int, BitVec]), 0L)
      else ClientFilter.prefilter(chunks, withIds)

    // Partial loading only if every prospective query contains ≥1 pushed
    // predicate; otherwise load fully but keep bit-vectors for skipping.
    val covered = selected.nonEmpty &&
      workloadQueries.forall(q => q.clauses.exists(cl => registry.byCanonical.contains(cl.canonical)))
    val loadStats =
      if (covered)
        PartialLoader.loadPartial(storeDir, bundle.dataset.schema, chunks, prefilter.bitsPerChunk, registry)
      else
        PartialLoader.loadFull(storeDir, bundle.dataset.schema, chunks, prefilter.bitsPerChunk, registry)

    val df = spark.read.format("ciao").load(storeDir)
    val perQuery = Vector.newBuilder[Double]
    val counts   = Vector.newBuilder[Long]
    execQueries.foreach { q =>
      val t0 = System.nanoTime()
      counts += df.where(q.whereSql).count()
      perQuery += (System.nanoTime() - t0) / 1e6
    }
    RunResult(budget, selected, prefilter.elapsedMillis, loadStats, covered,
      perQuery.result(), counts.result())
  }

  /** Ground-truth COUNT(*) per query by typed evaluation over parsed lines
    * (correctness cross-check for the Spark path).
    */
  def expectedCounts(lines: Seq[String], queries: Seq[CiaoQuery]): Vector[Long] = {
    val objs = lines.map(JsonParser.parseObject)
    queries.map(q => objs.count(q.evalParsed).toLong).toVector
  }
}
