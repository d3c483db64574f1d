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

  /** Build a bundle: generate data, expand the Table II pool, and estimate
    * selectivities and calibrate the cost model on a 2,000-line sample.
    */
  def bundle(name: String, rows: Int): Bundle = {
    val ds     = JsonDatasets.byName(name, rows)
    val pool   = PredicatePool.byName(name)
    val sample = ds.lines.take(2000)
    Bundle(ds, pool, PredicatePool.estimateSelectivities(pool, sample), calibrate(sample, pool))
  }

  /** Calibrate the §V-D cost model by OLS over [[calibrationSamples]]. */
  def calibrate(sampleLines: Seq[String], pool: Vector[PredicatePool.PoolEntry]): CostModel.Coeffs =
    CostModel.calibrate(calibrationSamples(sampleLines, pool))

  /** The calibration design: a len(t) × len(p) grid, each cell timed with
    * the pattern absent (sel = 0) and planted once per line (sel = 1), so the
    * five regressors vary independently. Text: the first 500 sample lines,
    * each repeated and cut to len(t). Pattern: a pool pattern's first
    * len(p)−1 characters padded with U+0001 to len(p); valid JSON text never
    * holds U+0001, so the pattern is found only where it is planted.
    */
  def calibrationSamples(sampleLines: Seq[String], pool: Vector[PredicatePool.PoolEntry]): Vector[CostModel.Sample] = {
    val rnd      = new scala.util.Random(0L)
    val lines    = sampleLines.take(500).toVector
    val patterns = pool.flatMap(_.clause.atoms.flatMap(_.patterns)).distinct
    val cells = for {
      (lenT, i) <- Vector(64, 256, 1024).zipWithIndex
      (lenP, j) <- Vector(2, 8, 32).zipWithIndex
      planted   <- Vector(false, true)
    } yield {
      val pat = patterns((3 * i + j) % patterns.size).take(lenP - 1).padTo(lenP, '\u0001')
      val texts = lines.map { l =>
        val t = (l * (lenT / l.length + 1)).take(lenT)
        if (!planted) t
        else { val at = rnd.nextInt(lenT - lenP + 1); t.take(at) + pat + t.drop(at + lenP) }
      }
      () => measureSearch(texts, pat, lenT.toDouble)
    }
    // Three rounds in fresh shuffled orders; each cell keeps its median timing,
    // so a cold JIT or a burst of machine noise moves only one of the three.
    val timed = Vector.fill(3)(rnd.shuffle(cells.indices.toVector)).flatten.map(i => i -> cells(i)())
    cells.indices.toVector.map(i => timed.collect { case (`i`, s) => s }.sortBy(_.measuredMicros).apply(1))
  }

  /** Measure one pattern's per-object search cost in µs. Each timing runs
    * several passes over all the lines so the measured interval is well
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
