package ciaobench

import java.io.File
import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession

import repro.client.ClientFilter
import repro.core.CostModel
import repro.harness.Harness
import repro.workload.{JsonDatasets, PredicatePool}

/** Entry point of the CIAO benchmark; `run.py` builds the classpath and
  * launches one JVM per run.
  *
  * {{{
  * Main run --workload W --seed N --seconds S --trace 0|1 --work DIR --traces DIR
  * Main self-test --workload W --work DIR
  * Main derive
  * Main calibrate
  * }}}
  */
object Main {

  /** Warm-up cycles run before timing; their cost shows only in `setup_s`. */
  val WarmupCycles: Int = 2

  /** Spark worker threads: four, or fewer on a machine with fewer cores. */
  def sparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def main(args: Array[String]): Unit = {
    val mode = args.headOption.getOrElse(usage("no mode given"))
    val opts = args.drop(1).grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other                            => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val ok = mode match {
      case "run"       => run(Workloads.byName(opt("workload")), opt("seed").toLong, opt("seconds").toInt,
                            opt("trace") == "1", opt("work"), opt("traces"))
      case "self-test" => selfTest(Workloads.byName(opt("workload")), opt("work"))
      case "derive"    => derive(); true
      case "calibrate" => calibrate(); true
      case other       => usage(s"unknown mode $other")
    }
    sys.exit(if (ok) 0 else 1)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"ciaobench: $msg")
    sys.exit(2)
  }

  private def log(msg: String): Unit = {
    val t = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    System.err.println(f"[ciaobench $t%7.2f s] $msg")
  }

  def session(work: String): SparkSession =
    SparkSession.builder
      .master(s"local[$sparkThreads]")
      .appName("ciaobench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/warehouse")
      .config("spark.sql.shuffle.partitions", sparkThreads.toString)
      .getOrCreate()

  /** Everything a run fixes before its first cycle. */
  final case class Setup(spec: Workloads.Spec, b: Harness.Bundle,
                         selectQueries: Vector[repro.core.CiaoQuery],
                         batch: Vector[repro.core.CiaoQuery], sel: Workloads.Selection)

  def setup(spec: Workloads.Spec, seed: Long): Setup = {
    val b   = Workloads.bundle(spec)
    val wls = Workloads.tableIII(b)
    val sq  = wls(spec.selectWl)
    val sel = Workloads.select(b, sq)
    Setup(spec, b, sq, Workloads.batch(wls(spec.execWl), seed), sel)
  }

  private def gateInput(spark: SparkSession, s: Setup, r: Cycle.Result): Gate.Input = {
    val clauses = r.selection.registry.entries.map(_.clause)
    Gate.Input(s.spec, spark, s.b.dataset.lines, r.selection, s.batch,
      Truth(spark, s.b.dataset.lines, clauses, s.batch), r.bitsPerChunk)
  }

  def run(spec: Workloads.Spec, seed: Long, seconds: Int, trace: Boolean, work: String, traces: String): Boolean = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark      = session(work)
    log("Spark session started")
    val s          = setup(spec, seed)
    log(s"inputs generated: ${s.b.dataset.lines.size} rows, ${s.sel.selected.size} pushed, ${s.batch.size} queries in the batch")
    val stores     = s"$work/stores/${spec.name}-${ProcessHandle.current().pid()}"
    def store(n: Int): String = s"$stores/cycle-$n"
    val off = new Tracer(false)

    (1 to WarmupCycles).foreach { n =>
      val r = Cycle.run(spark, s.b, s.selectQueries, s.batch, store(-n), off)
      log(f"warm-up $n: e2e ${r.e2eNs / 1e9}%.3f s, load ${r.loadNs.head / 1e6}%.1f ms, queries ${r.queryNs.sum / 1e6}%.1f ms")
      Cycle.deleteRecursively(new File(store(-n)))
    }
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1000.0

    val tracer   = new Tracer(trace)
    val cycles   = Vector.newBuilder[Cycle.Result]
    val loads    = Vector.newBuilder[Layers.Load]
    val scans    = Vector.newBuilder[Vector[Layers.Scan]]
    val deadline = System.nanoTime() + seconds * 1000000000L
    var n        = 0
    while (n == 0 || System.nanoTime() < deadline) {
      if (n > 0) Cycle.deleteRecursively(new File(store(n - 1)))
      tracer.cycle = n
      val r = tracer.span("cycle")(Cycle.run(spark, s.b, s.selectQueries, s.batch, store(n), tracer))
      log(f"cycle $n: e2e ${r.e2eNs / 1e9}%.3f s, prefilter ${Stats.median(r.prefilterNs.map(_ / 1e6))}%.1f ms, " +
        f"load ${Stats.median(r.loadNs.map(_ / 1e6))}%.1f ms, queries ${r.queryNs.sum / 1e6}%.1f ms")
      if (trace) {
        val replayDir = s"$stores/replay-$n"
        loads += Layers.replayLoad(s.b, r.chunks, r.bitsPerChunk, r.selection, replayDir, tracer)
        Cycle.deleteRecursively(new File(replayDir))
        val df = spark.read.format("ciao").load(store(n))
        scans += s.batch.map(q => Layers.queryScan(df, store(n), Layers.sparkPlan(df, q), tracer))
      }
      cycles += r
      n += 1
    }
    val peakRss = Cycle.peakRssMb()
    val done    = cycles.result()
    val storeDir = store(n - 1)

    val in     = gateInput(spark, s, done.last)
    log("ground truth computed")
    val faults = Gate.check(in, storeDir, done.map(_.counts))
    faults.foreach(f => log(s"GATE: $f"))
    val bytes = Cycle.bytesBySuffix(storeDir)

    val metrics: Vector[(String, Double, String)] =
      if (!trace) Vector(
        ("setup_s", setupS, "s"),
        ("e2e_s", Stats.median(done.map(_.e2eNs / 1e9)), "s"),
        ("prefilter_s", Stats.median(done.flatMap(_.prefilterNs.map(_ / 1e9))), "s"),
        ("load_s", Stats.median(done.flatMap(_.loadNs.map(_ / 1e9))), "s"),
        ("query_p50_ms", Stats.median(done.flatMap(_.queryNs.map(_ / 1e6))), "ms"),
        ("store_bytes", bytes.values.sum.toDouble, "bytes"),
        ("peak_rss_mb", peakRss, "MB"),
      )
      else layerMetrics(s, done, loads.result(), scans.result(), in, storeDir, bytes)
    Cycle.deleteRecursively(new File(stores))
    if (trace) tracer.write(s"$traces/trace-${spec.name}-seed$seed.json")

    val attempted = done.size * (s.batch.size + 2 * Cycle.StageSamples)
    log(s"${done.size} timed cycles, ${done.size * s.batch.size} timed queries, gate ${if (faults.isEmpty) "passed" else "FAILED"}")
    val body = metrics.map { case (k, v, u) => s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}" }
    println(s"""{"correct": ${faults.isEmpty}, "attempted": $attempted, "failed": 0, "metrics": {${body.mkString(", ")}}}""")
    spark.stop()
    faults.isEmpty
  }

  private def layerMetrics(s: Setup, done: Vector[Cycle.Result], loads: Vector[Layers.Load],
                           scans: Vector[Vector[Layers.Scan]], in: Gate.Input, storeDir: String,
                           bytes: Map[String, Long]): Vector[(String, Double, String)] = {
    val sel     = done.last.selection
    val pushed  = sel.selected.size
    val rows    = s.b.dataset.lines.size
    val perCyc  = scans.head
    val bitsSet = done.last.bitsPerChunk.map(_.values.map(_.cardinality.toLong).sum).sum
    val bitsTrue = done.last.bitsPerChunk.zipWithIndex.map { case (bits, ch) =>
      bits.map { case (id, bv) =>
        (0 until bv.nBits).count(k => bv.get(k) && in.truth.clauseRows(id).get(ch * Workloads.ChunkSize + k)).toLong
      }.sum
    }.sum
    val chunkIds  = done.last.chunks.indices
    val footers   = chunkIds.map { ch =>
      val p = repro.server.ChunkStore.parquetPath(storeDir, ch)
      if (new File(p).exists()) Layers.footerRows(p) else 0L
    }.sum
    val rawRows   = chunkIds.map(ch => Gate.rawLines(repro.server.ChunkStore.rawPath(storeDir, ch)).size.toLong).sum
    val overheads = done.zip(scans).flatMap { case (c, qs) =>
      c.queryNs.zip(qs).map { case (wall, d) => (wall - d.planNs - d.scanWallNs) / 1e6 }
    }
    def med(f: Layers.Load => Long, scale: Double): Double = Stats.median(loads.map(l => f(l) / scale))
    Vector(
      ("core.select_ms", Stats.median(done.map(_.selectNs / 1e6)), "ms"),
      ("core.pushed_preds", pushed.toDouble, "count"),
      ("core.covered_queries", s.selectQueries.count(q =>
        q.clauses.exists(cl => sel.registry.byCanonical.contains(cl.canonical))).toDouble, "count"),
      ("client.ns_per_obj_pred",
        if (pushed == 0) 0.0 else Stats.median(done.flatMap(_.prefilterNs.map(_.toDouble / (rows.toLong * pushed)))), "ns"),
      ("client.bits_set", bitsSet.toDouble, "count"),
      ("client.bits_true", bitsTrue.toDouble, "count"),
      ("json.parse_ns_per_obj", Stats.median(loads.map(l => l.parseNs.toDouble / math.max(1L, l.rowsParsed))), "ns"),
      ("json.extract_ns_per_obj", Stats.median(loads.map(l => l.extractNs.toDouble / math.max(1L, l.rowsParsed))), "ns"),
      ("server.rows_parsed", footers.toDouble, "count"),
      ("server.rows_raw", rawRows.toDouble, "count"),
      ("server.store_init_ms", med(_.initNs, 1e6), "ms"),
      ("server.parquet_write_ms", med(_.parquetNs, 1e6), "ms"),
      ("server.sidecar_write_ms", med(_.sidecarNs, 1e6), "ms"),
      ("server.raw_write_ms", med(_.rawNs, 1e6), "ms"),
      ("server.parquet_bytes", bytes.getOrElse(".parquet", 0L).toDouble, "bytes"),
      ("server.sidecar_bytes", bytes.getOrElse(".bits", 0L).toDouble, "bytes"),
      ("server.raw_bytes", bytes.getOrElse(".raw", 0L).toDouble, "bytes"),
      ("server.skip_and_us", Stats.median(scans.map(_.map(_.skipAndNs).sum / 1e3)), "us"),
      ("server.skip_queries", perCyc.count(_.skipping).toDouble, "count"),
      ("datasource.plan_ms", Stats.median(scans.flatten.map(_.planNs / 1e6)), "ms"),
      ("datasource.partitions", perCyc.map(_.partitions).sum.toDouble, "count"),
      ("datasource.scan_parquet_ms", Stats.median(scans.map(_.map(_.parquetScanNs).sum / 1e6)), "ms"),
      ("datasource.rows_decoded", perCyc.map(_.rowsDecoded).sum.toDouble, "count"),
      ("datasource.rows_emitted", perCyc.map(_.rowsEmitted).sum.toDouble, "count"),
      ("datasource.rows_skipped", perCyc.map(_.rowsSkipped).sum.toDouble, "count"),
      ("datasource.scan_raw_ms", Stats.median(scans.map(_.map(_.rawScanNs).sum / 1e6)), "ms"),
      ("datasource.raw_rows_parsed", perCyc.map(_.rawParsed).sum.toDouble, "count"),
      ("spark.query_overhead_ms", Stats.median(overheads), "ms"),
      ("jvm.gc_ms", Stats.median(done.map(_.gcMs.toDouble)), "ms"),
      ("trace.e2e_s", Stats.median(done.map(_.e2eNs / 1e9)), "s"),
    )
  }

  /** Inject faults into copies of a loaded store and show the gate reports each. */
  def selfTest(spec: Workloads.Spec, work: String): Boolean = {
    val spark  = session(work)
    val s      = setup(spec, 1L)
    val stores = s"$work/selftest-${spec.name}-${ProcessHandle.current().pid()}"
    val r      = Cycle.run(spark, s.b, s.selectQueries, s.batch, s"$stores/store", new Tracer(false))
    val (lines, ok) = Gate.selfTest(gateInput(spark, s, r), s"$stores/store", stores, r.counts)
    lines.foreach(println)
    println(s"gate self-test ${spec.name}: ${if (ok) "every injected fault was reported" else "FAILED"}")
    Cycle.deleteRecursively(new File(stores))
    spark.stop()
    ok
  }

  /** Print the pushed-predicate count and load mode each workload gets with
    * the pinned coefficients: the values `Workloads.all` records.
    */
  def derive(): Unit = Workloads.all.foreach { spec =>
    val s      = setup(spec, 1L)
    val chunks = Workloads.chunks(s.b.dataset.lines)
    val bits   = ClientFilter.prefilter(chunks, s.sel.withIds).bitsPerChunk
    val loaded =
      if (!s.sel.covered) chunks.map(_.size).sum
      else chunks.indices.map(i =>
        repro.core.BitVec.unionAll(chunks(i).size, bits(i).values.toSeq).cardinality).sum
    val exec     = Workloads.tableIII(s.b)(spec.execWl)
    val kept     = exec.scanLeft(0)((n, q) => if (Workloads.provablyEmpty(q)) n else n + 1).tail
    val skipped  = exec.take(kept.indexWhere(_ == Workloads.BatchSize) + 1).count(Workloads.provablyEmpty)
    val matching = s.batch.count(q => repro.server.DataSkipping.matchQuery(q, s.sel.registry).nonEmpty)
    println(f"${spec.name}%-16s pushed=${s.sel.selected.size}%3d mode=${Gate.mode(s.sel.covered)}%-7s " +
      f"loaded=${loaded.toDouble / s.b.dataset.lines.size}%.3f " +
      f"batch=${s.batch.size} (${s.batch.distinctBy(_.whereSql).size} distinct, $matching matching a pushed id, " +
      f"$skipped provably empty left out) " +
      f"(recorded: pushed=${spec.expectPushed} mode=${Gate.mode(spec.expectPartial)})")
  }

  /** Fit the client cost model three times per dataset and print each fit
    * and the per-coefficient medians (how the pinned constants were chosen).
    */
  def calibrate(): Unit = {
    val fits = for {
      name <- Vector("winlog", "yelp", "ycsb")
      i    <- 1 to 3
    } yield {
      val spec  = Workloads.all.find(_.dataset == name).get
      val lines = JsonDatasets.byName(name, Workloads.Rows, spec.datasetSeed).lines.take(Workloads.SampleSize)
      val co    = Harness.calibrate(lines, PredicatePool.byName(name))
      println(f"$name%-7s fit $i: ${co.toSeq.map(c => f"$c%.6f").mkString(" ")}")
      co
    }
    def med(f: CostModel.Coeffs => Double): Double = Stats.median(fits.map(f))
    println(f"median: k1=${med(_.k1)}%.6f k2=${med(_.k2)}%.6f k3=${med(_.k3)}%.6f k4=${med(_.k4)}%.6f c=${med(_.c)}%.6f")
  }
}
