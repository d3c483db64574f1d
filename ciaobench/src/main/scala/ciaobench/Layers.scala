package ciaobench

import java.util.concurrent.{Callable, Executors}

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{And, Expression}
import org.apache.spark.sql.catalyst.plans.logical
import org.apache.spark.sql.connector.read.{InputPartition, ScanBuilder, SupportsPushDownFilters, Scan => ReadScan}
import org.apache.spark.sql.execution.datasources.v2.{BatchScanExec, DataSourceV2ScanRelation, PushDownUtils}
import org.apache.spark.sql.sources.Filter
import org.apache.spark.sql.types.StructType

import repro.core.{BitVec, CiaoQuery}
import repro.datasource.{CiaoScanBuilder, ParquetChunkPartition, RawChunkPartition}
import repro.harness.Harness
import repro.json.{JObj, JsonParser}
import repro.server.{ChunkStore, DataSkipping, ParquetIO, TableSchema}

/** `xs.map(f)` on a pool of `threads` threads, in the order of `xs`. */
object Par {
  def map[A, B](xs: Seq[A], threads: Int)(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(threads)
    try xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).map(_.get())
    finally pool.shutdown()
  }
}

/** Per-layer measurements, taken by calling each layer's public functions
  * from the benchmark: the load replayed call by call, and each query's
  * planning and scan driven through the data source outside Spark.
  */
object Layers {

  /** The calls `PartialLoader.loadPartial`/`loadFull` make, replayed into
    * `dir` and timed one layer at a time.
    */
  final case class Load(initNs: Long, parseNs: Long, extractNs: Long, parquetNs: Long,
                        sidecarNs: Long, rawNs: Long, rowsParsed: Long)

  def replayLoad(b: Harness.Bundle, chunks: IndexedSeq[IndexedSeq[String]],
                 bits: IndexedSeq[Map[Int, BitVec]], sel: Workloads.Selection,
                 dir: String, tracer: Tracer): Load = tracer.span("replay.load") {
    val schema = b.dataset.schema
    var parseNs, extractNs, parquetNs, sidecarNs, rawNs, rowsParsed = 0L
    def timed[A](name: String)(body: => A): (A, Long) = tracer.span(name) {
      val t0 = System.nanoTime()
      val a  = body
      (a, System.nanoTime() - t0)
    }
    val (_, initNs) = timed("server.store_init") {
      ChunkStore.init(dir)
      ChunkStore.writeSchema(dir, schema)
      ChunkStore.writeRegistry(dir, sel.registry)
    }
    chunks.indices.foreach { i =>
      val lines = chunks(i)
      val cb    = bits(i)
      val kept: Option[BitVec] =
        if (!sel.covered) None
        else Some(if (cb.isEmpty) BitVec.full(lines.size) else BitVec.unionAll(lines.size, cb.values.toSeq))
      val loadedPos = kept.fold(lines.indices: IndexedSeq[Int])(_.setBits)
      if (loadedPos.nonEmpty) {
        val toParse = loadedPos.map(lines)
        val (objs, pNs) = timed("json.parse")(toParse.map(JsonParser.parseObject))
        val (rows, eNs) = timed("json.extract")(objs.map((o: JObj) => TableSchema.extractRow(schema, o)))
        val (_, wNs)    = timed("server.parquet_write")(ParquetIO.writeChunk(ChunkStore.parquetPath(dir, i), schema, rows))
        parseNs += pNs; extractNs += eNs; parquetNs += wNs; rowsParsed += rows.size
        if (cb.nonEmpty) {
          val sidecar = if (sel.covered) cb.map { case (id, bv) => id -> bv.compact(loadedPos) } else cb
          sidecarNs += timed("server.sidecar_write")(ChunkStore.writeBits(ChunkStore.bitsPath(dir, i), sidecar))._2
        }
      }
      kept.foreach { k =>
        if (loadedPos.size < lines.size) {
          val raw = lines.indices.filterNot(k.get).map(lines)
          rawNs += timed("server.raw_write")(ChunkStore.writeRawLines(ChunkStore.rawPath(dir, i), raw))._2
        }
      }
    }
    Load(initNs, parseNs, extractNs, parquetNs, sidecarNs, rawNs, rowsParsed)
  }

  /** One query's planning and scan, driven through the data source's public
    * classes without Spark. The scan times are summed over the partitions;
    * `scanWallNs` is the wall time of draining them on as many threads as
    * Spark runs tasks.
    */
  final case class Scan(planNs: Long, partitions: Int, skipping: Boolean, description: String,
                        parquetScanNs: Long, rawScanNs: Long, skipAndNs: Long, scanWallNs: Long,
                        rowsDecoded: Long, parquetEmitted: Long, rawParsed: Long) {
    def rowsEmitted: Long = parquetEmitted + rawParsed
    def rowsSkipped: Long = rowsDecoded - rawParsed - parquetEmitted
  }

  /** A query Spark's optimizer proves empty: no scan is planned. */
  val NoScan: Scan = Scan(0L, 0, skipping = false, "", 0L, 0L, 0L, 0L, 0L, 0L, 0L)

  /** Plan and scan a query directly, with the filters Spark pushes for it. */
  def queryScan(df: DataFrame, dir: String, plan: SparkPlan, tracer: Tracer): Scan =
    plan.pushed.fold(NoScan)(f => directScan(dir, df.schema, f, tracer))

  /** What draining one partition gave, with the spans timed on its thread. */
  private final case class Drained(parquetRows: Long, rawRows: Long, decoded: Long, parquetNs: Long,
                                   rawNs: Long, skipNs: Long, spans: Vector[(String, Long, Long)])

  def directScan(dir: String, schema: StructType, filters: Array[Filter], tracer: Tracer): Scan =
    tracer.span("datasource.direct_query") {
      val p0 = System.nanoTime()
      val (scan, parts) = tracer.span("datasource.plan") {
        val builder = new CiaoScanBuilder(dir, schema)
        builder.pushFilters(filters)
        val scan = builder.build()
        (scan, scan.toBatch.planInputPartitions())
      }
      val planNs  = System.nanoTime() - p0
      val factory = scan.toBatch.createReaderFactory()
      def drain(p: InputPartition): (Long, Long, Long) = {
        val t0 = System.nanoTime()
        val r  = factory.createReader(p)
        var n  = 0L
        try while (r.next()) { r.get(); n += 1 } finally r.close()
        (n, t0, System.nanoTime())
      }
      def one(p: InputPartition): Drained = p match {
        case p: ParquetChunkPartition =>
          val skip = if (p.skipIds.isEmpty) None else p.bitsPath.map { bp =>
            val sidecar = ChunkStore.readBits(bp)
            val nRows   = sidecar.headOption.map(_._2.nBits).getOrElse(0)
            val a0      = System.nanoTime()
            DataSkipping.combinedBits(sidecar, p.skipIds.toSeq, nRows)
            ("server.skip_and", a0, System.nanoTime())
          }
          val (n, t0, t1) = drain(p)
          Drained(n, 0L, footerRows(p.parquetPath), t1 - t0, 0L, skip.fold(0L)(s => s._3 - s._2),
            skip.toVector :+ (("datasource.scan_parquet", t0, t1)))
        case p: RawChunkPartition =>
          val (n, t0, t1) = drain(p)
          Drained(0L, n, n, 0L, t1 - t0, 0L, Vector(("datasource.scan_raw", t0, t1)))
        case other => throw new IllegalStateException(s"unexpected partition $other")
      }
      val w0      = System.nanoTime()
      val drained = Par.map(parts.toSeq, Main.sparkThreads)(one)
      val wallNs  = System.nanoTime() - w0
      drained.foreach(_.spans.foreach { case (name, t0, t1) => tracer.record(name, t0, t1) })
      val skipping = parts.exists {
        case p: ParquetChunkPartition => p.skipIds.nonEmpty
        case _                        => false
      }
      Scan(planNs, parts.length, skipping, scan.description(), drained.map(_.parquetNs).sum,
        drained.map(_.rawNs).sum, drained.map(_.skipNs).sum, wallNs, drained.map(_.decoded).sum,
        drained.map(_.parquetRows).sum, drained.map(_.rawRows).sum)
    }

  /** Row count from a Parquet file's footer. */
  def footerRows(path: String): Long = {
    val r = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(path), new Configuration(false)))
    try r.getRecordCount finally r.close()
  }

  private def conjuncts(e: Expression): Seq[Expression] = e match {
    case And(l, r) => conjuncts(l) ++ conjuncts(r)
    case other     => Seq(other)
  }

  /** Records the source filters Spark pushes into a scan builder. */
  private final class FilterCapture extends ScanBuilder with SupportsPushDownFilters {
    var pushed: Array[Filter] = Array.empty
    override def pushFilters(filters: Array[Filter]): Array[Filter] = { pushed = filters; filters }
    override def pushedFilters(): Array[Filter] = pushed
    override def build(): ReadScan = throw new UnsupportedOperationException("capture only")
  }

  /** What Spark plans for a query: the source filters it pushes (the
    * conjuncts of the optimized plan's filter, translated by Spark's own V2
    * push-down code) and its scan's description. No scan when the optimizer
    * proves the query empty.
    */
  final case class SparkPlan(pushed: Option[Array[Filter]], scanDescription: String)

  def sparkPlan(df: DataFrame, q: CiaoQuery): SparkPlan = {
    val qe   = df.where(q.whereSql).queryExecution
    val plan = qe.optimizedPlan
    val pushed =
      if (plan.collect { case r: DataSourceV2ScanRelation => r }.isEmpty) None
      else {
        val conds   = plan.collect { case f: logical.Filter => conjuncts(f.condition) }.flatten
        val capture = new FilterCapture
        PushDownUtils.pushFilters(capture, conds)
        Some(capture.pushed)
      }
    val desc = qe.sparkPlan.collect { case s: BatchScanExec => s.scan.description() }.headOption
    SparkPlan(pushed, desc.getOrElse(NoScan.description))
  }
}
