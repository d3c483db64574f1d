package repro.bench

import java.nio.file.Files

import org.apache.spark.sql.types.StructType
import org.scalatest.funsuite.AnyFunSuite

import repro.core.BitVec
import repro.datasource.{CiaoReaderFactory, ParquetChunkPartition}
import repro.json.JsonParser
import repro.server.{ChunkStore, ParquetIO, TableSchema}
import repro.workload.JsonDatasets

/** Per-chunk cost of the store's Parquet I/O: the median `writeChunk` time,
  * the median `ChunkRows` open + drain time (all columns; all columns under
  * a mask that keeps 1 row in 1,000; one column), and the median open +
  * drain time of the reader Spark's scan gets from `CiaoReaderFactory` (no
  * skip ids, so every row reaches `get()`), for one winlog chunk of 1,000
  * rows (every 4th row of a 4,000-row chunk, the share a partial load keeps
  * at selectivity 0.25; 4 string columns). Single-threaded, fixed rows and
  * seed, 10 warm-up rounds, then the median of 31 timed rounds. Each round
  * writes a new file, because `writeChunk` never overwrites.
  *
  * Run: `sbt "bench/testOnly repro.bench.ParquetIOBench"`.
  */
class ParquetIOBench extends AnyFunSuite {

  private val Warmup = 10
  private val Runs   = 31

  private def median(xs: Seq[Long]): Double = {
    val s = xs.sorted
    s(s.size / 2) / 1e6
  }

  test("ParquetIO: median write, open+drain and scan-reader ms for one 1,000-row winlog chunk") {
    val ds     = JsonDatasets.winlog(4000)
    val schema = ds.schema
    val rows   = ds.lines.indices.by(4).map(i => TableSchema.extractRow(schema, JsonParser.parseObject(ds.lines(i)))).toVector
    val dir    = Files.createTempDirectory("pio-bench")
    try {
      val oneIn1000 = BitVec.tabulate(rows.size)(_ % 1000 == 500)
      val oneColumn = new StructType().add(schema("level"))
      def drain(it: ParquetIO.ChunkRows): Int = {
        var n = 0
        try while (it.hasNext) { it.next(); n += 1 } finally it.close()
        n
      }
      // One round: write a fresh file, then open it and read it through
      // ChunkRows (every row, 1 row in 1,000, one column), then through the
      // scan's partition reader.
      def round(i: Int): (Vector[Long], Long) = {
        val path = dir.resolve(s"chunk-$i.parquet")
        val t0   = System.nanoTime()
        ParquetIO.writeChunk(path.toString, schema, rows)
        val t1   = System.nanoTime()
        val n    = drain(new ParquetIO.ChunkRows(path.toString, schema))
        val t2   = System.nanoTime()
        val k    = drain(new ParquetIO.ChunkRows(path.toString, schema, Some(oneIn1000)))
        val t3   = System.nanoTime()
        val c    = drain(new ParquetIO.ChunkRows(path.toString, oneColumn))
        val t4   = System.nanoTime()
        val r    = new CiaoReaderFactory().createReader(ParquetChunkPartition(path.toString, None, Array.empty, schema, None))
        var m    = 0
        try while (r.next()) { r.get(); m += 1 } finally r.close()
        val t5   = System.nanoTime()
        assert(n === rows.size && k === oneIn1000.cardinality && c === rows.size && m === rows.size)
        val bytes = Files.size(path)
        Files.delete(path)
        (Vector(t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4), bytes)
      }
      (0 until Warmup).foreach(round)
      val timed = (Warmup until Warmup + Runs).map(round)
      val Seq(write, read, masked, column, scan) = (0 until 5).map(j => median(timed.map(_._1(j))))
      println(f"== ParquetIO per-chunk cost: ${rows.size} rows x ${schema.size} cols, " +
        f"${timed.head._2}%,d B, median of $Runs after $Warmup warm-up ==")
      println(f"writeChunk            $write%8.2f ms")
      println(f"ChunkRows open+drain  $read%8.2f ms")
      println(f"  mask 1 in 1,000     $masked%8.2f ms")
      println(f"  column ${oneColumn.head.name}%-12s $column%8.2f ms")
      println(f"scan reader open+drain $scan%7.2f ms = ${scan * 1e6 / rows.size}%,.0f ns/row")
      println(s"hardware: ${Runtime.getRuntime.availableProcessors()} cpus, " +
        s"java ${System.getProperty("java.version")}, ${System.getProperty("os.arch")}")
    } finally ChunkStore.deleteRecursively(dir.toFile)
  }
}
