package repro.bench

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.datasource.{CiaoReaderFactory, ParquetChunkPartition}
import repro.json.JsonParser
import repro.server.{ChunkStore, ParquetIO, TableSchema}
import repro.workload.JsonDatasets

/** Per-chunk cost of the store's Parquet I/O: the median `writeChunk` time,
  * the median `ChunkRows` open + drain time, and the median open + drain
  * time of the reader Spark's scan gets from `CiaoReaderFactory` (no skip
  * ids, so every row reaches `get()`), for one winlog chunk of 1,000 rows
  * (every 4th row of a 4,000-row chunk, the share a partial load keeps at
  * selectivity 0.25; 4 string columns). Single-threaded, fixed
  * rows and seed, 10 warm-up rounds, then the median of 31 timed rounds.
  * Each round writes a new file, because `writeChunk` never overwrites.
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
      // One round: write a fresh file, then open it and read every row,
      // first through ChunkRows, then through the scan's partition reader.
      def round(i: Int): (Long, Long, Long, Long) = {
        val path = dir.resolve(s"chunk-$i.parquet")
        val t0   = System.nanoTime()
        ParquetIO.writeChunk(path.toString, schema, rows)
        val t1   = System.nanoTime()
        val it   = new ParquetIO.ChunkRows(path.toString, schema)
        var n    = 0
        try while (it.hasNext) { it.next(); n += 1 } finally it.close()
        val t2   = System.nanoTime()
        val r    = new CiaoReaderFactory().createReader(ParquetChunkPartition(path.toString, None, Array.empty, schema))
        var m    = 0
        try while (r.next()) { r.get(); m += 1 } finally r.close()
        val t3   = System.nanoTime()
        assert(n === rows.size && m === rows.size)
        val bytes = Files.size(path)
        Files.delete(path)
        (t1 - t0, t2 - t1, t3 - t2, bytes)
      }
      (0 until Warmup).foreach(round)
      val timed = (Warmup until Warmup + Runs).map(round)
      val write = median(timed.map(_._1))
      val read  = median(timed.map(_._2))
      val scan  = median(timed.map(_._3))
      println(f"== ParquetIO per-chunk cost: ${rows.size} rows x ${schema.size} cols, " +
        f"${timed.head._4}%,d B, median of $Runs after $Warmup warm-up ==")
      println(f"writeChunk            $write%8.2f ms")
      println(f"ChunkRows open+drain  $read%8.2f ms")
      println(f"scan reader open+drain $scan%7.2f ms = ${scan * 1e6 / rows.size}%,.0f ns/row")
      println(s"hardware: ${Runtime.getRuntime.availableProcessors()} cpus, " +
        s"java ${System.getProperty("java.version")}, ${System.getProperty("os.arch")}")
    } finally ChunkStore.deleteRecursively(dir.toFile)
  }
}
