package ciaobench

import java.io.File
import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.client.ClientFilter
import repro.core.{BitVec, CiaoQuery}
import repro.harness.Harness
import repro.server.PartialLoader

/** One end-to-end cycle, the paper's budget point: select, client
  * prefilter, load, then the query batch through `format("ciao")`, one query
  * after another. Each stage is timed from outside around the public calls
  * that `Harness.run` makes; no stats field of the program is read.
  *
  * The prefilter and the load are short, so after the batch each is
  * repeated on the same inputs, outside the cycle's end-to-end interval,
  * to give more samples of them.
  */
object Cycle {

  /** Timed samples of the prefilter and of the load per cycle. */
  val StageSamples: Int = 5

  final case class Result(
      selection: Workloads.Selection,
      chunks: IndexedSeq[IndexedSeq[String]],
      bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
      selectNs: Long,
      prefilterNs: Vector[Long],
      loadNs: Vector[Long],
      queryNs: Vector[Long],
      e2eNs: Long,
      counts: Vector[Long],
      gcMs: Long,
  )

  def run(spark: SparkSession, b: Harness.Bundle, selectQueries: Vector[CiaoQuery],
          batch: Vector[CiaoQuery], dir: String, tracer: Tracer): Result = {
    val gc0 = gcMillis()
    val t0  = System.nanoTime()
    val sel = tracer.span("core.select")(Workloads.select(b, selectQueries))
    val t1  = System.nanoTime()
    def prefilter(): (IndexedSeq[IndexedSeq[String]], IndexedSeq[Map[Int, BitVec]]) = {
      val chunks = ClientFilter.chunk(b.dataset.lines, Workloads.ChunkSize)
      val bits: IndexedSeq[Map[Int, BitVec]] =
        if (sel.selected.isEmpty) chunks.map(_ => Map.empty[Int, BitVec])
        else ClientFilter.prefilter(chunks, sel.withIds).bitsPerChunk
      (chunks, bits)
    }
    val (chunks, bits) = tracer.span("client.prefilter")(prefilter())
    val t2 = System.nanoTime()
    def load(to: String): Unit =
      if (sel.covered)
        PartialLoader.loadPartial(to, b.dataset.schema, chunks, bits, sel.registry)
      else
        PartialLoader.loadFull(to, b.dataset.schema, chunks, bits, sel.registry)
    tracer.span("server.load")(load(dir))
    val t3 = System.nanoTime()
    val (queryNs, counts) = tracer.span("spark.batch") {
      val df = spark.read.format("ciao").load(dir)
      batch.map { q =>
        tracer.span("spark.query") {
          val q0 = System.nanoTime()
          val n  = df.where(q.whereSql).count()
          (System.nanoTime() - q0, n)
        }
      }.unzip
    }
    val t4 = System.nanoTime()
    def timed(body: => Unit): Long = {
      val s0 = System.nanoTime()
      body
      System.nanoTime() - s0
    }
    val morePrefilter = Vector.fill(StageSamples - 1)(timed(prefilter()))
    val moreLoad = Vector.tabulate(StageSamples - 1) { i =>
      val to = s"$dir-sample$i"
      try timed(load(to)) finally deleteRecursively(new File(to))
    }
    Result(sel, chunks, bits, t1 - t0, (t2 - t1) +: morePrefilter, (t3 - t2) +: moreLoad,
      queryNs, t4 - t0, counts, gcMillis() - gc0)
  }

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Peak resident memory of this JVM in MB (`VmHWM`). */
  def peakRssMb(): Double = {
    val line = scala.io.Source.fromFile("/proc/self/status").getLines()
      .find(_.startsWith("VmHWM:"))
      .getOrElse(throw new IllegalStateException("no VmHWM in /proc/self/status"))
    line.split("\\s+")(1).toDouble / 1024.0
  }

  def deleteRecursively(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteRecursively))
    f.delete()
    ()
  }

  /** Bytes of every file under `dir`, grouped by file-name suffix. */
  def bytesBySuffix(dir: String): Map[String, Long] = {
    def walk(f: File): Seq[File] =
      if (f.isDirectory) Option(f.listFiles()).toSeq.flatten.flatMap(walk) else Seq(f)
    walk(new File(dir)).groupBy { f =>
      val n = f.getName
      if (n.endsWith(".crc")) ".crc" else n.substring(math.max(0, n.lastIndexOf('.')))
    }.map { case (k, fs) => k -> fs.map(_.length).sum }
  }
}
