package ciaobench

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.{Encoders, SparkSession}
import org.apache.spark.sql.functions.{col, from_json}

import repro.core.{BitVec, CiaoQuery, Clause}
import repro.server.ChunkStore

/** Ground truth made apart from the program: Spark's built-in JSON reader
  * parses the generated lines, and Spark SQL evaluates each pushed clause
  * and each executed query on every object. Nothing of CIAO's parser, client
  * filter, loader, sidecars or data source takes part.
  */
final class Truth(val clauseRows: Vector[java.util.BitSet], val queryCounts: Vector[Long])

object Truth {
  def apply(spark: SparkSession, lines: Vector[String], clauses: Vector[Clause], queries: Vector[CiaoQuery]): Truth = {
    // Every generated object has the same keys and value types, so the
    // reader infers the schema from the first lines; a column it missed
    // would fail the evaluation below, not pass it.
    val schema = spark.read.json(spark.createDataset(lines.take(Workloads.SampleSize))(Encoders.STRING)).schema
    val parsed = spark.createDataFrame(lines.zipWithIndex.map { case (l, i) => (i, l) }).toDF("row", "line")
      .select(col("row"), from_json(col("line"), schema).as("j"))
      .select("row", "j.*")
    // Each condition becomes one bit of a 60-bit mask column, so collect()
    // returns one row id and a few longs per object.
    val conds = clauses.map(_.sql) ++ queries.map(_.whereSql)
    val masks = conds.grouped(60).map(_.zipWithIndex.map { case (c, i) =>
      s"shiftleft(cast(coalesce(($c), false) as bigint), $i)"
    }.mkString(" | ")).toVector
    val rows = parsed.selectExpr(("row" +: masks): _*).collect()
    require(rows.length == lines.size, s"JSON reader returned ${rows.length} rows for ${lines.size} lines")
    def holds(r: org.apache.spark.sql.Row, c: Int): Boolean = ((r.getLong(1 + c / 60) >> (c % 60)) & 1L) != 0L
    val sets   = Vector.fill(clauses.size)(new java.util.BitSet(lines.size))
    val counts = Array.fill(queries.size)(0L)
    rows.foreach { r =>
      val i = r.getInt(0)
      clauses.indices.foreach(c => if (holds(r, c)) sets(c).set(i))
      queries.indices.foreach(q => if (holds(r, clauses.size + q)) counts(q) += 1)
    }
    new Truth(sets, counts.toVector)
  }
}

/** The correctness gate. It runs after the timed cycles, on every workload
  * and in every run, and returns one message per fault found.
  */
object Gate {

  final case class Input(
      spec: Workloads.Spec,
      spark: SparkSession,
      lines: Vector[String],
      sel: Workloads.Selection,
      batch: Vector[CiaoQuery],
      truth: Truth,
      clientBits: IndexedSeq[Map[Int, BitVec]],
  )

  def check(in: Input, dir: String, countsPerCycle: Seq[Vector[Long]]): Vector[String] = {
    val out = Vector.newBuilder[String]
    def fail(msg: String): Unit = out += msg
    val ids = in.sel.registry.entries.map(_.id)

    // Load mode and pushed set equal what the pinned coefficients give.
    if (in.sel.covered != in.spec.expectPartial)
      fail(s"mode: ${mode(in.sel.covered)} load, expected ${mode(in.spec.expectPartial)}")
    if (in.sel.selected.size != in.spec.expectPushed)
      fail(s"pushed: ${in.sel.selected.size} predicates, expected ${in.spec.expectPushed}")

    // Every format("ciao") COUNT equals Spark's JSON reader COUNT.
    countsPerCycle.zipWithIndex.foreach { case (counts, c) =>
      counts.zip(in.truth.queryCounts).zip(in.batch).foreach { case ((got, want), q) =>
        if (got != want) fail(s"count: cycle $c, '${q.whereSql}': ciao $got, JSON reader $want")
      }
    }

    // The client's bit-vectors have no false negatives.
    in.clientBits.zipWithIndex.foreach { case (bits, ch) =>
      ids.foreach { id =>
        val truthRows = in.truth.clauseRows(id)
        val bv        = bits(id)
        var k = 0
        while (k < bv.nBits) {
          if (truthRows.get(ch * Workloads.ChunkSize + k) && !bv.get(k))
            fail(s"client: false negative, predicate $id, chunk $ch, object $k")
          k += 1
        }
      }
    }

    // Stored rows: Parquet footers + .raw lines account for every generated
    // object, and each stored sidecar bit is set wherever its clause holds.
    val chunkLines = Workloads.chunks(in.lines)
    var footerTotal, rawTotal = 0L
    chunkLines.indices.foreach { ch =>
      val lines   = chunkLines(ch)
      val pq      = ChunkStore.parquetPath(dir, ch)
      val footer  = if (new File(pq).exists()) Layers.footerRows(pq) else 0L
      val raw     = rawLines(ChunkStore.rawPath(dir, ch))
      footerTotal += footer
      rawTotal += raw.size
      if (footer + raw.size != lines.size)
        fail(s"rows: chunk $ch holds ${footer + raw.size} rows (Parquet $footer + raw ${raw.size}), generated ${lines.size}")
      else {
        val loaded = loadedPositions(lines, raw)
        if (loaded.isEmpty) fail(s"rows: chunk $ch .raw lines are not the chunk's unloaded objects in order")
        loaded.foreach { pos =>
          val base = ch * Workloads.ChunkSize
          val unloaded = lines.indices.toSet -- pos
          unloaded.foreach { k =>
            ids.foreach { id =>
              if (in.truth.clauseRows(id).get(base + k))
                fail(s"store: chunk $ch object $k left raw but satisfies pushed predicate $id")
            }
          }
          val sidecarFile = ChunkStore.bitsPath(dir, ch)
          if (pos.nonEmpty && ids.nonEmpty) {
            if (!new File(sidecarFile).exists()) fail(s"sidecar: chunk $ch has no sidecar")
            else {
              val sidecar = readSidecar(sidecarFile)
              if (sidecar.keySet != ids.toSet)
                fail(s"sidecar: chunk $ch holds predicates ${sidecar.keySet.toSeq.sorted}, registry ${ids.sorted}")
              sidecar.foreach { case (id, (nBits, words)) =>
                if (nBits != pos.size) fail(s"sidecar: chunk $ch predicate $id has $nBits bits for ${pos.size} rows")
                else if (ids.contains(id)) pos.indices.foreach { r =>
                  val set = (words(r >> 6) & (1L << (r & 63))) != 0L
                  if (!set && in.truth.clauseRows(id).get(base + pos(r)))
                    fail(s"sidecar: false negative, chunk $ch row $r predicate $id")
                }
              }
            }
          }
        }
      }
    }
    if (footerTotal + rawTotal != in.lines.size)
      fail(s"rows: store holds ${footerTotal + rawTotal} rows (Parquet $footerTotal + raw $rawTotal), generated ${in.lines.size}")

    val df  = in.spark.read.format("ciao").load(dir)
    val all = df.count()
    if (all != in.lines.size) fail(s"rows: unfiltered ciao count $all, generated ${in.lines.size}")

    // An unfiltered direct scan decodes exactly the rows the footers record.
    val off  = new Tracer(false)
    val full = Layers.directScan(dir, df.schema, Array.empty, off)
    if (full.parquetEmitted != footerTotal)
      fail(s"scan: unfiltered direct scan decoded ${full.parquetEmitted} Parquet rows, footers record $footerTotal")
    if (full.rawParsed != rawTotal)
      fail(s"scan: unfiltered direct scan parsed ${full.rawParsed} raw rows, .raw files hold $rawTotal")

    // Per query: COUNT ≤ rows emitted ≤ rows decoded, and the direct
    // planning matches the scan Spark plans (none when Spark's optimizer
    // proves the query empty). A repeated query plans and scans the same.
    in.batch.zip(in.truth.queryCounts).distinctBy(_._1.whereSql).foreach { case (q, want) =>
      val plan = Layers.sparkPlan(df, q)
      val s    = Layers.queryScan(df, dir, plan, off)
      if (!(want <= s.rowsEmitted && s.rowsEmitted <= s.rowsDecoded))
        fail(s"scan: '${q.whereSql}': count $want, emitted ${s.rowsEmitted}, decoded ${s.rowsDecoded}")
      if (plan.scanDescription != s.description)
        fail(s"plan: '${q.whereSql}': direct '${s.description}', Spark '${plan.scanDescription}'")
    }
    out.result()
  }

  def mode(partial: Boolean): String = if (partial) "partial" else "full"

  /** Lines of a `.raw` file, read without the program's reader. */
  def rawLines(path: String): Vector[String] = {
    val f = new File(path)
    if (!f.exists()) Vector.empty
    else {
      val text = new String(Files.readAllBytes(f.toPath), StandardCharsets.UTF_8)
      if (text.isEmpty) Vector.empty else text.split("\n", -1).toVector
    }
  }

  /** Positions of the loaded objects of a chunk: those not matched, in
    * order, by its raw lines. None if the raw lines are not a subsequence.
    */
  def loadedPositions(lines: IndexedSeq[String], raw: Vector[String]): Option[IndexedSeq[Int]] = {
    val loaded = IndexedSeq.newBuilder[Int]
    var r = 0
    lines.indices.foreach { k =>
      if (r < raw.size && lines(k) == raw(r)) r += 1 else loaded += k
    }
    if (r == raw.size) Some(loaded.result()) else None
  }

  private val SidecarMagic = 0x43414f42

  /** A sidecar file: predicate id → (bit count, words). */
  def readSidecar(path: String): Map[Int, (Int, Array[Long])] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path)))
    try {
      require(in.readInt() == SidecarMagic, s"bad sidecar magic in $path")
      Vector.fill(in.readInt()) {
        val id    = in.readInt()
        val nBits = in.readInt()
        val words = Array.fill(in.readInt())(in.readLong())
        id -> (nBits, words)
      }.toMap
    } finally in.close()
  }

  def writeSidecar(path: String, sidecar: Map[Int, (Int, Array[Long])]): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path)))
    try {
      out.writeInt(SidecarMagic)
      out.writeInt(sidecar.size)
      sidecar.toSeq.sortBy(_._1).foreach { case (id, (nBits, words)) =>
        out.writeInt(id); out.writeInt(nBits); out.writeInt(words.length); words.foreach(out.writeLong)
      }
    } finally out.close()
  }

  /** Self-test: inject one fault into each of two copies of a loaded store
    * and show that the gate reports it. Returns the lines to print and
    * whether every fault was caught (and the clean copy passed).
    */
  def selfTest(in: Input, store: String, scratch: String, counts: Vector[Long]): (Vector[String], Boolean) = {
    val log = Vector.newBuilder[String]
    def copy(name: String): String = {
      val dst = Paths.get(scratch, name)
      Cycle.deleteRecursively(dst.toFile)
      Files.walk(Paths.get(store)).sorted().forEach { p =>
        val q = dst.resolve(Paths.get(store).relativize(p))
        if (Files.isDirectory(p)) Files.createDirectories(q) else Files.copy(p, q)
      }
      dst.toString
    }
    def rerun(dir: String): Vector[Long] = {
      val df = in.spark.read.format("ciao").load(dir)
      in.batch.map(q => df.where(q.whereSql).count())
    }

    val clean       = check(in, copy("clean"), Seq(counts))
    val cleanPassed = clean.isEmpty
    log += s"clean copy: ${if (cleanPassed) "passes" else "FAILS: " + clean.mkString("; ")}"

    // Fault 1: clear one sidecar bit that is set on a row satisfying its clause.
    val flipped = copy("flipped-bit")
    val ids     = in.sel.registry.entries.map(_.id)
    val chunkLines = Workloads.chunks(in.lines)
    val target = chunkLines.indices.iterator.flatMap { ch =>
      val side = ChunkStore.bitsPath(flipped, ch)
      if (!new File(side).exists()) Iterator.empty
      else {
        val pos     = loadedPositions(chunkLines(ch), rawLines(ChunkStore.rawPath(flipped, ch))).get
        val sidecar = readSidecar(side)
        ids.iterator.flatMap { id =>
          val (_, words) = sidecar(id)
          pos.indices.find(r => (words(r >> 6) & (1L << (r & 63))) != 0L &&
            in.truth.clauseRows(id).get(ch * Workloads.ChunkSize + pos(r))).map(r => (ch, id, r, sidecar))
        }
      }
    }.nextOption()
    val bitCaught = target match {
      case None =>
        log += "flipped bit: no set sidecar bit on a matching row to flip"
        false
      case Some((ch, id, r, sidecar)) =>
        val (nBits, words) = sidecar(id)
        val w = words.clone()
        w(r >> 6) &= ~(1L << (r & 63))
        writeSidecar(ChunkStore.bitsPath(flipped, ch), sidecar.updated(id, (nBits, w)))
        val faults = check(in, flipped, Seq(rerun(flipped)))
        log += s"flipped bit (chunk $ch, predicate $id, row $r): ${faults.size} fault(s) reported"
        faults.take(3).foreach(f => log += s"  $f")
        faults.exists(_.startsWith("sidecar: false negative"))
    }

    // Fault 2: drop the last line of one .raw file.
    val truncated = copy("truncated-raw")
    val rawChunk  = chunkLines.indices.find(ch => rawLines(ChunkStore.rawPath(truncated, ch)).size >= 2)
    val rawCaught = rawChunk match {
      case None =>
        log += "truncated raw: the store has no .raw file with two lines"
        false
      case Some(ch) =>
        val path  = Paths.get(ChunkStore.rawPath(truncated, ch))
        val bytes = Files.readAllBytes(path)
        val cut   = bytes.lastIndexOf('\n'.toByte)
        Files.write(path, java.util.Arrays.copyOf(bytes, cut))
        val faults = check(in, truncated, Seq(rerun(truncated)))
        log += s"truncated raw (chunk $ch): ${faults.size} fault(s) reported"
        faults.take(3).foreach(f => log += s"  $f")
        faults.exists(_.startsWith("rows:"))
    }
    (log.result(), cleanPassed && bitCaught && rawCaught)
  }
}
