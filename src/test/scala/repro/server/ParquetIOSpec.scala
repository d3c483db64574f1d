package repro.server

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.json.JsonParser
import TableSchema._

/** Parquet Group-API chunk IO: write/read round-trips, nulls, ordering,
  * and the local-file contract (no side files, no overwrite, no silent
  * empty read).
  */
class ParquetIOSpec extends AnyFunSuite {
  import ParquetIOSpec._

  test("round-trips typed rows in order") {
    val rows: Vector[Array[Any]] = Vector(
      Array[Any]("alpha", java.lang.Long.valueOf(1L), java.lang.Double.valueOf(1.5), java.lang.Boolean.TRUE),
      Array[Any]("beta", java.lang.Long.valueOf(-7L), java.lang.Double.valueOf(0.0), java.lang.Boolean.FALSE),
      Array[Any]("gamma", java.lang.Long.valueOf(99L), java.lang.Double.valueOf(-2.25), java.lang.Boolean.TRUE))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.size === 3)
    got.zip(rows).foreach { case (g, e) => assert(g.toSeq === e.toSeq) }
  }

  test("round-trips nulls in any column") {
    val rows: Vector[Array[Any]] = Vector(
      Array[Any](null, java.lang.Long.valueOf(1L), null, java.lang.Boolean.TRUE),
      Array[Any]("x", null, java.lang.Double.valueOf(2.0), null))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got(0).toSeq === rows(0).toSeq)
    assert(got(1).toSeq === rows(1).toSeq)
  }

  test("round-trips an empty chunk") {
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, Vector.empty)
    assert(ParquetIO.readChunk(path, schema).isEmpty)
  }

  test("round-trips unicode and special characters in strings") {
    val rows: Vector[Array[Any]] = Vector(
      Array[Any]("héllo wörld ✓", java.lang.Long.valueOf(0L), java.lang.Double.valueOf(0), java.lang.Boolean.TRUE),
      Array[Any]("quotes \" and \\ slashes", java.lang.Long.valueOf(0L), java.lang.Double.valueOf(0), java.lang.Boolean.FALSE))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.map(_(0)) === rows.map(_(0)))
  }

  test("streaming reader yields the same rows as eager read") {
    val rows = Vector.tabulate(500) { i =>
      Array[Any](s"row$i", java.lang.Long.valueOf(i.toLong), java.lang.Double.valueOf(i / 2.0),
        java.lang.Boolean.valueOf(i % 2 == 0))
    }
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val it  = new ParquetIO.ChunkRows(path, schema)
    val got = try it.toVector finally it.close()
    assert(got.size === 500)
    assert(got(123).toSeq === rows(123).toSeq)
  }

  test("extractRow maps JSON fields by name and type") {
    val obj = JsonParser.parseObject("""{"l":42,"s":"hi","b":false,"d":2.5,"extra":1}""")
    val row = TableSchema.extractRow(schema, obj)
    assert(row.toSeq === Seq("hi", 42L, 2.5, false))
    for ((lexeme, value) <- Seq("9007199254740993" -> 9007199254740993L, "1e2" -> 100L)) {
      val r = TableSchema.extractRow(schema, JsonParser.parseObject(s"""{"l":$lexeme}"""))
      assert(r(1) === value, lexeme)
    }
  }

  test("extractRow nulls missing and type-mismatched fields") {
    val obj = TableSchema.extractRow(schema, JsonParser.parseObject("""{"s":5,"l":"x","d":true}"""))
    assert(obj.toSeq === Seq(null, null, null, null))
    assert(TableSchema.extractRow(schema, JsonParser.parseObject("""{"l":1.7}""")).toSeq === Seq(null, null, null, null))
  }

  test("writeChunk leaves no file but the chunk itself (no .crc)") {
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, sampleRows)
    val dir = Paths.get(path).getParent
    val names = Files.list(dir).iterator().asScala.map(_.getFileName.toString).toVector
    assert(names === Vector("c.parquet"))
  }

  test("writeChunk onto an existing path fails and keeps the old file") {
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, sampleRows)
    val before = Files.readAllBytes(Paths.get(path)).toSeq
    intercept[java.nio.file.FileAlreadyExistsException](ParquetIO.writeChunk(path, schema, sampleRows.take(1)))
    assert(Files.readAllBytes(Paths.get(path)).toSeq === before)
    assert(ParquetIO.readChunk(path, schema).size === sampleRows.size)
  }

  test("opening a missing chunk file throws instead of yielding no rows") {
    val path = tmpFile()
    intercept[java.io.IOException](new ParquetIO.ChunkRows(path, schema))
  }

  test("messageType declares one optional field per column") {
    val mt = ParquetIO.messageType(schema)
    assert(mt.getFieldCount === 4)
    schema.cols.foreach(c => assert(mt.containsField(c.name)))
  }
}

object ParquetIOSpec {
  val schema: TableSchema = TableSchema(Vector(
    Col("s", CString), Col("l", CLong), Col("d", CDouble), Col("b", CBool)))

  /** Every column type, nulls included, and a long above 2^53. */
  val sampleRows: Vector[Array[Any]] = Vector.tabulate(50) { i =>
    Array[Any](
      if (i % 7 == 0) null else s"row $i ✓",
      if (i % 5 == 0) null else java.lang.Long.valueOf(9007199254740993L + i),
      if (i % 3 == 0) null else java.lang.Double.valueOf(i * 0.25),
      if (i % 4 == 0) null else java.lang.Boolean.valueOf(i % 2 == 0))
  }

  def tmpFile(): String =
    Files.createTempDirectory("pio").resolve("c.parquet").toString
}

/** Chunks written by [[ParquetIO.writeChunk]] are standard Parquet: Spark's
  * built-in reader sees the same values.
  */
class ParquetIOSparkSpec extends SparkSpec {
  import ParquetIOSpec._

  test("a chunk reads back with equal values through spark.read.parquet") {
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, sampleRows)
    val df = spark.read.parquet(path)
    assert(df.columns.toSeq === schema.names)
    val got = df.collect().map(r => Seq.tabulate(r.length)(r.get))
    assert(got.toSeq === sampleRows.map(_.toSeq))
  }
}
