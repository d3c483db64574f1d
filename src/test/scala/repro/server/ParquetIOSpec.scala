package repro.server

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.unsafe.types.UTF8String
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.datasource.CiaoDataSource
import repro.json.{JsonParser, JsonValue}
import TableSchema._

/** Parquet Group-API chunk IO: write/read round-trips, nulls, ordering,
  * and the local-file contract (no side files, no overwrite, no silent
  * empty read).
  */
class ParquetIOSpec extends AnyFunSuite {
  import ParquetIOSpec._

  test("round-trips typed rows in order") {
    val rows = Vector(
      row("alpha", 1L, 1.5, true),
      row("beta", -7L, 0.0, false),
      row("gamma", 99L, -2.25, true))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    assert(ParquetIO.readChunk(path, schema) === rows)
  }

  test("round-trips nulls in any column") {
    val rows = Vector(row(null, 1L, null, true), row("x", null, 2.0, null))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    assert(ParquetIO.readChunk(path, schema) === rows)
  }

  test("round-trips an empty chunk") {
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, Vector.empty)
    assert(ParquetIO.readChunk(path, schema).isEmpty)
  }

  test("round-trips unicode and special characters in strings") {
    val rows = unicodeStrings.map(row(_, 0L, 0.0, true))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.map(_.getUTF8String(0).toString) === unicodeStrings)
  }

  test("streaming reader yields the same rows as eager read") {
    val rows = Vector.tabulate(500)(i => row(s"row$i", i.toLong, i / 2.0, i % 2 == 0))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val it  = new ParquetIO.ChunkRows(path, schema)
    val got = try it.toVector finally it.close()
    assert(got.size === 500)
    assert(got(123) === rows(123))
  }

  test("extractRow maps JSON fields by name and type") {
    val obj = JsonParser.parseObject("""{"l":42,"s":"hi","b":false,"d":2.5,"extra":1}""")
    assert(TableSchema.extractRow(schema, obj) === row("hi", 42L, 2.5, false))
    for ((lexeme, value) <- Seq("9007199254740993" -> 9007199254740993L, "1e2" -> 100L)) {
      val r = TableSchema.extractRow(schema, JsonParser.parseObject(s"""{"l":$lexeme}"""))
      assert(r.getLong(1) === value, lexeme)
    }
  }

  test("extractRow nulls missing and type-mismatched fields") {
    val obj = TableSchema.extractRow(schema, JsonParser.parseObject("""{"s":5,"l":"x","d":true}"""))
    assert(obj === row(null, null, null, null))
    assert(TableSchema.extractRow(schema, JsonParser.parseObject("""{"l":1.7}""")) === row(null, null, null, null))
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

  /** A row of `schema` from external values: a `String` becomes a
    * `UTF8String`; `Long`, `Double`, `Boolean` and `null` are boxed as is.
    */
  def row(values: Any*): InternalRow =
    new GenericInternalRow(values.map {
      case s: String => UTF8String.fromString(s)
      case v         => v
    }.toArray)

  /** The values of an internal row of `schema` as a Spark `Row` holds them. */
  def external(r: InternalRow): Seq[Any] =
    r.toSeq(CiaoDataSource.sparkSchema(schema)).map {
      case s: UTF8String => s.toString
      case v             => v
    }

  /** Multi-byte UTF-8, a character outside the BMP (a surrogate pair in a
    * Java `String`), and JSON's escape characters.
    */
  val unicodeStrings: Vector[String] = Vector("héllo wörld ✓", "grin 😀 ok", "quotes \" and \\ slashes")

  /** Every column type, nulls included, and a long above 2^53. */
  val sampleRows: Vector[InternalRow] = Vector.tabulate(50) { i =>
    row(
      if (i % 7 == 0) null else s"row $i ✓",
      if (i % 5 == 0) null else 9007199254740993L + i,
      if (i % 3 == 0) null else i * 0.25,
      if (i % 4 == 0) null else i % 2 == 0)
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
    assert(got.toSeq === sampleRows.map(external))
  }

  test("unicode strings read back equal through format(\"ciao\"), from Parquet and from raw JSON") {
    val dir = Files.createTempDirectory("pio-ciao").toString
    ChunkStore.init(dir)
    ChunkStore.writeSchema(dir, schema)
    ChunkStore.writeRegistry(dir, ChunkStore.Registry(Vector.empty))
    ParquetIO.writeChunk(ChunkStore.parquetPath(dir, 0), schema, unicodeStrings.map(row(_, 0L, 0.0, true)))
    ChunkStore.writeRawLines(ChunkStore.rawPath(dir, 1), unicodeStrings.map(s => s"""{"s":${JsonValue.quote(s)}}"""))
    val got = spark.read.format("ciao").load(dir).collect().map(_.getString(0))
    assert(got.sorted.toSeq === (unicodeStrings ++ unicodeStrings).sorted)
  }
}
