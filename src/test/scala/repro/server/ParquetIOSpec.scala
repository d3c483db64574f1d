package repro.server

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.json.JsonParser
import TableSchema._

/** Parquet Group-API chunk IO: write/read round-trips, nulls, ordering. */
class ParquetIOSpec extends AnyFunSuite {

  private val schema = TableSchema(Vector(
    Col("s", CString), Col("l", CLong), Col("d", CDouble), Col("b", CBool)))

  private def tmpFile(): String =
    Files.createTempDirectory("pio").resolve("c.parquet").toString

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

  test("messageType declares one optional field per column") {
    val mt = ParquetIO.messageType(schema)
    assert(mt.getFieldCount === 4)
    schema.cols.foreach(c => assert(mt.containsField(c.name)))
  }
}
