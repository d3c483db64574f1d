package repro.server

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

import repro.core._

/** Store layout, registry/schema codecs and sidecar IO. */
class ChunkStoreSpec extends AnyFunSuite {

  private def tmpDir(): String = Files.createTempDirectory("store").toString

  private val registry = ChunkStore.Registry(Vector(
    ChunkStore.RegEntry(0, Clause(ExactMatch("name", "Bob")), 0.05, 0.12),
    ChunkStore.RegEntry(1, Clause(SubstringMatch("text", "delicious"), KeyValueMatch("age", "10")), 0.2, 0.33),
    ChunkStore.RegEntry(2, Clause(KeyPresence("email")), 0.9, 0.07),
  ))

  private val schema =
    new StructType().add("name", StringType).add("age", LongType).add("score", DoubleType).add("ok", BooleanType)

  test("init creates a fresh store and wipes previous content") {
    val dir = tmpDir()
    ChunkStore.init(dir)
    Files.write(java.nio.file.Paths.get(ChunkStore.chunksDir(dir), "junk.txt"), "x".getBytes)
    ChunkStore.init(dir)
    assert(ChunkStore.listChunks(dir).isEmpty)
  }

  test("registry round-trips all atom kinds, ids, sel and cost") {
    val dir = tmpDir(); ChunkStore.init(dir)
    ChunkStore.writeRegistry(dir, registry)
    val got = ChunkStore.readRegistry(dir)
    assert(got.entries === registry.entries)
  }

  test("registry canonical index finds clauses regardless of atom order") {
    val reordered = Clause(KeyValueMatch("age", "10"), SubstringMatch("text", "delicious"))
    assert(registry.byCanonical.contains(reordered.canonical))
  }

  test("empty registry round-trips") {
    val dir = tmpDir(); ChunkStore.init(dir)
    ChunkStore.writeRegistry(dir, ChunkStore.Registry(Vector.empty))
    assert(ChunkStore.readRegistry(dir).isEmpty)
  }

  test("schema round-trips all column types") {
    val dir = tmpDir(); ChunkStore.init(dir)
    ChunkStore.writeSchema(dir, schema)
    assert(ChunkStore.readSchema(dir) === schema)
    val text = new String(Files.readAllBytes(Paths.get(ChunkStore.schemaPath(dir))), "UTF-8")
    assert(DataType.fromJson(text) === schema, "schema.json is Spark's StructType JSON")
  }

  test("sidecar bits round-trip through files") {
    val dir = tmpDir(); ChunkStore.init(dir)
    val bits = Map(0 -> BitVec.tabulate(3)(Vector(true, false, true)), 2 -> BitVec.full(70))
    val p = ChunkStore.bitsPath(dir, 0)
    ChunkStore.writeBits(p, bits)
    assert(ChunkStore.readBits(p) === bits)
  }

  test("raw lines round-trip including empty file") {
    val dir = tmpDir(); ChunkStore.init(dir)
    val p = ChunkStore.rawPath(dir, 3)
    ChunkStore.writeRawLines(p, Vector("""{"a":1}""", """{"b":2}"""))
    assert(ChunkStore.readRawLines(p) === Vector("""{"a":1}""", """{"b":2}"""))
    ChunkStore.writeRawLines(ChunkStore.rawPath(dir, 4), Vector.empty)
    assert(ChunkStore.readRawLines(ChunkStore.rawPath(dir, 4)) === Vector.empty)
  }

  test("listChunks groups files by chunk id with optional parts") {
    val dir = tmpDir(); ChunkStore.init(dir)
    ChunkStore.writeRawLines(ChunkStore.rawPath(dir, 0), Vector("{}"))
    ChunkStore.writeBits(ChunkStore.bitsPath(dir, 1), Map(0 -> BitVec.full(2)))
    ParquetIO.writeChunk(ChunkStore.parquetPath(dir, 1), schema, Vector.empty)
    val chunks = ChunkStore.listChunks(dir)
    assert(chunks.map(_.id) === Vector(0, 1))
    assert(chunks(0).parquet.isEmpty && chunks(0).raw.nonEmpty)
    assert(chunks(1).parquet.nonEmpty && chunks(1).bits.nonEmpty && chunks(1).raw.isEmpty)
  }

  test("paths are zero-padded and sorted numerically") {
    val dir = tmpDir()
    assert(ChunkStore.parquetPath(dir, 7).endsWith("chunk-00007.parquet"))
    assert(ChunkStore.bitsPath(dir, 123).endsWith("chunk-00123.bits"))
    assert(ChunkStore.rawPath(dir, 0).endsWith("chunk-00000.raw"))
  }

  test("unknown atom kind in registry JSON fails loudly") {
    val dir = tmpDir(); ChunkStore.init(dir)
    Files.write(java.nio.file.Paths.get(ChunkStore.registryPath(dir)),
      """{"predicates":[{"id":0,"sel":0.1,"cost":0.1,"atoms":[{"kind":"range","attr":"x"}]}]}""".getBytes)
    intercept[IllegalArgumentException](ChunkStore.readRegistry(dir))
  }
}
