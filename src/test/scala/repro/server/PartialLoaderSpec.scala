package repro.server

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.client.ClientFilter
import repro.core._
import repro.workload.JsonDatasets

/** Partial data loading (paper §VI-A): only objects valid for ≥1 pushed
  * predicate become Parquet rows; the rest stay raw; sidecars are compacted
  * to loaded-row positions.
  */
class PartialLoaderSpec extends AnyFunSuite {

  private def tmpDir(): String = Files.createTempDirectory("loader").toString

  private val ds = JsonDatasets.yelp(1200, seed = 42)
  private val clauses = Vector(
    Clause(KeyValueMatch("stars", "5")),
    Clause(SubstringMatch("text", "delicious")))
  private val registry = ChunkStore.Registry(clauses.zipWithIndex.map { case (c, i) =>
    ChunkStore.RegEntry(i, c, 0.2, 0.1)
  })
  private val chunks = ClientFilter.chunk(ds.lines, 500)
  private val bits   = chunks.map(ClientFilter.chunkBits(_, registry.entries.map(e => e.id -> e.clause)))

  test("partial load splits rows into parquet and raw by the OR of bits") {
    val dir   = tmpDir()
    val stats = PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    assert(stats.totalRows === ds.lines.size)
    val expectedLoaded = chunks.zip(bits).map { case (ls, b) =>
      BitVec.unionAll(ls.size, b.values.toSeq).cardinality
    }.sum
    assert(stats.loadedRows === expectedLoaded)
    assert(stats.loadedRows > 0 && stats.loadedRows < stats.totalRows)

    val files = ChunkStore.listChunks(dir)
    val parquetRows = files.flatMap(_.parquet).map(p => ParquetIO.readChunk(p, ds.schema).size).sum
    val rawRows     = files.flatMap(_.raw).map(p => ChunkStore.readRawLines(p).size).sum
    assert(parquetRows === stats.loadedRows)
    assert(parquetRows + rawRows === stats.totalRows)
  }

  test("sidecar bit-vectors are compacted to loaded rows and aligned") {
    val dir = tmpDir()
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    ChunkStore.listChunks(dir).foreach { cf =>
      (cf.parquet, cf.bits) match {
        case (Some(pq), Some(bp)) =>
          val rows    = ParquetIO.readChunk(pq, ds.schema)
          val sidecar = ChunkStore.readBits(bp)
          sidecar.values.foreach(bv => assert(bv.nBits === rows.size, "sidecar aligned to loaded rows"))
          // every loaded row has at least one set bit across predicates
          rows.indices.foreach { i =>
            assert(sidecar.values.exists(_.get(i)), s"row $i loaded but valid for no predicate")
          }
          // bit=1 for stars=5 implies the row's stars column may be 5 (client
          // semantics allow false positives but loaded values must verify for
          // true positives): typed recheck via parquet content
          val starsIdx = ds.schema.names.indexOf("stars")
          rows.indices.foreach { i =>
            val isFive = !rows(i).isNullAt(starsIdx) && rows(i).getLong(starsIdx) == 5L
            if (isFive) assert(sidecar(0).get(i), "no false negatives survive loading")
          }
        case _ => ()
      }
    }
  }

  test("raw remainder contains exactly the rows failing every pushed predicate") {
    val dir = tmpDir()
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    val rawLines = ChunkStore.listChunks(dir).flatMap(_.raw).flatMap(ChunkStore.readRawLines)
    rawLines.foreach { l =>
      clauses.foreach(cl => assert(!ClientFilter.matchClause(l, cl),
        s"raw line matches a pushed predicate: $l"))
    }
  }

  test("empty bits (nothing pushed) degrades to a full load") {
    val dir   = tmpDir()
    val stats = PartialLoader.loadPartial(dir, ds.schema, chunks, chunks.map(_ => Map.empty[Int, BitVec]),
      ChunkStore.Registry(Vector.empty))
    assert(stats.loadedRows === stats.totalRows)
    assert(ChunkStore.listChunks(dir).forall(_.raw.isEmpty))
  }

  test("full load parses every row and keeps sidecars uncompacted") {
    val dir   = tmpDir()
    val stats = PartialLoader.loadFull(dir, ds.schema, chunks, bits, registry)
    assert(stats.loadedRows === ds.lines.size)
    assert(stats.loadedRatio === 1.0)
    val files = ChunkStore.listChunks(dir)
    assert(files.forall(_.raw.isEmpty))
    files.foreach { cf =>
      val sidecar = ChunkStore.readBits(cf.bits.get)
      val rows    = ParquetIO.readChunk(cf.parquet.get, ds.schema)
      sidecar.values.foreach(bv => assert(bv.nBits === rows.size))
      assert(sidecar === bits(cf.id))
    }
  }

  test("partial load with all-matching predicate loads everything") {
    val presence = Clause(KeyPresence("stars"))
    val reg      = ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, presence, 1.0, 0.1)))
    val b        = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> presence)))
    val dir      = tmpDir()
    val stats    = PartialLoader.loadPartial(dir, ds.schema, chunks, b, reg)
    assert(stats.loadedRatio === 1.0)
  }

  test("partial load with a never-matching predicate loads nothing") {
    val never = Clause(ExactMatch("user_id", "zz-no-such-user"))
    val reg   = ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, never, 0.0, 0.1)))
    val b     = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> never)))
    val dir   = tmpDir()
    val stats = PartialLoader.loadPartial(dir, ds.schema, chunks, b, reg)
    assert(stats.loadedRows === 0L)
    val files = ChunkStore.listChunks(dir)
    assert(files.forall(_.parquet.isEmpty))
    assert(files.flatMap(_.raw).flatMap(ChunkStore.readRawLines).size === ds.lines.size)
  }

  test("chunk/bits count mismatch is rejected") {
    intercept[IllegalArgumentException](
      PartialLoader.loadPartial(tmpDir(), ds.schema, chunks, bits.tail, registry))
  }

  test("load stats report wall time and ratios") {
    val dir   = tmpDir()
    val stats = PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    assert(stats.elapsedNanos > 0)
    assert(stats.elapsedMillis > 0.0)
    assert(stats.loadedRatio > 0.0 && stats.loadedRatio < 1.0)
    assert(stats.nChunks === chunks.size)
  }

  test("partial load is much smaller than full load for selective predicates") {
    val selective = Clause(ExactMatch("user_id", "u000"))
    val reg       = ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, selective, 0.005, 0.1)))
    val b         = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> selective)))
    val dir       = tmpDir()
    val stats     = PartialLoader.loadPartial(dir, ds.schema, chunks, b, reg)
    assert(stats.loadedRatio < 0.05, s"ratio=${stats.loadedRatio}")
  }
}
