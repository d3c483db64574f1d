package repro.server

import repro.core._
import repro.json.JsonParser

/** Server-side loading (paper §VI-A, Step 2 of Fig. 1).
  *
  * Both loads run the same loop over chunks and differ only in the
  * keep-mask they pass per chunk. The objects whose mask bit is 1 are
  * parsed and written to the chunk's Parquet file; the rest are appended,
  * unparsed, to a per-chunk `.raw` file for just-in-time loading. The
  * sidecar bit-vectors are compacted to the kept positions so that at query
  * time bit i refers to row i of the chunk's Parquet file.
  *
  * `loadPartial` keeps the objects whose OR over all pushed-predicate bits
  * is 1 (every object when nothing was pushed). `loadFull` is the
  * zero-budget baseline and keeps every object; compacting to all positions
  * is the identity, so its sidecars are the client's bit-vectors as sent,
  * which isolates the effect of data skipping alone.
  */
object PartialLoader {

  /** Loading outcome + wall time of the whole call, store set-up included
    * (the paper's "Data loading" series).
    */
  final case class LoadStats(totalRows: Long, loadedRows: Long, nChunks: Int, elapsedNanos: Long) {
    def loadedRatio: Double  = if (totalRows == 0) 0.0 else loadedRows.toDouble / totalRows
    def elapsedMillis: Double = elapsedNanos / 1e6
  }

  /** Partially load `chunks` into `dir` using per-chunk client bit-vectors.
    * `registry` must describe exactly the predicate ids present in
    * `bitsPerChunk`. With an empty registry this degrades to a full load.
    */
  def loadPartial(dir: String,
                  schema: TableSchema,
                  chunks: IndexedSeq[IndexedSeq[String]],
                  bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
                  registry: ChunkStore.Registry): LoadStats =
    load(dir, schema, chunks, bitsPerChunk, registry) { (nRows, bits) =>
      if (bits.isEmpty) BitVec.full(nRows) else BitVec.unionAll(nRows, bits.values.toSeq)
    }

  /** Full (baseline) load: parse every object into Parquet, keeping the
    * client bit-vectors (if any) for data skipping without partial loading.
    */
  def loadFull(dir: String,
               schema: TableSchema,
               chunks: IndexedSeq[IndexedSeq[String]],
               bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
               registry: ChunkStore.Registry): LoadStats =
    load(dir, schema, chunks, bitsPerChunk, registry)((nRows, _) => BitVec.full(nRows))

  /** The loader loop; `keep(nRows, bits)` is a chunk's keep-mask. */
  private def load(dir: String,
                   schema: TableSchema,
                   chunks: IndexedSeq[IndexedSeq[String]],
                   bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
                   registry: ChunkStore.Registry)
                  (keep: (Int, Map[Int, BitVec]) => BitVec): LoadStats = {
    require(chunks.size == bitsPerChunk.size,
      s"chunk/bits count mismatch: ${chunks.size} vs ${bitsPerChunk.size}")
    val t0 = System.nanoTime()
    ChunkStore.init(dir)
    ChunkStore.writeSchema(dir, schema)
    ChunkStore.writeRegistry(dir, registry)

    var total  = 0L
    var loaded = 0L
    chunks.indices.foreach { i =>
      val lines = chunks(i)
      val bits  = bitsPerChunk(i)
      total += lines.size
      val mask      = keep(lines.size, bits)
      val loadedPos = mask.setBits
      loaded += loadedPos.size

      if (loadedPos.nonEmpty) {
        val rows = loadedPos.iterator.map { p =>
          TableSchema.extractRow(schema, JsonParser.parseObject(lines(p)))
        }.toVector
        ParquetIO.writeChunk(ChunkStore.parquetPath(dir, i), schema, rows)
        if (bits.nonEmpty)
          ChunkStore.writeBits(ChunkStore.bitsPath(dir, i), bits.map { case (id, bv) => id -> bv.compact(loadedPos) })
      }
      if (loadedPos.size < lines.size) {
        val rawLines = lines.indices.filterNot(mask.get).map(lines)
        ChunkStore.writeRawLines(ChunkStore.rawPath(dir, i), rawLines)
      }
    }
    LoadStats(total, loaded, chunks.size, System.nanoTime() - t0)
  }
}
