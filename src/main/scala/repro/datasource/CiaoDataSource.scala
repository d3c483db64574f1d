package repro.datasource

import java.util.{Map => JMap}

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.metric.{CustomMetric, CustomSumMetric, CustomTaskMetric}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.{DataSourceRegister, Filter}
import org.apache.spark.sql.types.StructType
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.core.BitVec
import repro.json.JsonParser
import repro.server._

/** CIAO's data-skipping scan as a Spark DataSource V2 (`format("ciao")`).
  *
  * Reading path (paper §VI-B): Spark pushes the query's conjunctive
  * predicates via [[SupportsPushDownFilters]]; each conjunct is matched
  * against the store's pushed-predicate registry. If at least one matches,
  * the matched predicates' sidecar bit-vectors are ANDed per chunk at
  * planning: a chunk whose AND has no bit set is never planned, and the
  * others skip each 0-bit row in the column readers without building it.
  * Unloaded `.raw` JSON need not be read because those objects failed
  * every pushed predicate. If no filter matches, both Parquet chunks and
  * `.raw` JSON chunks are scanned (the raw side is parsed just-in-time).
  * Only the columns the query needs are read ([[SupportsPushDownRequiredColumns]]).
  * All filters are reported back to Spark as residuals because client-side
  * string matching admits false positives.
  */
class CiaoDataSource extends TableProvider with DataSourceRegister {

  override def shortName(): String = "ciao"

  override def supportsExternalMetadata(): Boolean = true

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    ChunkStore.readSchema(CiaoDataSource.dirFrom(options))

  /** The table in `schema`, which is the stored schema or a user-given one
    * that orders or subsets the stored fields; a field whose name, type or
    * nullability matches no stored field fails here, at load.
    */
  override def getTable(schema: StructType, partitioning: Array[Transform], properties: JMap[String, String]): Table = {
    val dir    = CiaoDataSource.dirFrom(properties)
    val stored = ChunkStore.readSchema(dir)
    val absent = schema.fields.filterNot(f =>
      stored.fields.exists(s => s.name == f.name && s.dataType == f.dataType && s.nullable == f.nullable))
    require(absent.isEmpty,
      s"ciao store $dir has no column ${absent.map(_.toDDL).mkString(", ")}; its schema is ${stored.toDDL}")
    new CiaoTable(dir, schema)
  }
}

object CiaoDataSource {
  def dirFrom(options: JMap[String, String]): String =
    Option(options.get("path"))
      .getOrElse(throw new IllegalArgumentException("ciao source requires a path option"))
}

/** Batch-readable table over one CIAO store directory. */
class CiaoTable(dir: String, schema: StructType) extends Table with SupportsRead {
  override def name(): String = s"ciao:$dir"
  override def schema(): StructType = schema
  override def capabilities(): java.util.Set[TableCapability] =
    java.util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new CiaoScanBuilder(dir, schema)
}

/** Scan builder holding the filter-pushdown and column-pruning negotiation
  * with Catalyst.
  */
class CiaoScanBuilder(dir: String, schema: StructType)
    extends ScanBuilder with SupportsPushDownFilters with SupportsPushDownRequiredColumns {

  private var matchedIds: Array[Int]        = Array.empty
  private var matchedFilters: Array[Filter] = Array.empty
  private var required: StructType          = schema

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val registry = ChunkStore.readRegistry(dir)
    val (ids, hit) = DataSkipping.matchPushed(filters.toSeq, registry)
    matchedIds = ids.toArray
    matchedFilters = hit.toArray
    // Everything is residual: client string matching has false positives,
    // so Spark must re-evaluate every predicate above the scan (§IV-B).
    filters
  }

  /** The filters the scan *uses* (for skipping) — surfaces in EXPLAIN. */
  override def pushedFilters(): Array[Filter] = matchedFilters

  /** Read only the columns the query needs (its residual filters' columns
    * included, since every filter stays residual).
    */
  override def pruneColumns(requiredSchema: StructType): Unit = required = requiredSchema

  override def build(): Scan = new CiaoScan(dir, required, matchedIds)
}

/** The scan: one input partition per chunk file that can hold a result
  * row. With matched ids, a Parquet chunk is planned only if the AND of its
  * matched sidecar vectors has a bit set, and that mask travels in the
  * partition; `.raw` chunks are not scanned, because their objects failed
  * every pushed predicate. Without matched ids, every Parquet and `.raw`
  * chunk is scanned. A sidecar without its Parquet chunk, a missing
  * sidecar, or a sidecar whose length differs from its chunk's footer row
  * count is a store corruption and fails planning.
  */
class CiaoScan(dir: String, schema: StructType, matchedIds: Array[Int]) extends Scan with Batch {

  private var chunksPruned = 0L

  override def readSchema(): StructType = schema
  override def toBatch: Batch = this
  override def description(): String =
    s"CiaoScan(dir=$dir, skippingPredicates=${matchedIds.mkString("[", ",", "]")})"

  override def planInputPartitions(): Array[InputPartition] = {
    val chunks = ChunkStore.listChunks(dir)
    chunks.find(c => c.parquet.isEmpty && c.bits.nonEmpty).foreach(c => throw new IllegalStateException(
      s"chunk ${c.id} of $dir has a sidecar but no Parquet file ${ChunkStore.parquetPath(dir, c.id)}"))
    val loaded = chunks.filter(_.parquet.nonEmpty)
    if (matchedIds.isEmpty) {
      // No pushed predicate in this query: raw JSON must be scanned too.
      val parquetParts = loaded.map(c => ParquetChunkPartition(c.parquet.get, c.bits, matchedIds, schema, None))
      val rawParts     = chunks.flatMap(c => c.raw.map(RawChunkPartition(_, schema)))
      (parquetParts ++ rawParts).toArray
    } else {
      val parts = loaded.flatMap { c =>
        val path = c.parquet.get
        val bits = c.bits.getOrElse(
          throw new IllegalStateException(s"$path is planned with skip ids but has no sidecar"))
        val mask = DataSkipping.combinedBits(ChunkStore.readBits(bits), matchedIds.toSeq, ParquetIO.rowCount(path).toInt)
        Option.when(mask.cardinality > 0)(ParquetChunkPartition(path, c.bits, matchedIds, schema, Some(mask)))
      }
      chunksPruned = loaded.size - parts.size
      parts.toArray
    }
  }

  override def createReaderFactory(): PartitionReaderFactory = new CiaoReaderFactory

  override def supportedCustomMetrics(): Array[CustomMetric] =
    Array(new ChunksPrunedMetric, new RowsDecodedMetric, new RowsSkippedMetric)

  override def reportDriverMetrics(): Array[CustomTaskMetric] =
    Array(ScanMetric("chunksPruned", chunksPruned))
}

/** A loaded Parquet chunk, read into rows of the scan's schema; with skip
  * ids, `mask` is the AND of their sidecar vectors and the reader keeps only
  * the rows whose bit is set.
  */
final case class ParquetChunkPartition(
    parquetPath: String,
    bitsPath: Option[String],
    skipIds: Array[Int],
    schema: StructType,
    mask: Option[BitVec],
) extends InputPartition

/** An unloaded raw-JSON chunk, parsed just-in-time into rows of the scan's schema. */
final case class RawChunkPartition(rawPath: String, schema: StructType) extends InputPartition

class CiaoReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    partition match {
      case p: ParquetChunkPartition => new ParquetChunkReader(p)
      case p: RawChunkPartition     => new RawChunkReader(p)
      case other => throw new IllegalArgumentException(s"unexpected partition $other")
    }
}

/** Reads the rows of one Parquet chunk that its partition's mask keeps;
  * the others are skipped in the column readers without being built. Rows
  * reach Spark as the chunk reader built them.
  */
class ParquetChunkReader(p: ParquetChunkPartition) extends PartitionReader[InternalRow] {
  private val rows    = new ParquetIO.ChunkRows(p.parquetPath, p.schema, p.mask)
  private var emitted = 0L
  private var current: InternalRow = _

  override def next(): Boolean =
    rows.hasNext && { current = rows.next(); emitted += 1; true }

  override def get(): InternalRow = current

  override def currentMetricsValues(): Array[CustomTaskMetric] = Array(
    ScanMetric("rowsDecoded", rows.rowsRead),
    ScanMetric("rowsSkipped", rows.rowsRead - emitted))

  override def close(): Unit = rows.close()
}

/** Parses one `.raw` JSON chunk just-in-time and emits every object, with
  * only the scan's columns extracted.
  */
class RawChunkReader(p: RawChunkPartition) extends PartitionReader[InternalRow] {
  private val lines   = ChunkStore.readRawLines(p.rawPath).iterator
  private var parsed  = 0L
  private var current: InternalRow = _

  override def next(): Boolean = {
    if (!lines.hasNext) false
    else {
      current = TableSchema.extractRow(p.schema, JsonParser.parseObject(lines.next()))
      parsed += 1
      true
    }
  }

  override def get(): InternalRow = current

  override def currentMetricsValues(): Array[CustomTaskMetric] =
    Array(ScanMetric("rowsDecoded", parsed), ScanMetric("rowsSkipped", 0L))

  override def close(): Unit = ()
}

/** The scan's DSv2 custom metrics, summed over tasks (and set on the driver
  * for `chunksPruned`); Spark builds each by its no-argument constructor.
  */
class ChunksPrunedMetric extends CustomSumMetric {
  override def name(): String        = "chunksPruned"
  override def description(): String = "Parquet chunks pruned at planning"
}

class RowsDecodedMetric extends CustomSumMetric {
  override def name(): String        = "rowsDecoded"
  override def description(): String = "rows read from Parquet chunks and raw JSON"
}

class RowsSkippedMetric extends CustomSumMetric {
  override def name(): String        = "rowsSkipped"
  override def description(): String = "Parquet rows skipped by sidecar bits"
}

private final case class ScanMetric(name: String, value: Long) extends CustomTaskMetric
