package repro.datasource

import java.util.{Map => JMap}

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.{DataSourceRegister, Filter}
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.core.BitVec
import repro.json.JsonParser
import repro.server._

/** CIAO's data-skipping scan as a Spark DataSource V2 (`format("ciao")`).
  *
  * Reading path (paper §VI-B): Spark pushes the query's conjunctive
  * predicates via [[SupportsPushDownFilters]]; each conjunct is matched
  * against the store's pushed-predicate registry. If at least one matches,
  * only Parquet chunks are scanned and the matched predicates' sidecar
  * bit-vectors are ANDed to skip rows; unloaded `.raw` JSON need not be
  * read because those objects failed every pushed predicate. If no filter
  * matches, both Parquet chunks and `.raw` JSON chunks are scanned (the
  * raw side is parsed just-in-time). All filters are reported back to Spark
  * as residuals because client-side string matching admits false positives.
  */
class CiaoDataSource extends TableProvider with DataSourceRegister {

  override def shortName(): String = "ciao"

  override def supportsExternalMetadata(): Boolean = true

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    CiaoDataSource.sparkSchema(ChunkStore.readSchema(CiaoDataSource.dirFrom(options)))

  override def getTable(schema: StructType, partitioning: Array[Transform], properties: JMap[String, String]): Table = {
    val dir = Option(properties.get("path"))
      .getOrElse(throw new IllegalArgumentException("ciao source requires a path option"))
    new CiaoTable(dir, schema)
  }
}

object CiaoDataSource {
  def dirFrom(options: CaseInsensitiveStringMap): String =
    Option(options.get("path"))
      .getOrElse(throw new IllegalArgumentException("ciao source requires a path option"))

  /** Map the store schema to a Spark schema (all columns nullable). */
  def sparkSchema(schema: TableSchema): StructType =
    StructType(schema.cols.map { c =>
      val dt = c.tpe match {
        case TableSchema.CString => StringType
        case TableSchema.CLong   => LongType
        case TableSchema.CDouble => DoubleType
        case TableSchema.CBool   => BooleanType
      }
      StructField(c.name, dt, nullable = true)
    })
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

/** Scan builder holding the filter-pushdown negotiation with Catalyst. */
class CiaoScanBuilder(dir: String, schema: StructType)
    extends ScanBuilder with SupportsPushDownFilters {

  private var matchedIds: Array[Int]        = Array.empty
  private var matchedFilters: Array[Filter] = Array.empty

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

  override def build(): Scan = new CiaoScan(dir, schema, matchedIds)
}

/** The scan: one input partition per chunk file. */
class CiaoScan(dir: String, schema: StructType, matchedIds: Array[Int]) extends Scan with Batch {

  override def readSchema(): StructType = schema
  override def toBatch: Batch = this
  override def description(): String =
    s"CiaoScan(dir=$dir, skippingPredicates=${matchedIds.mkString("[", ",", "]")})"

  override def planInputPartitions(): Array[InputPartition] = {
    val chunks      = ChunkStore.listChunks(dir)
    val tableSchema = ChunkStore.readSchema(dir)
    val parquetParts: Array[InputPartition] = chunks.flatMap { c =>
      c.parquet.map(p => ParquetChunkPartition(p, c.bits, matchedIds, tableSchema): InputPartition)
    }.toArray
    if (matchedIds.nonEmpty) parquetParts
    else {
      // No pushed predicate in this query: raw JSON must be scanned too.
      val rawParts: Array[InputPartition] =
        chunks.flatMap(c => c.raw.map(p => RawChunkPartition(p, tableSchema): InputPartition)).toArray
      parquetParts ++ rawParts
    }
  }

  override def createReaderFactory(): PartitionReaderFactory = new CiaoReaderFactory
}

/** A loaded Parquet chunk (+ optional sidecar bit-vectors). */
final case class ParquetChunkPartition(
    parquetPath: String,
    bitsPath: Option[String],
    skipIds: Array[Int],
    tableSchema: TableSchema,
) extends InputPartition

/** An unloaded raw-JSON chunk, parsed just-in-time. */
final case class RawChunkPartition(rawPath: String, tableSchema: TableSchema) extends InputPartition

class CiaoReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    partition match {
      case p: ParquetChunkPartition => new ParquetChunkReader(p)
      case p: RawChunkPartition     => new RawChunkReader(p)
      case other => throw new IllegalArgumentException(s"unexpected partition $other")
    }
}

/** Reads one Parquet chunk row by row, skipping rows whose combined
  * (ANDed) bit across the scan's matched predicates is 0. The sidecar is
  * checked once, when the reader opens: a chunk planned with skip ids but
  * without a sidecar, or a sidecar whose length differs from the chunk's
  * footer row count, is a store corruption and fails the scan rather than
  * dropping or inventing rows. Rows reach Spark as the chunk reader built
  * them.
  */
class ParquetChunkReader(p: ParquetChunkPartition) extends PartitionReader[InternalRow] {
  private val rows = new ParquetIO.ChunkRows(p.parquetPath, p.tableSchema)
  private val combined: Option[BitVec] =
    if (p.skipIds.isEmpty) None
    else {
      val bp = p.bitsPath.getOrElse(
        throw new IllegalStateException(s"${p.parquetPath} is planned with skip ids but has no sidecar"))
      Some(DataSkipping.combinedBits(ChunkStore.readBits(bp), p.skipIds.toSeq, rows.rowCount.toInt))
    }

  private var rowIdx  = -1
  private var current: InternalRow = _

  override def next(): Boolean = {
    while (rows.hasNext) {
      current = rows.next()
      rowIdx += 1
      if (combined.forall(_.get(rowIdx))) return true
    }
    false
  }

  override def get(): InternalRow = current

  override def close(): Unit = rows.close()
}

/** Parses one `.raw` JSON chunk just-in-time and emits every object. */
class RawChunkReader(p: RawChunkPartition) extends PartitionReader[InternalRow] {
  private val lines   = ChunkStore.readRawLines(p.rawPath).iterator
  private var current: InternalRow = _

  override def next(): Boolean = {
    if (!lines.hasNext) false
    else {
      current = TableSchema.extractRow(p.tableSchema, JsonParser.parseObject(lines.next()))
      true
    }
  }

  override def get(): InternalRow = current

  override def close(): Unit = ()
}
