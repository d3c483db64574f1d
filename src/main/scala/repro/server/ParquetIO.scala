package repro.server

import java.nio.file.Paths

import scala.jdk.CollectionConverters._

import org.apache.parquet.ParquetReadOptions
import org.apache.parquet.column.ColumnReader
import org.apache.parquet.column.impl.ColumnReadStoreImpl
import org.apache.parquet.conf.PlainParquetConfiguration
import org.apache.parquet.example.data.simple.SimpleGroupFactory
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.example.ExampleParquetWriter
import org.apache.parquet.io.{LocalInputFile, LocalOutputFile}
import org.apache.parquet.io.api.{Binary, Converter, GroupConverter, PrimitiveConverter}
import org.apache.parquet.schema.{LogicalTypeAnnotation, MessageType, Types}
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.types.{BooleanType, DoubleType, LongType, StringType, StructType}
import org.apache.spark.unsafe.types.UTF8String

import repro.core.BitVec
import repro.json.{JBool, JNum, JObj, JStr}

/** A row of a CIAO store is a Catalyst `InternalRow` aligned with the
  * fields of a Spark `StructType`, from JSON extraction through the Parquet
  * chunk to the scan: each value is `null`, a `UTF8String`, or a boxed
  * `java.lang.Long`, `java.lang.Double` or `java.lang.Boolean`, for a
  * `StringType`, `LongType`, `DoubleType` or `BooleanType` field.
  */
object TableSchema {

  /** Extract the schema's fields, by name, from a parsed JSON object; absent
    * or type-mismatched fields become null (JSON is schemaless on the wire),
    * and so does a number in a long column that is not an exact `Long`.
    */
  def extractRow(schema: StructType, obj: JObj): GenericInternalRow =
    new GenericInternalRow(schema.fields.map[Any] { f =>
      (obj.get(f.name), f.dataType) match {
        case (Some(JStr(s)), StringType)   => UTF8String.fromString(s)
        case (Some(n: JNum), LongType)     =>
          try java.lang.Long.valueOf(n.toLong) catch { case _: ArithmeticException => null }
        case (Some(JNum(r)), DoubleType)   => java.lang.Double.valueOf(r.toDouble)
        case (Some(JBool(b)), BooleanType) => java.lang.Boolean.valueOf(b)
        case _                             => null
      }
    })
}

/** Parquet chunk files, written through parquet-mr's `Group` API and read
  * through its column readers, over plain local files (`LocalOutputFile` /
  * `LocalInputFile` with a `PlainParquetConfiguration`) — the
  * reproduction's stand-in for the paper's Arrow C++ low-level writer. Like
  * that writer it has no filesystem layer: no Hadoop `FileSystem`,
  * `Configuration` or `.crc` side file, so a chunk costs what its rows
  * cost. Files are standard uncompressed Parquet. Row order inside a chunk
  * file is load order, which keeps the sidecar bit-vectors aligned by row
  * index.
  */
object ParquetIO {

  /** Parquet message type for a table schema (all fields optional); a field
    * of any type but string, long, double or boolean is rejected by name.
    */
  def messageType(schema: StructType): MessageType = {
    val b = Types.buildMessage()
    schema.fields.foreach { f =>
      f.dataType match {
        case StringType  =>
          b.addField(Types.optional(PrimitiveTypeName.BINARY)
            .as(LogicalTypeAnnotation.stringType()).named(f.name))
        case LongType    => b.addField(Types.optional(PrimitiveTypeName.INT64).named(f.name))
        case DoubleType  => b.addField(Types.optional(PrimitiveTypeName.DOUBLE).named(f.name))
        case BooleanType => b.addField(Types.optional(PrimitiveTypeName.BOOLEAN).named(f.name))
        case other       =>
          throw new IllegalArgumentException(s"column ${f.name} has type ${other.sql}; a store holds STRING, BIGINT, DOUBLE or BOOLEAN")
      }
    }
    b.named("ciao_chunk")
  }

  /** Write one chunk file; rows align with `schema.fields`, and each string
    * is written as its UTF-8 bytes. Fails if `path` already exists.
    */
  def writeChunk(path: String, schema: StructType, rows: Iterable[InternalRow]): Unit = {
    val msgType = messageType(schema)
    val writer = ExampleParquetWriter.builder(new LocalOutputFile(Paths.get(path)))
      .withConf(new PlainParquetConfiguration())
      .withType(msgType)
      .build()
    try {
      val factory = new SimpleGroupFactory(msgType)
      val types   = schema.fields.map(_.dataType)
      rows.foreach { row =>
        val g = factory.newGroup()
        var i = 0
        while (i < types.length) {
          if (!row.isNullAt(i)) types(i) match {
            case StringType  => g.add(i, Binary.fromConstantByteArray(row.getUTF8String(i).getBytes))
            case LongType    => g.add(i, row.getLong(i))
            case DoubleType  => g.add(i, row.getDouble(i))
            case BooleanType => g.add(i, row.getBoolean(i))
          }
          i += 1
        }
        writer.write(g)
      }
    } finally writer.close()
  }

  private def open(path: String): ParquetFileReader =
    ParquetFileReader.open(new LocalInputFile(Paths.get(path)),
      ParquetReadOptions.builder(new PlainParquetConfiguration()).build())

  /** Row count from a chunk file's footer. */
  def rowCount(path: String): Long = {
    val r = open(path)
    try r.getRecordCount finally r.close()
  }

  /** The converter column readers require; it receives no value, because
    * rows are built from the readers' typed getters.
    */
  private object NoConverter extends GroupConverter {
    private val primitive = new PrimitiveConverter {}
    override def getConverter(fieldIndex: Int): Converter = primitive
    override def start(): Unit = ()
    override def end(): Unit = ()
  }

  /** Streaming reader over a chunk file, one row group at a time, through
    * one column reader per field of `schema`; call [[ChunkRows.close]] when
    * done. `schema` may order or subset the file's columns: each field is
    * looked up by name, and only those columns are read from the file.
    * With a `mask` (one bit per row of the file), a row whose bit is 0 is
    * skipped value by value and never built; every kept row is a new row.
    * A missing file fails the constructor.
    */
  final class ChunkRows(path: String, schema: StructType, mask: Option[BitVec] = None)
      extends Iterator[InternalRow] with AutoCloseable {
    private val reader     = open(path)
    private val meta       = reader.getFooter.getFileMetaData
    private val fileSchema = meta.getSchema
    private val requested  = new MessageType(fileSchema.getName,
      fileSchema.getFields.asScala.filter(t => schema.fieldNames.contains(t.getName)).asJava)
    reader.setRequestedSchema(requested)
    private val columns = schema.fields.map(f => requested.getColumnDescription(Array(f.name)))
    private val types   = schema.fields.map(_.dataType)
    private var readers: Array[ColumnReader] = Array.empty
    private var left = 0L // rows not yet read from the current row group
    private var read = 0L // rows read (kept or skipped) from the file
    private var kept: InternalRow = _

    mask.filter(_.nBits != reader.getRecordCount).foreach { m =>
      reader.close()
      throw new IllegalArgumentException(s"mask of ${m.nBits} bits for $path, which has ${reader.getRecordCount} rows")
    }

    /** Rows read so far, kept and skipped. */
    def rowsRead: Long = read

    private def rowsLeft: Boolean = {
      while (left == 0) {
        val pages = reader.readNextRowGroup()
        if (pages == null) return false
        val store = new ColumnReadStoreImpl(pages, NoConverter, requested, meta.getCreatedBy)
        readers = columns.map(store.getColumnReader)
        left = pages.getRowCount
      }
      true
    }

    override def hasNext: Boolean = {
      while (kept == null && rowsLeft) {
        val keep = mask.forall(_.get(read.toInt))
        if (keep) kept = new GenericInternalRow(Array.tabulate[Any](readers.length)(value))
        var i = 0
        while (i < readers.length) {
          if (!keep && readers(i).getCurrentDefinitionLevel == columns(i).getMaxDefinitionLevel) readers(i).skip()
          readers(i).consume()
          i += 1
        }
        left -= 1
        read += 1
      }
      kept != null
    }

    /** The current value of column `i`, or null. */
    private def value(i: Int): Any = {
      val c = readers(i)
      if (c.getCurrentDefinitionLevel < columns(i).getMaxDefinitionLevel) null
      else types(i) match {
        case StringType  => UTF8String.fromBytes(c.getBinary.getBytes)
        case LongType    => java.lang.Long.valueOf(c.getLong)
        case DoubleType  => java.lang.Double.valueOf(c.getDouble)
        case BooleanType => java.lang.Boolean.valueOf(c.getBoolean)
      }
    }

    override def next(): InternalRow = {
      if (!hasNext) throw new NoSuchElementException(s"no more rows in $path")
      val row = kept
      kept = null
      row
    }

    override def close(): Unit = reader.close()
  }
}
