package repro.server

import java.nio.file.Paths

import org.apache.parquet.ParquetReadOptions
import org.apache.parquet.conf.PlainParquetConfiguration
import org.apache.parquet.example.data.Group
import org.apache.parquet.example.data.simple.SimpleGroupFactory
import org.apache.parquet.example.data.simple.convert.GroupRecordConverter
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.example.ExampleParquetWriter
import org.apache.parquet.io.{ColumnIOFactory, LocalInputFile, LocalOutputFile, RecordReader}
import org.apache.parquet.io.api.Binary
import org.apache.parquet.schema.{LogicalTypeAnnotation, MessageType, Types}
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.unsafe.types.UTF8String

import repro.json.{JBool, JNum, JObj, JStr}

/** Flat table schema of a CIAO store (the columns queries touch).
  * A row is a Catalyst `InternalRow` aligned with `cols`, from JSON
  * extraction through the Parquet chunk to the scan: each value is `null`,
  * a `UTF8String`, or a boxed `java.lang.Long`, `java.lang.Double` or
  * `java.lang.Boolean`.
  */
final case class TableSchema(cols: Vector[TableSchema.Col]) extends Serializable {
  def names: Vector[String] = cols.map(_.name)
}

object TableSchema {
  sealed trait ColType extends Serializable
  case object CString extends ColType
  case object CLong   extends ColType
  case object CDouble extends ColType
  case object CBool   extends ColType

  final case class Col(name: String, tpe: ColType) extends Serializable

  /** Extract the schema's columns from a parsed JSON object; absent or
    * type-mismatched fields become null (JSON is schemaless on the wire),
    * and so does a number in a long column that is not an exact `Long`.
    */
  def extractRow(schema: TableSchema, obj: JObj): GenericInternalRow =
    new GenericInternalRow(schema.cols.map { col =>
      (obj.get(col.name), col.tpe) match {
        case (Some(JStr(s)), CString)  => UTF8String.fromString(s)
        case (Some(n: JNum), CLong)    =>
          try java.lang.Long.valueOf(n.toLong) catch { case _: ArithmeticException => null }
        case (Some(JNum(r)), CDouble)  => java.lang.Double.valueOf(r.toDouble)
        case (Some(JBool(b)), CBool)   => java.lang.Boolean.valueOf(b)
        case _                         => null
      }
    }.toArray[Any])
}

/** Parquet chunk files written and read through parquet-mr's `Group` API
  * over plain local files (`LocalOutputFile` / `LocalInputFile` with a
  * `PlainParquetConfiguration`) — the reproduction's stand-in for the
  * paper's Arrow C++ low-level writer. Like that writer it has no
  * filesystem layer: no Hadoop `FileSystem`, `Configuration` or `.crc`
  * side file, so a chunk costs what its rows cost. Files are standard
  * uncompressed Parquet. Row order inside a chunk file is load order, which
  * keeps the sidecar bit-vectors aligned by row index.
  */
object ParquetIO {
  import TableSchema._

  /** Parquet message type for a table schema (all fields optional). */
  def messageType(schema: TableSchema): MessageType = {
    val b = Types.buildMessage()
    schema.cols.foreach { col =>
      col.tpe match {
        case CString =>
          b.addField(Types.optional(PrimitiveTypeName.BINARY)
            .as(LogicalTypeAnnotation.stringType()).named(col.name))
        case CLong   => b.addField(Types.optional(PrimitiveTypeName.INT64).named(col.name))
        case CDouble => b.addField(Types.optional(PrimitiveTypeName.DOUBLE).named(col.name))
        case CBool   => b.addField(Types.optional(PrimitiveTypeName.BOOLEAN).named(col.name))
      }
    }
    b.named("ciao_chunk")
  }

  /** Write one chunk file; rows align with `schema.cols`, and each string
    * is written as its UTF-8 bytes. Fails if `path` already exists.
    */
  def writeChunk(path: String, schema: TableSchema, rows: Iterable[InternalRow]): Unit = {
    val msgType = messageType(schema)
    val writer = ExampleParquetWriter.builder(new LocalOutputFile(Paths.get(path)))
      .withConf(new PlainParquetConfiguration())
      .withType(msgType)
      .build()
    try {
      val factory = new SimpleGroupFactory(msgType)
      val types   = schema.cols.map(_.tpe).toArray
      rows.foreach { row =>
        val g = factory.newGroup()
        var i = 0
        while (i < types.length) {
          if (!row.isNullAt(i)) types(i) match {
            case CString => g.add(i, Binary.fromConstantByteArray(row.getUTF8String(i).getBytes))
            case CLong   => g.add(i, row.getLong(i))
            case CDouble => g.add(i, row.getDouble(i))
            case CBool   => g.add(i, row.getBoolean(i))
          }
          i += 1
        }
        writer.write(g)
      }
    } finally writer.close()
  }

  /** Streaming reader over a chunk file, one row group at a time; call
    * [[ChunkRows.close]] when done. Each column's field is looked up by name
    * in the file's own schema once, when the file opens. A missing file
    * fails the constructor.
    */
  final class ChunkRows(path: String, schema: TableSchema) extends Iterator[InternalRow] with AutoCloseable {
    private val reader = ParquetFileReader.open(new LocalInputFile(Paths.get(path)),
      ParquetReadOptions.builder(new PlainParquetConfiguration()).build())
    private val fileSchema = reader.getFooter.getFileMetaData.getSchema
    private val columnIO   = new ColumnIOFactory().getColumnIO(fileSchema)
    private val types      = schema.cols.map(_.tpe).toArray
    private val fields     = schema.cols.map(c => fileSchema.getFieldIndex(c.name)).toArray
    private var records: RecordReader[Group] = _
    private var left = 0L // rows not yet read from the current row group

    /** Row count from the file's footer. */
    def rowCount: Long = reader.getRecordCount

    override def hasNext: Boolean = {
      while (left == 0) {
        val pages = reader.readNextRowGroup()
        if (pages == null) return false
        records = columnIO.getRecordReader(pages, new GroupRecordConverter(fileSchema))
        left = pages.getRowCount
      }
      true
    }

    override def next(): InternalRow = {
      if (!hasNext) throw new NoSuchElementException(s"no more rows in $path")
      val g = records.read()
      left -= 1
      new GenericInternalRow(Array.tabulate[Any](types.length) { i =>
        val f = fields(i)
        if (g.getFieldRepetitionCount(f) == 0) null
        else types(i) match {
          case CString => UTF8String.fromBytes(g.getBinary(f, 0).getBytes)
          case CLong   => java.lang.Long.valueOf(g.getLong(f, 0))
          case CDouble => java.lang.Double.valueOf(g.getDouble(f, 0))
          case CBool   => java.lang.Boolean.valueOf(g.getBoolean(f, 0))
        }
      })
    }

    override def close(): Unit = reader.close()
  }

  /** Read a whole chunk eagerly (tests / small chunks). */
  def readChunk(path: String, schema: TableSchema): Vector[InternalRow] = {
    val it = new ChunkRows(path, schema)
    try it.toVector finally it.close()
  }
}
