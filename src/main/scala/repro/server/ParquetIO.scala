package repro.server

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.example.data.Group
import org.apache.parquet.example.data.simple.SimpleGroupFactory
import org.apache.parquet.hadoop.ParquetReader
import org.apache.parquet.hadoop.example.{ExampleParquetWriter, GroupReadSupport, GroupWriteSupport}
import org.apache.parquet.schema.{LogicalTypeAnnotation, MessageType, Types}
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName

import repro.json.{JBool, JNum, JObj, JStr}

/** Flat table schema of a CIAO store (the columns queries touch).
  * Values in a row are `null | String | java.lang.Long | java.lang.Double |
  * java.lang.Boolean`, aligned with `cols`.
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
  def extractRow(schema: TableSchema, obj: JObj): Array[Any] =
    schema.cols.map { col =>
      (obj.get(col.name), col.tpe) match {
        case (Some(JStr(s)), CString)  => s
        case (Some(n: JNum), CLong)    =>
          try java.lang.Long.valueOf(n.toLong) catch { case _: ArithmeticException => null }
        case (Some(JNum(r)), CDouble)  => java.lang.Double.valueOf(r.toDouble)
        case (Some(JBool(b)), CBool)   => java.lang.Boolean.valueOf(b)
        case _                         => null
      }
    }.toArray[Any]
}

/** Parquet chunk files written/read through the parquet-hadoop Group API —
  * the reproduction's stand-in for the paper's Arrow C++ low-level writer.
  * Row order inside a chunk file is load order, which keeps the sidecar
  * bit-vectors aligned by row index.
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

  /** Write one chunk file; rows align with `schema.cols`. */
  def writeChunk(path: String, schema: TableSchema, rows: Iterable[Array[Any]]): Unit = {
    val msgType = messageType(schema)
    val conf    = new Configuration(false)
    GroupWriteSupport.setSchema(msgType, conf)
    val writer = ExampleParquetWriter.builder(new Path(path))
      .withConf(conf)
      .withType(msgType)
      .build()
    try {
      val factory = new SimpleGroupFactory(msgType)
      rows.foreach { row =>
        val g = factory.newGroup()
        var i = 0
        while (i < row.length) {
          val v = row(i)
          if (v != null) {
            val name = schema.cols(i).name
            schema.cols(i).tpe match {
              case CString => g.append(name, v.asInstanceOf[String])
              case CLong   => g.append(name, v.asInstanceOf[java.lang.Long].longValue())
              case CDouble => g.append(name, v.asInstanceOf[java.lang.Double].doubleValue())
              case CBool   => g.append(name, v.asInstanceOf[java.lang.Boolean].booleanValue())
            }
          }
          i += 1
        }
        writer.write(g)
      }
    } finally writer.close()
  }

  /** Streaming reader over a chunk file; call [[ChunkRows.close]] when done. */
  final class ChunkRows(path: String, schema: TableSchema) extends Iterator[Array[Any]] with AutoCloseable {
    private val reader: ParquetReader[Group] =
      ParquetReader.builder(new GroupReadSupport(), new Path(path))
        .withConf(new Configuration(false))
        .build()
    private var nextGroup: Group = reader.read()

    override def hasNext: Boolean = nextGroup != null

    override def next(): Array[Any] = {
      val g = nextGroup
      nextGroup = reader.read()
      schema.cols.map { col =>
        if (g.getFieldRepetitionCount(col.name) == 0) null
        else col.tpe match {
          case CString => g.getString(col.name, 0)
          case CLong   => java.lang.Long.valueOf(g.getLong(col.name, 0))
          case CDouble => java.lang.Double.valueOf(g.getDouble(col.name, 0))
          case CBool   => java.lang.Boolean.valueOf(g.getBoolean(col.name, 0))
        }
      }.toArray[Any]
    }

    override def close(): Unit = reader.close()
  }

  /** Read a whole chunk eagerly (tests / small chunks). */
  def readChunk(path: String, schema: TableSchema): Vector[Array[Any]] = {
    val it = new ChunkRows(path, schema)
    try it.toVector finally it.close()
  }
}
