package repro.server

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.types.{DataType, StructType}

import repro.core._
import repro.json._

/** On-disk layout of a CIAO store (one per loaded dataset):
  *
  * {{{
  * <dir>/registry.json          pushed predicates: id, clause, sel, cost
  * <dir>/schema.json            table schema: Spark's `StructType` JSON
  * <dir>/chunks/chunk-00000.parquet   loaded tuples (may be absent if none)
  * <dir>/chunks/chunk-00000.bits      sidecar bit-vectors over loaded rows
  * <dir>/chunks/chunk-00000.raw       unloaded raw JSON lines (may be absent)
  * }}}
  *
  * `registry.json` is the paper's "predicate hashmap" (Fig. 2): it maps each
  * pushed-down predicate to its id, so the query path can translate Spark
  * filters to sidecar bit-vector ids.
  */
object ChunkStore {

  /** One pushed-down predicate in the registry. */
  final case class RegEntry(id: Int, clause: Clause, sel: Double, cost: Double)

  /** The predicate registry, indexable by clause canonical form. */
  final case class Registry(entries: Vector[RegEntry]) {
    lazy val byCanonical: Map[String, RegEntry] = entries.map(e => e.clause.canonical -> e).toMap
    def isEmpty: Boolean = entries.isEmpty
  }

  def registryPath(dir: String): String = s"$dir/registry.json"
  def schemaPath(dir: String): String   = s"$dir/schema.json"
  def chunksDir(dir: String): String    = s"$dir/chunks"
  def parquetPath(dir: String, i: Int): String = f"${chunksDir(dir)}/chunk-$i%05d.parquet"
  def bitsPath(dir: String, i: Int): String    = f"${chunksDir(dir)}/chunk-$i%05d.bits"
  def rawPath(dir: String, i: Int): String     = f"${chunksDir(dir)}/chunk-$i%05d.raw"

  /** Files present for one chunk id. */
  final case class ChunkFiles(id: Int, parquet: Option[String], bits: Option[String], raw: Option[String])

  /** Wipe and (re-)create the store directory skeleton. */
  def init(dir: String): Unit = {
    val d = new File(dir)
    if (d.exists()) deleteRecursively(d)
    Files.createDirectories(Paths.get(chunksDir(dir)))
    ()
  }

  private[repro] def deleteRecursively(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteRecursively))
    f.delete()
    ()
  }

  private val ChunkFile = "chunk-(\\d+)\\.(parquet|bits|raw)".r

  /** Enumerate chunks by id from one listing of the files in `chunks/`. */
  def listChunks(dir: String): Vector[ChunkFiles] = {
    val names = Option(new File(chunksDir(dir)).list()).getOrElse(Array.empty[String])
    val parts = names.toVector.collect { case n @ ChunkFile(id, ext) => (id.toInt, ext, s"${chunksDir(dir)}/$n") }
    parts.groupBy(_._1).toVector.sortBy(_._1).map { case (i, files) =>
      def part(ext: String) = files.collectFirst { case (_, `ext`, p) => p }
      ChunkFiles(i, part("parquet"), part("bits"), part("raw"))
    }
  }

  // ---- atom/clause JSON codecs (registry.json) ----

  private def atomToJson(a: Atom): JObj = a match {
    case ExactMatch(attr, v)    => JObj(Vector("kind" -> JStr("exact"), "attr" -> JStr(attr), "value" -> JStr(v)))
    case SubstringMatch(attr, v) => JObj(Vector("kind" -> JStr("substr"), "attr" -> JStr(attr), "value" -> JStr(v)))
    case KeyPresence(attr)      => JObj(Vector("kind" -> JStr("present"), "attr" -> JStr(attr)))
    case KeyValueMatch(attr, l) => JObj(Vector("kind" -> JStr("kv"), "attr" -> JStr(attr), "value" -> JStr(l)))
  }

  private def atomFromJson(o: JObj): Atom = {
    def str(k: String) = o(k).asInstanceOf[JStr].value
    str("kind") match {
      case "exact"   => ExactMatch(str("attr"), str("value"))
      case "substr"  => SubstringMatch(str("attr"), str("value"))
      case "present" => KeyPresence(str("attr"))
      case "kv"      => KeyValueMatch(str("attr"), str("value"))
      case k         => throw new IllegalArgumentException(s"unknown atom kind '$k'")
    }
  }

  def writeRegistry(dir: String, registry: Registry): Unit = {
    val json = JObj(Vector(
      "predicates" -> JArr(registry.entries.map { e =>
        JObj(Vector(
          "id"    -> JNum(e.id.toString),
          "sel"   -> JNum(e.sel.toString),
          "cost"  -> JNum(e.cost.toString),
          "atoms" -> JArr(e.clause.atoms.map(a => atomToJson(a): JsonValue)),
        )): JsonValue
      }),
    ))
    Files.write(Paths.get(registryPath(dir)), json.render.getBytes(StandardCharsets.UTF_8))
    ()
  }

  def readRegistry(dir: String): Registry = {
    val text = new String(Files.readAllBytes(Paths.get(registryPath(dir))), StandardCharsets.UTF_8)
    val root = JsonParser.parseObject(text)
    val entries = root("predicates").asInstanceOf[JArr].items.map { e =>
      val o     = e.asInstanceOf[JObj]
      val atoms = o("atoms").asInstanceOf[JArr].items.map(a => atomFromJson(a.asInstanceOf[JObj]))
      RegEntry(
        id     = o("id").asInstanceOf[JNum].toLong.toInt,
        clause = Clause(atoms.toVector),
        sel    = o("sel").asInstanceOf[JNum].toDouble,
        cost   = o("cost").asInstanceOf[JNum].toDouble,
      )
    }
    Registry(entries.toVector)
  }

  // ---- schema.json: Spark's StructType JSON ----

  def writeSchema(dir: String, schema: StructType): Unit = {
    Files.write(Paths.get(schemaPath(dir)), schema.json.getBytes(StandardCharsets.UTF_8))
    ()
  }

  def readSchema(dir: String): StructType =
    DataType.fromJson(new String(Files.readAllBytes(Paths.get(schemaPath(dir))), StandardCharsets.UTF_8))
      .asInstanceOf[StructType]

  // ---- sidecar bit-vector IO ----

  def writeBits(path: String, bits: Map[Int, BitVec]): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path)))
    try BitVectors.write(out, bits) finally out.close()
  }

  def readBits(path: String): Map[Int, BitVec] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path)))
    try BitVectors.read(in) finally in.close()
  }

  // ---- raw-line IO ----

  def writeRawLines(path: String, lines: Iterable[String]): Unit = {
    Files.write(Paths.get(path), lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
    ()
  }

  def readRawLines(path: String): Vector[String] = {
    val text = new String(Files.readAllBytes(Paths.get(path)), StandardCharsets.UTF_8)
    if (text.isEmpty) Vector.empty else text.split('\n').toVector
  }
}
