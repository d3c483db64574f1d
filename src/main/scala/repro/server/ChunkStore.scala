package repro.server

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import repro.core._
import repro.json._

/** On-disk layout of a CIAO store (one per loaded dataset):
  *
  * {{{
  * <dir>/registry.json          pushed predicates: id, clause, sel, cost
  * <dir>/schema.json            flat column schema of the Parquet chunks
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
  import TableSchema._

  /** One pushed-down predicate in the registry. */
  final case class RegEntry(id: Int, clause: Clause, sel: Double, cost: Double)

  /** The predicate registry, indexable by clause canonical form. */
  final case class Registry(entries: Vector[RegEntry]) {
    lazy val byCanonical: Map[String, RegEntry] = entries.map(e => e.clause.canonical -> e).toMap
    def ids: Vector[Int] = entries.map(_.id)
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

  /** Enumerate chunks by id from the files present in `chunks/`. */
  def listChunks(dir: String): Vector[ChunkFiles] = {
    val d     = new File(chunksDir(dir))
    val files = Option(d.listFiles()).getOrElse(Array.empty[File]).map(_.getName)
    val ids   = files.flatMap { n =>
      "chunk-(\\d+)\\.(parquet|bits|raw)".r.findFirstMatchIn(n).map(_.group(1).toInt)
    }.distinct.sorted
    ids.toVector.map { i =>
      def opt(p: String) = if (new File(p).exists()) Some(p) else None
      ChunkFiles(i, opt(parquetPath(dir, i)), opt(bitsPath(dir, i)), opt(rawPath(dir, i)))
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

  // ---- schema codec (schema.json) ----

  private def typeName(t: ColType): String = t match {
    case CString => "string"; case CLong => "long"; case CDouble => "double"; case CBool => "boolean"
  }
  private def typeOf(n: String): ColType = n match {
    case "string" => CString; case "long" => CLong; case "double" => CDouble; case "boolean" => CBool
    case other    => throw new IllegalArgumentException(s"unknown column type '$other'")
  }

  def writeSchema(dir: String, schema: TableSchema): Unit = {
    val json = JObj(Vector(
      "cols" -> JArr(schema.cols.map(c =>
        JObj(Vector("name" -> JStr(c.name), "type" -> JStr(typeName(c.tpe)))): JsonValue)),
    ))
    Files.write(Paths.get(schemaPath(dir)), json.render.getBytes(StandardCharsets.UTF_8))
    ()
  }

  def readSchema(dir: String): TableSchema = {
    val text = new String(Files.readAllBytes(Paths.get(schemaPath(dir))), StandardCharsets.UTF_8)
    val root = JsonParser.parseObject(text)
    TableSchema(root("cols").asInstanceOf[JArr].items.map { c =>
      val o = c.asInstanceOf[JObj]
      Col(o("name").asInstanceOf[JStr].value, typeOf(o("type").asInstanceOf[JStr].value))
    }.toVector)
  }

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
