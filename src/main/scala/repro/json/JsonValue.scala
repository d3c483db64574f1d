package repro.json

/** Minimal JSON AST used by the server-side loader and the JIT raw reader,
  * built by [[JsonParser.parse]] from jackson-core's tokens (the rapidJSON
  * substitute): the server pays a real parse cost per loaded object, which
  * is exactly the cost partial loading avoids for filtered-out objects.
  */
sealed trait JsonValue {
  /** Compact textual rendering (inverse of [[JsonParser.parse]]). */
  def render: String = this match {
    case JNull       => "null"
    case JBool(b)    => if (b) "true" else "false"
    case JNum(raw)   => raw
    case JStr(s)     => JsonValue.quote(s)
    case JArr(items) => items.map(_.render).mkString("[", ",", "]")
    case JObj(fs)    => fs.map { case (k, v) => s"${JsonValue.quote(k)}:${v.render}" }.mkString("{", ",", "}")
  }
}

/** JSON null literal. */
case object JNull extends JsonValue

/** JSON boolean literal. */
final case class JBool(value: Boolean) extends JsonValue

/** JSON number; the raw lexeme is kept so rendering is lossless
  * (the paper relies on exact textual representation for key-value matching).
  */
final case class JNum(raw: String) extends JsonValue {
  def toDouble: Double = raw.toDouble

  /** The exact integral value (`1e2` is 100); throws `ArithmeticException`
    * when the number has a fractional part or does not fit in a `Long`.
    */
  def toLong: Long = new java.math.BigDecimal(raw).longValueExact()
}

/** JSON string. */
final case class JStr(value: String) extends JsonValue

/** JSON array. */
final case class JArr(items: Vector[JsonValue]) extends JsonValue

/** JSON object; field order is preserved. */
final case class JObj(fields: Vector[(String, JsonValue)]) extends JsonValue {
  private lazy val index: Map[String, JsonValue] = fields.toMap
  def get(key: String): Option[JsonValue] = index.get(key)
  def apply(key: String): JsonValue       = index(key)
  def has(key: String): Boolean           = index.contains(key)
}

object JsonValue {
  /** Quote and escape a string for JSON output. */
  def quote(s: String): String = {
    val sb = new StringBuilder(s.length + 2)
    sb.append('"')
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\r' => sb.append("\\r")
      case '\t' => sb.append("\\t")
      case '\b' => sb.append("\\b")
      case '\f' => sb.append("\\f")
      case c if c < 0x20 => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"')
    sb.toString
  }
}
