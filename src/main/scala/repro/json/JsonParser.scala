package repro.json

import com.fasterxml.jackson.core.{JsonFactory, JsonLocation, JsonProcessingException, JsonToken, JsonParser => Tokens}

/** JSON text to a [[JsonValue]] tree through jackson-core's streaming
  * parser (the rapidJSON substitute, see DESIGN.md §3).
  *
  * The factory keeps the library's defaults, which follow RFC 8259: no
  * comments, unquoted names, single quotes, leading zeros, `NaN` or trailing
  * commas. Its default limits also apply (numbers of 1,000 characters,
  * nesting depth 1,000, strings of 20M and names of 50,000 characters);
  * input past them is rejected. Every failure is a [[JsonParseException]]
  * with the offending character offset.
  */
object JsonParser {

  final case class JsonParseException(msg: String, pos: Int)
      extends RuntimeException(s"$msg at offset $pos")

  /** Thread-safe once built; each call opens its own parser. */
  private val factory = new JsonFactory()

  /** Parse a complete JSON document; a second value or any trailing
    * non-whitespace is an error.
    */
  def parse(s: String): JsonValue = {
    val p = factory.createParser(s)
    def offset(at: JsonLocation): Int = Option(at).getOrElse(p.currentLocation).getCharOffset.toInt
    try {
      val v = value(p, p.nextToken())
      if (p.nextToken() != null) throw JsonParseException("trailing content", offset(p.currentTokenLocation))
      v
    } catch {
      case e: JsonProcessingException => throw JsonParseException(e.getOriginalMessage, offset(e.getLocation))
    } finally p.close()
  }

  /** Parse a JSON object document, failing if the top-level value is not an object. */
  def parseObject(s: String): JObj = parse(s) match {
    case o: JObj => o
    case other   => throw JsonParseException(s"expected object, got ${other.getClass.getSimpleName}", 0)
  }

  /** The value that starts at token `t`; Jackson itself rejects malformed
    * structure, so an object holds names and values up to its end token.
    */
  private def value(p: Tokens, t: JsonToken): JsonValue = t match {
    case JsonToken.START_OBJECT =>
      val fields = Vector.newBuilder[(String, JsonValue)]
      while (p.nextToken() == JsonToken.FIELD_NAME) fields += ((p.currentName, value(p, p.nextToken())))
      JObj(fields.result())
    case JsonToken.START_ARRAY =>
      val items = Vector.newBuilder[JsonValue]
      var next = p.nextToken()
      while (next != JsonToken.END_ARRAY) { items += value(p, next); next = p.nextToken() }
      JArr(items.result())
    case JsonToken.VALUE_STRING                                    => JStr(p.getText)
    case JsonToken.VALUE_NUMBER_INT | JsonToken.VALUE_NUMBER_FLOAT => JNum(p.getText)
    case JsonToken.VALUE_TRUE                                      => JBool(true)
    case JsonToken.VALUE_FALSE                                     => JBool(false)
    case JsonToken.VALUE_NULL                                      => JNull
    case _ => throw JsonParseException(s"unexpected ${Option(t).getOrElse("end of input")}", p.currentLocation.getCharOffset.toInt)
  }
}
