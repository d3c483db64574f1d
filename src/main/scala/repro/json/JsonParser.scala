package repro.json

/** Recursive-descent JSON parser (rapidJSON substitute, see DESIGN.md §3).
  *
  * Supports the full JSON grammar: objects, arrays, strings with escape
  * sequences (incl. \uXXXX), numbers (sign/fraction/exponent), booleans
  * and null. Throws [[JsonParseException]] on malformed input with the
  * offending offset.
  */
object JsonParser {

  final case class JsonParseException(msg: String, pos: Int)
      extends RuntimeException(s"$msg at offset $pos")

  /** Parse a complete JSON document; trailing non-whitespace is an error. */
  def parse(s: String): JsonValue = {
    val p = new P(s)
    p.skipWs()
    val v = p.value()
    p.skipWs()
    if (!p.eof) throw JsonParseException(s"trailing content '${p.peek}'", p.pos)
    v
  }

  /** Parse a JSON object document, failing if the top-level value is not an object. */
  def parseObject(s: String): JObj = parse(s) match {
    case o: JObj => o
    case other   => throw JsonParseException(s"expected object, got ${other.getClass.getSimpleName}", 0)
  }

  private final class P(s: String) {
    var pos = 0
    def eof: Boolean = pos >= s.length
    def peek: Char   = s.charAt(pos)

    def skipWs(): Unit =
      while (!eof && (peek == ' ' || peek == '\t' || peek == '\n' || peek == '\r')) pos += 1

    private def fail(msg: String): Nothing = throw JsonParseException(msg, pos)

    private def expect(c: Char): Unit = {
      if (eof || peek != c) fail(s"expected '$c'" + (if (eof) " (eof)" else s", got '$peek'"))
      pos += 1
    }

    def value(): JsonValue = {
      if (eof) fail("unexpected eof")
      peek match {
        case '{'                                      => obj()
        case '['                                      => arr()
        case '"'                                      => JStr(string())
        case 't'                                      => lit("true", JBool(true))
        case 'f'                                      => lit("false", JBool(false))
        case 'n'                                      => lit("null", JNull)
        case c if c == '-' || (c >= '0' && c <= '9')  => number()
        case c                                        => fail(s"unexpected character '$c'")
      }
    }

    private def lit(word: String, v: JsonValue): JsonValue = {
      if (pos + word.length > s.length || s.substring(pos, pos + word.length) != word)
        fail(s"invalid literal, expected '$word'")
      pos += word.length
      v
    }

    private def obj(): JObj = {
      expect('{'); skipWs()
      val fields = Vector.newBuilder[(String, JsonValue)]
      if (!eof && peek == '}') { pos += 1; return JObj(fields.result()) }
      var done = false
      while (!done) {
        skipWs()
        val k = string()
        skipWs(); expect(':'); skipWs()
        val v = value()
        fields += ((k, v))
        skipWs()
        if (eof) fail("unterminated object")
        peek match {
          case ',' => pos += 1
          case '}' => pos += 1; done = true
          case c   => fail(s"expected ',' or '}', got '$c'")
        }
      }
      JObj(fields.result())
    }

    private def arr(): JArr = {
      expect('['); skipWs()
      val items = Vector.newBuilder[JsonValue]
      if (!eof && peek == ']') { pos += 1; return JArr(items.result()) }
      var done = false
      while (!done) {
        skipWs()
        items += value()
        skipWs()
        if (eof) fail("unterminated array")
        peek match {
          case ',' => pos += 1
          case ']' => pos += 1; done = true
          case c   => fail(s"expected ',' or ']', got '$c'")
        }
      }
      JArr(items.result())
    }

    private def string(): String = {
      expect('"')
      val sb = new StringBuilder
      while (true) {
        if (eof) fail("unterminated string")
        val c = peek
        pos += 1
        c match {
          case '"'  => return sb.toString
          case '\\' =>
            if (eof) fail("unterminated escape")
            val e = peek; pos += 1
            e match {
              case '"'  => sb.append('"')
              case '\\' => sb.append('\\')
              case '/'  => sb.append('/')
              case 'n'  => sb.append('\n')
              case 't'  => sb.append('\t')
              case 'r'  => sb.append('\r')
              case 'b'  => sb.append('\b')
              case 'f'  => sb.append('\f')
              case 'u'  =>
                if (pos + 4 > s.length) fail("truncated \\u escape")
                val hex = s.substring(pos, pos + 4)
                if (!hex.forall(h => h < 0x80 && Character.digit(h, 16) >= 0)) fail(s"bad \\u escape '$hex'")
                sb.append(Integer.parseInt(hex, 16).toChar); pos += 4
              case o    => fail(s"bad escape '\\$o'")
            }
          case o if o < 0x20 => fail("raw control character in string")
          case o    => sb.append(o)
        }
      }
      throw new IllegalStateException("unreachable")
    }

    /** An ASCII digit at `pos`: RFC 8259 numbers allow no other (`Char.isDigit` would). */
    private def digit: Boolean = !eof && peek >= '0' && peek <= '9'

    private def number(): JNum = {
      val start = pos
      if (!eof && peek == '-') pos += 1
      if (!digit) fail("malformed number")
      if (peek == '0') { pos += 1; if (digit) fail("number with a leading zero") }
      else while (digit) pos += 1
      if (!eof && peek == '.') {
        pos += 1
        if (!digit) fail("malformed number fraction")
        while (digit) pos += 1
      }
      if (!eof && (peek == 'e' || peek == 'E')) {
        pos += 1
        if (!eof && (peek == '+' || peek == '-')) pos += 1
        if (!digit) fail("malformed number exponent")
        while (digit) pos += 1
      }
      JNum(s.substring(start, pos))
    }
  }
}
