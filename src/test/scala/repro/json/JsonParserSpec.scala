package repro.json

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropSupport
import repro.workload.JsonDatasets

/** Unit + property tests for the minimal JSON parser substrate. */
class JsonParserSpec extends AnyFunSuite with PropSupport {

  test("parses an empty object") {
    assert(JsonParser.parse("{}") === JObj(Vector.empty))
  }

  test("parses an empty array") {
    assert(JsonParser.parse("[]") === JArr(Vector.empty))
  }

  test("parses flat object with all scalar types") {
    val v = JsonParser.parseObject("""{"a":"x","b":12,"c":-3.5,"d":true,"e":false,"f":null}""")
    assert(v("a") === JStr("x"))
    assert(v("b") === JNum("12"))
    assert(v("c") === JNum("-3.5"))
    assert(v("d") === JBool(true))
    assert(v("e") === JBool(false))
    assert(v("f") === JNull)
  }

  test("parses nested objects") {
    val v = JsonParser.parseObject("""{"a":{"b":{"c":1}}}""")
    assert(v("a").asInstanceOf[JObj]("b").asInstanceOf[JObj]("c") === JNum("1"))
  }

  test("parses arrays of mixed values") {
    val v = JsonParser.parse("""[1,"two",true,null,{"k":2},[3]]""").asInstanceOf[JArr]
    assert(v.items.size === 6)
    assert(v.items(4).asInstanceOf[JObj]("k") === JNum("2"))
  }

  test("preserves field order in objects") {
    val v = JsonParser.parseObject("""{"z":1,"a":2,"m":3}""")
    assert(v.fields.map(_._1) === Vector("z", "a", "m"))
  }

  test("handles whitespace everywhere") {
    val v = JsonParser.parse(" { \"a\" :\t[ 1 ,\n 2 ] } ").asInstanceOf[JObj]
    assert(v("a") === JArr(Vector(JNum("1"), JNum("2"))))
  }

  test("parses escape sequences") {
    val v = JsonParser.parse("\"a\\\"b\\\\c\\nd\\te\\u0041\"").asInstanceOf[JStr]
    assert(v.value === "a\"b\\c\nd\teA")
  }

  test("parses forward-slash and control escapes") {
    assert(JsonParser.parse("\"\\/\\b\\f\\r\"") === JStr("/\b\f\r"))
  }

  test("number lexemes are preserved exactly") {
    assert(JsonParser.parse("2.40").asInstanceOf[JNum].raw === "2.40")
    assert(JsonParser.parse("24e-1").asInstanceOf[JNum].raw === "24e-1")
    assert(JsonParser.parse("2.40").asInstanceOf[JNum].toDouble === 2.4)
    assert(JsonParser.parse("24e-1").asInstanceOf[JNum].toDouble === 2.4)
  }

  test("parses negative and exponent numbers") {
    assert(JsonParser.parse("-12").asInstanceOf[JNum].toLong === -12L)
    assert(JsonParser.parse("1.5E+2").asInstanceOf[JNum].toDouble === 150.0)
    assert(JsonParser.parse("1e2").asInstanceOf[JNum].toLong === 100L)
    assert(JsonParser.parse("9007199254740993").asInstanceOf[JNum].toLong === 9007199254740993L)
    intercept[ArithmeticException](JsonParser.parse("1.7").asInstanceOf[JNum].toLong)
  }

  test("rejects trailing garbage") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1} x"""))
  }

  test("rejects unterminated string") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("\"abc"))
  }

  test("rejects unterminated object and array") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1"""))
    intercept[JsonParser.JsonParseException](JsonParser.parse("[1,2"))
  }

  test("rejects bad literals") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("tru"))
    intercept[JsonParser.JsonParseException](JsonParser.parse("nul"))
  }

  test("rejects malformed numbers") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("-"))
    intercept[JsonParser.JsonParseException](JsonParser.parse("1."))
    intercept[JsonParser.JsonParseException](JsonParser.parse("1e"))
    // RFC 8259 §6: ASCII digits only, and no leading zero
    for (bad <- Seq("{\"x\":1\u0661}", "{\"x\":01}", "-01", "1.\u0661", "1e\u0661"))
      intercept[JsonParser.JsonParseException](JsonParser.parse(bad))
    assert(JsonParser.parse("[0,-0,0.5,0e1]") === JArr(Vector(JNum("0"), JNum("-0"), JNum("0.5"), JNum("0e1"))))
  }

  test("rejects missing colon and stray commas") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a" 1}"""))
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1,}"""))
  }

  test("rejects raw control characters inside strings") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("\"a\nb\""))
  }

  test("parseObject rejects non-object documents") {
    intercept[JsonParser.JsonParseException](JsonParser.parseObject("[1]"))
  }

  test("bad \\u escape is rejected") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("\"\\uZZZZ\""))
    // exactly four ASCII hex digits: no sign, no non-ASCII digit
    for (bad <- Seq("\"\\u+041\"", "\"\\u-041\"", "\"\\u\u0660\u0660\u0664\u0661\""))
      intercept[JsonParser.JsonParseException](JsonParser.parse(bad))
    assert(JsonParser.parse("\"\\u00e9\\u00C9\"") === JStr("\u00e9\u00c9"))
  }

  test("rejects what RFC 8259 leaves out: empty input, trailing commas, comments, non-JSON literals, two roots") {
    for (bad <- Seq("", " \t\n ", "[1,]", "/*c*/1", "'a'", "{a:1}", "NaN", "+1", ".5", """{"a":1}{"b":2}"""))
      intercept[JsonParser.JsonParseException](JsonParser.parse(bad))
  }

  test("a number past 1,000 characters or nesting past depth 1,000 raises JsonParseException") {
    assert(JsonParser.parse("9" * 1000) === JNum("9" * 1000))
    intercept[JsonParser.JsonParseException](JsonParser.parse("9" * 1001))
    assert(JsonParser.parse("[" * 1000 + "]" * 1000).isInstanceOf[JArr])
    intercept[JsonParser.JsonParseException](JsonParser.parse("[" * 1001 + "]" * 1001))
  }

  test("a failure reports the character offset where the input went wrong") {
    assert(intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1} x""")).pos === 8)
    assert(intercept[JsonParser.JsonParseException](JsonParser.parse("[1,]")).pos === 3)
    assert(intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1}{"b":2}""")).pos === 7)
  }

  test("every generated dataset line renders back to itself") {
    for (ds <- Seq(JsonDatasets.yelp(40000), JsonDatasets.winlog(40000), JsonDatasets.ycsb(40000))) {
      val differ = ds.lines.filter(l => JsonParser.parse(l).render != l)
      assert(differ.isEmpty, s"${ds.name}: ${differ.size} lines differ, first ${differ.headOption}")
    }
  }

  private val jsonStringGen: Gen[String] =
    Gen.listOf(Gen.frequency(
      8 -> Gen.alphaNumChar,
      1 -> Gen.oneOf('"', '\\', '\n', '\t', ' '),
    )).map(_.mkString)

  test("property: quote/parse round-trips arbitrary strings") {
    forAllSamples(jsonStringGen) { s =>
      assert(JsonParser.parse(JsonValue.quote(s)) === JStr(s))
    }
  }

  private val flatObjGen: Gen[JObj] = {
    val fieldGen = for {
      k <- Gen.identifier.map(_.take(10)).suchThat(_.nonEmpty)
      v <- Gen.oneOf[JsonValue](
        Gen.choose(-1000000L, 1000000L).map(n => JNum(n.toString)),
        jsonStringGen.map(JStr.apply),
        Gen.oneOf(JBool(true), JBool(false), JNull),
      )
    } yield (k, v)
    Gen.listOf(fieldGen).map(fs => JObj(fs.toVector.distinctBy(_._1)))
  }

  test("property: render/parse round-trips flat objects") {
    forAllSamples(flatObjGen) { o =>
      assert(JsonParser.parse(o.render) === o)
    }
  }

  test("property: render/parse round-trips nested structures") {
    forAllSamples2(flatObjGen, flatObjGen) { (a, b) =>
      val nested = JObj(Vector("inner" -> a, "arr" -> JArr(Vector(b, JNum("1")))))
      assert(JsonParser.parse(nested.render) === nested)
    }
  }
}
