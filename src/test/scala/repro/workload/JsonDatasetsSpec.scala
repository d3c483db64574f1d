package repro.workload

import org.scalatest.funsuite.AnyFunSuite

import repro.json.{JNum, JObj, JStr, JsonParser}

/** Dataset generators: valid JSON, determinism, schema fields, domains. */
class JsonDatasetsSpec extends AnyFunSuite {

  private val yelp   = JsonDatasets.yelp(500, seed = 1)
  private val winlog = JsonDatasets.winlog(500, seed = 2)
  private val ycsb   = JsonDatasets.ycsb(500, seed = 3)

  test("every generated line is valid JSON") {
    (yelp.lines ++ winlog.lines ++ ycsb.lines).foreach(l => JsonParser.parseObject(l))
  }

  test("generators are deterministic in (rows, seed)") {
    assert(JsonDatasets.yelp(100, 9).lines === JsonDatasets.yelp(100, 9).lines)
    assert(JsonDatasets.winlog(100, 9).lines === JsonDatasets.winlog(100, 9).lines)
    assert(JsonDatasets.ycsb(100, 9).lines === JsonDatasets.ycsb(100, 9).lines)
    assert(JsonDatasets.yelp(100, 9).lines !== JsonDatasets.yelp(100, 10).lines)
  }

  test("requested row counts are honored") {
    assert(yelp.lines.size === 500 && winlog.lines.size === 500 && ycsb.lines.size === 500)
  }

  test("yelp objects contain all schema fields with expected domains") {
    yelp.lines.take(100).map(JsonParser.parseObject).foreach { o =>
      yelp.schema.fieldNames.foreach(n => assert(o.has(n), s"missing $n"))
      val stars = o("stars").asInstanceOf[JNum].toLong
      assert(stars >= 1 && stars <= 5)
      val useful = o("useful").asInstanceOf[JNum].toLong
      assert(useful >= 0 && useful <= 99)
      assert(o("date").asInstanceOf[JStr].value.matches("\\d{4}-\\d{2}-\\d{2}"))
      assert(o("user_id").asInstanceOf[JStr].value.matches("u\\d{3}"))
    }
  }

  test("winlog timestamps carry the full HH:MM:SS,mmm layout used by Table II patterns") {
    winlog.lines.take(100).map(JsonParser.parseObject).foreach { o =>
      val ts = o("ts").asInstanceOf[JStr].value
      assert(ts.matches("2016-\\d{2}-\\d{2} \\d{2}:\\d{2}:\\d{2},\\d{3}"), ts)
    }
  }

  test("winlog info embeds exactly one keyword from the 200-keyword pool") {
    winlog.lines.take(200).map(JsonParser.parseObject).foreach { o =>
      val info = o("info").asInstanceOf[JStr].value
      assert(JsonDatasets.WinlogKeywords.count(info.contains) === 1)
    }
  }

  test("winlog keyword frequencies are skewed (kw000 much more common than kw199)") {
    val big = JsonDatasets.winlog(3000, seed = 4)
    def freq(kw: String) = big.lines.count(_.contains(kw))
    assert(freq("kw000") > 10 * math.max(1, freq("kw199")))
  }

  test("ycsb objects have the Table II attributes with expected domains") {
    ycsb.lines.take(100).map(JsonParser.parseObject).foreach { o =>
      ycsb.schema.fieldNames.foreach(n => assert(o.has(n), s"missing $n"))
      assert(JsonDatasets.YcsbCountries.contains(o("phone_country").asInstanceOf[JStr].value))
      assert(JsonDatasets.YcsbAgeGroups.contains(o("age_group").asInstanceOf[JStr].value))
      assert(JsonDatasets.YcsbDomains.contains(o("url_domain").asInstanceOf[JStr].value))
      assert(JsonDatasets.YcsbSites.contains(o("url_site").asInstanceOf[JStr].value))
      val ls = o("linear_score").asInstanceOf[JNum].toLong
      assert(ls >= 0 && ls <= 99)
    }
  }

  test("ycsb objects include nested filler (address, arrays) for realistic size") {
    val o = JsonParser.parseObject(ycsb.lines.head)
    assert(o.has("address") && o("address").isInstanceOf[JObj])
    assert(o.has("children") && o.has("visited_places"))
    assert(o.fields.size >= 20, s"only ${o.fields.size} attributes")
  }

  test("average line lengths are realistic (JSON objects, not stubs)") {
    assert(yelp.avgLineLength > 150)
    assert(winlog.avgLineLength > 100)
    assert(ycsb.avgLineLength > 300)
  }

  test("byName dispatches and rejects unknown names") {
    assert(JsonDatasets.byName("yelp", 10).name === "yelp")
    assert(JsonDatasets.byName("winlog", 10).name === "winlog")
    assert(JsonDatasets.byName("ycsb", 10).name === "ycsb")
    intercept[IllegalArgumentException](JsonDatasets.byName("nope", 10))
  }
}
