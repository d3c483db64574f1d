package repro.client

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.core._
import repro.json.JsonParser
import repro.workload.JsonDatasets

/** Client-side raw-string predicate evaluation (paper §IV).
  *
  * The load-bearing property: string matching may report false positives
  * but NEVER false negatives w.r.t. typed evaluation on the parsed object.
  */
class ClientFilterSpec extends AnyFunSuite with PropSupport {
  import ClientFilterSpec.Obj

  private val line = """{"name":"Bob","age":22,"text":"really delicious food","email":"b@x.com","score":10}"""

  // ---- atom matching on the Table I examples ----

  test("exact match finds the quoted value") {
    assert(ClientFilter.matchAtom(line, ExactMatch("name", "Bob")))
    assert(!ClientFilter.matchAtom(line, ExactMatch("name", "Alice")))
  }

  test("exact match does not fire on unquoted occurrences") {
    // "delicious" appears but not as a quoted JSON string value
    assert(!ClientFilter.matchAtom(line, ExactMatch("text", "delicious")))
  }

  test("substring match fires anywhere in the object") {
    assert(ClientFilter.matchAtom(line, SubstringMatch("text", "delicious")))
    assert(!ClientFilter.matchAtom(line, SubstringMatch("text", "terrible")))
  }

  test("key presence fires on the quoted key") {
    assert(ClientFilter.matchAtom(line, KeyPresence("email")))
    assert(!ClientFilter.matchAtom(line, KeyPresence("phone")))
  }

  test("key-value match finds the literal between key and delimiter") {
    assert(ClientFilter.matchAtom(line, KeyValueMatch("age", "22")))
    assert(!ClientFilter.matchAtom(line, KeyValueMatch("age", "23")))
  }

  test("key-value match at end of object (closing brace delimiter)") {
    assert(ClientFilter.matchAtom(line, KeyValueMatch("score", "10")))
  }

  test("key-value match does not cross the field delimiter") {
    // "22" belongs to age; the literal search window for "name" ends at ','
    assert(!ClientFilter.matchAtom(line, KeyValueMatch("name", "22")))
  }

  test("key-value match on a number finds spellings with an exponent or a fraction") {
    for (l <- Seq("""{"x":1e2}""", """{"x":1E+2}""", """{"x":0.1e3}""", """{"x":100.0}""", """{"x" : 1e2 ,"y":1}""")) {
      assert(KeyValueMatch("x", "100").evalParsed(JsonParser.parseObject(l)), l)
      assert(ClientFilter.matchAtom(l, KeyValueMatch("x", "100")), l)
      assert(ClientFilter.chunkBits(Vector(l), Seq(0 -> Clause(KeyValueMatch("x", "100"))))(0).get(0), l)
    }
    assert(!ClientFilter.matchAtom("""{"x":1e2,"y":100}""", KeyValueMatch("y", "5")))
    assert(!ClientFilter.matchAtom("""{"isActive":true}""", KeyValueMatch("isActive", "false")),
      "a boolean literal keeps the plain literal search")
  }

  test("key-value match on a number literal not in plain spelling matches every value of its key") {
    for (lit <- Seq("1e2", "100.0", "-0")) {
      assert(ClientFilter.matchAtom("""{"x":7}""", KeyValueMatch("x", lit)), lit)
      assert(!ClientFilter.matchAtom("""{"y":7}""", KeyValueMatch("x", lit)), lit)
    }
    assert(ClientFilter.matchAtom("""{"x":0}""", KeyValueMatch("x", "-0")))
  }

  test("key-value false positive: substring of the value matches (allowed)") {
    assert(ClientFilter.matchAtom(line, KeyValueMatch("age", "2")),
      "client-side matching is allowed to over-approximate")
  }

  test("exact-match false positive across keys is possible (paper example)") {
    val l = """{"a":"Bob","name":"Zed"}"""
    assert(ClientFilter.matchAtom(l, ExactMatch("name", "Bob")),
      "pattern \"Bob\" found under another key — allowed false positive")
  }

  test("clause matching is an OR over atoms") {
    val clause = Clause(ExactMatch("name", "Alice"), KeyValueMatch("age", "22"))
    assert(ClientFilter.matchClause(line, clause))
    assert(!ClientFilter.matchClause(line, Clause(ExactMatch("name", "Alice"), KeyValueMatch("age", "9"))))
  }

  // ---- chunking ----

  test("chunking partitions lines in order") {
    val lines  = Vector.tabulate(10)(i => s"""{"i":$i}""")
    val chunks = ClientFilter.chunk(lines, 4)
    assert(chunks.map(_.size) === Vector(4, 4, 2))
    assert(chunks.flatten === lines)
  }

  test("chunk size must be positive") {
    intercept[IllegalArgumentException](ClientFilter.chunk(Vector("x"), 0))
  }

  test("chunkBits produces one bit-vector per predicate, one bit per line") {
    val lines = Vector(
      """{"stars":5,"text":"ok"}""",
      """{"stars":3,"text":"delicious"}""",
      """{"stars":5,"text":"delicious"}""")
    val bits = ClientFilter.chunkBits(lines, Seq(
      0 -> Clause(KeyValueMatch("stars", "5")),
      1 -> Clause(SubstringMatch("text", "delicious"))))
    assert(bits(0) === BitVec.tabulate(3)(Vector(true, false, true)))
    assert(bits(1) === BitVec.tabulate(3)(Vector(false, true, true)))
  }

  test("chunkBits sets the bit of every line with an escape, for every predicate") {
    val cases = Seq(
      """{"name":"a\/b"}"""  -> Clause(ExactMatch("name", "a/b")),
      """{"name":"a\"b"}"""  -> Clause(ExactMatch("name", "a\"b")),
      "{\"n\\u0061me\":\"x\"}" -> Clause(KeyPresence("name")))
    cases.foreach { case (l, clause) =>
      assert(clause.evalParsed(JsonParser.parseObject(l)), l)
      val bits = ClientFilter.chunkBits(Vector("""{"other":1}""", l), Seq(0 -> clause, 1 -> Clause(KeyPresence("zzz"))))
      assert(bits(0) === BitVec.tabulate(2)(_ == 1), l)
      assert(bits(1) === BitVec.tabulate(2)(_ == 1), l)
    }
  }

  test("prefilter measures elapsed time and covers all chunks") {
    val lines  = Vector.tabulate(100)(i => s"""{"v":$i}""")
    val chunks = ClientFilter.chunk(lines, 30)
    val res    = ClientFilter.prefilter(chunks, Seq(0 -> Clause(KeyValueMatch("v", "7"))))
    assert(res.bitsPerChunk.size === chunks.size)
    assert(res.elapsedNanos > 0)
    // substring semantics over-approximate: 7, 17, 27, …, 70-79 all contain "7"
    val expected = (0 until 100).count(_.toString.contains("7"))
    assert(res.bitsPerChunk.map(_(0).cardinality).sum === expected)
  }

  // ---- THE property: no false negatives ----

  /** Every atom true on a parsed line has its bit set by `chunkBits`. */
  private def noFalseNegative(lines: Seq[String], atoms: Seq[Atom]): Unit = {
    val bits = ClientFilter.chunkBits(lines.toVector, atoms.indices.map(i => i -> Clause(atoms(i))))
    lines.indices.foreach { r =>
      val obj = JsonParser.parseObject(lines(r))
      atoms.indices.foreach { i =>
        if (atoms(i).evalParsed(obj))
          assert(bits(i).get(r),
            s"FALSE NEGATIVE: typed says true, client says false for ${atoms(i)} on ${lines(r)}")
      }
    }
  }

  test("no false negatives on the yelp generator (all pool atom kinds)") {
    val ds = JsonDatasets.yelp(400, seed = 5)
    val atoms = Seq[Atom](
      KeyValueMatch("stars", "5"), KeyValueMatch("useful", "0"), KeyValueMatch("useful", "12"),
      ExactMatch("user_id", "u007"), SubstringMatch("text", "delicious"),
      SubstringMatch("date", "-07-"), SubstringMatch("date", "2010"), KeyPresence("funny"))
    noFalseNegative(ds.lines, atoms)
  }

  test("no false negatives on the winlog generator") {
    val ds = JsonDatasets.winlog(400, seed = 6)
    val atoms = Seq[Atom](
      SubstringMatch("info", "kw003"), SubstringMatch("ts", "-03-"),
      SubstringMatch("ts", ":30:"), ExactMatch("level", "Error"), KeyPresence("component"))
    noFalseNegative(ds.lines, atoms)
  }

  test("no false negatives on the ycsb generator") {
    val ds = JsonDatasets.ycsb(400, seed = 7)
    val atoms = Seq[Atom](
      KeyValueMatch("isActive", "true"), KeyValueMatch("linear_score", "0"),
      ExactMatch("phone_country", "US"), ExactMatch("age_group", "adult"),
      SubstringMatch("url_domain", "com"), SubstringMatch("email", "@gmail"),
      KeyValueMatch("age_by_group", "37"))
    noFalseNegative(ds.lines, atoms)
  }

  /** Objects whose name may hold an escape (`\"`, `\\`, `\/`, `\u00e9`),
    * whose age is spelled `a`, `a.0` or `ae0` (sometimes with spaces around
    * the colon), whose fields come in a random order, and which may hold a
    * nested `"meta":{"age":…}` that reuses the key, first or last.
    */
  private val objGen: Gen[Obj] = for {
    plain  <- Gen.alphaStr.map(_.take(8)).suchThat(_.nonEmpty)
    escape <- Gen.oneOf(Seq("" -> "", "\"" -> "\\\"", "\\" -> "\\\\", "/" -> "\\/", "\u00e9" -> "\\u00e9"))
    word   <- Gen.alphaLowerStr.map(_.take(6)).suchThat(_.nonEmpty)
    age    <- Gen.choose(0L, 120L)
    value  <- Gen.oneOf(s"$age", s"$age.0", s"${age}e0")
    colon  <- Gen.oneOf(":", ":", " : ", ": ")
    order  <- Gen.long
    inner  <- Gen.choose(0L, 120L)
    nested <- Gen.oneOf("none", "first", "last")
  } yield {
    val (decoded, spelled) = escape
    val fields = new scala.util.Random(order).shuffle(Vector(
      s""""name":"$plain$spelled"""", s""""note":"some $word here"""", s""""age"$colon$value"""))
    val meta = s""""meta":{"age":$inner}"""
    val all = nested match {
      case "first" => meta +: fields
      case "last"  => fields :+ meta
      case _       => fields
    }
    Obj(plain + decoded, word, age, all.mkString("{", ",", "}"))
  }

  test("property: no false negatives on randomly generated flat objects") {
    forAllSamples(Gen.listOfN(5, objGen), n = 60) { objs =>
      val atoms = objs.flatMap { o =>
        Seq[Atom](ExactMatch("name", o.name), SubstringMatch("note", o.word),
          KeyValueMatch("age", o.age.toString), KeyPresence("note"))
      }
      noFalseNegative(objs.map(_.line), atoms)
    }
  }

  test("property: clause-level no false negatives under disjunction") {
    forAllSamples(Gen.listOfN(4, objGen), n = 40) { objs =>
      val lines  = objs.map(_.line).toVector
      val clause = Clause(ExactMatch("name", objs.head.name), KeyValueMatch("age", objs.last.age.toString))
      val bits   = ClientFilter.chunkBits(lines, Seq(0 -> clause))(0)
      lines.indices.foreach { r =>
        if (clause.evalParsed(JsonParser.parseObject(lines(r))))
          assert(bits.get(r), s"FALSE NEGATIVE: $clause on ${lines(r)}")
      }
    }
  }
}

object ClientFilterSpec {
  /** One generated object line and the values its atoms test. */
  final case class Obj(name: String, word: String, age: Long, line: String)
}
