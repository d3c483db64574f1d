package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.json.JsonParser

/** Predicate model tests, anchored on the paper's Table I examples. */
class PredicateSpec extends AnyFunSuite {

  // ---- Table I rows, verbatim ----

  test("Table I row 1: exact match name = \"Bob\" has pattern \"Bob\" (quoted)") {
    assert(ExactMatch("name", "Bob").patterns === Seq("\"Bob\""))
  }

  test("Table I row 2: substring match text LIKE %delicious% has pattern delicious") {
    assert(SubstringMatch("text", "delicious").patterns === Seq("delicious"))
  }

  test("Table I row 3: key-presence email != NULL has pattern \"email\"") {
    assert(KeyPresence("email").patterns === Seq("\"email\""))
  }

  test("Table I row 4: key-value match age = 10 has patterns \"age\" and 10") {
    assert(KeyValueMatch("age", "10").patterns === Seq("\"age\"", "10"))
  }

  // ---- SQL rendering ----

  test("exact match SQL") { assert(ExactMatch("name", "Bob").sql === "name = 'Bob'") }
  test("substring match SQL") { assert(SubstringMatch("text", "delicious").sql === "text LIKE '%delicious%'") }
  test("key presence SQL") { assert(KeyPresence("email").sql === "email IS NOT NULL") }
  test("key-value SQL") { assert(KeyValueMatch("age", "10").sql === "age = 10") }
  test("single quotes are escaped in SQL literals") {
    assert(ExactMatch("name", "O'Brien").sql === "name = 'O''Brien'")
  }
  test("single-atom clause SQL is bare") {
    assert(Clause(ExactMatch("a", "x")).sql === "a = 'x'")
  }
  test("disjunctive clause SQL is parenthesized ORs") {
    assert(Clause(ExactMatch("name", "Bob"), ExactMatch("name", "John")).sql ===
      "(name = 'Bob' OR name = 'John')")
  }
  test("query SQL joins clauses with AND") {
    val q = CiaoQuery(Vector(
      Clause(ExactMatch("name", "Bob"), ExactMatch("name", "John")),
      Clause(KeyValueMatch("age", "20"))))
    assert(q.whereSql === "(name = 'Bob' OR name = 'John') AND age = 20")
  }

  // ---- typed evaluation ----

  private val bob = JsonParser.parseObject("""{"name":"Bob","age":22,"active":true,"email":"b@x.com","note":null}""")

  test("exact match typed evaluation") {
    assert(ExactMatch("name", "Bob").evalParsed(bob))
    assert(!ExactMatch("name", "Bo").evalParsed(bob))
    assert(!ExactMatch("missing", "Bob").evalParsed(bob))
  }

  test("substring match typed evaluation") {
    assert(SubstringMatch("email", "@x").evalParsed(bob))
    assert(!SubstringMatch("email", "@y").evalParsed(bob))
    assert(!SubstringMatch("age", "2").evalParsed(bob), "substring on non-string is false")
  }

  test("key presence typed evaluation treats null as absent") {
    assert(KeyPresence("email").evalParsed(bob))
    assert(!KeyPresence("note").evalParsed(bob), "explicit null is not present (x != NULL)")
    assert(!KeyPresence("missing").evalParsed(bob))
  }

  test("key-value typed evaluation on numbers and booleans") {
    assert(KeyValueMatch("age", "22").evalParsed(bob))
    assert(!KeyValueMatch("age", "23").evalParsed(bob))
    assert(KeyValueMatch("active", "true").evalParsed(bob))
    assert(!KeyValueMatch("active", "false").evalParsed(bob))
  }

  test("key-value matches numerically equal representations") {
    val o = JsonParser.parseObject("""{"x":2.4}""")
    assert(KeyValueMatch("x", "2.4").evalParsed(o))
  }

  test("key-value typed evaluation compares numbers exactly, beyond Double precision") {
    val big = JsonParser.parseObject("""{"x":9007199254740993}""")
    assert(!KeyValueMatch("x", "9007199254740992").evalParsed(big))
    assert(KeyValueMatch("x", "9007199254740993").evalParsed(big))
  }

  test("key-value typed evaluation matches other spellings of the same number") {
    for (lexeme <- Seq("1e2", "100.0", "1.00E+2"))
      assert(KeyValueMatch("x", "100").evalParsed(JsonParser.parseObject(s"""{"x":$lexeme}""")), lexeme)
    assert(!KeyValueMatch("x", "100").evalParsed(JsonParser.parseObject("""{"x":100.5}""")))
  }

  test("key-value typed evaluation of a non-numeric literal against a number is lexeme equality") {
    assert(!KeyValueMatch("x", "true").evalParsed(JsonParser.parseObject("""{"x":1}""")))
  }

  test("clause evaluation is an OR over atoms") {
    val cl = Clause(ExactMatch("name", "John"), KeyValueMatch("age", "22"))
    assert(cl.evalParsed(bob))
    assert(!Clause(ExactMatch("name", "John"), KeyValueMatch("age", "23")).evalParsed(bob))
  }

  test("query evaluation is an AND over clauses") {
    val q = CiaoQuery(Vector(Clause(ExactMatch("name", "Bob")), Clause(KeyValueMatch("age", "22"))))
    assert(q.evalParsed(bob))
    val q2 = CiaoQuery(Vector(Clause(ExactMatch("name", "Bob")), Clause(KeyValueMatch("age", "23"))))
    assert(!q2.evalParsed(bob))
  }

  // ---- canonical identity ----

  test("clause canonical form is atom-order independent") {
    val a = Clause(ExactMatch("n", "x"), KeyValueMatch("a", "1"))
    val b = Clause(KeyValueMatch("a", "1"), ExactMatch("n", "x"))
    assert(a.canonical === b.canonical)
  }

  test("canonical forms distinguish atom kinds on the same attr/value") {
    assert(ExactMatch("a", "x").canonical !== SubstringMatch("a", "x").canonical)
    assert(KeyValueMatch("a", "1").canonical !== ExactMatch("a", "1").canonical)
  }

  test("empty clause is rejected") {
    intercept[IllegalArgumentException](Clause(Vector.empty))
  }

  test("empty query is rejected") {
    intercept[IllegalArgumentException](CiaoQuery(Vector.empty))
  }
}
