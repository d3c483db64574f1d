package repro.server

import org.apache.spark.sql.sources._
import org.scalatest.funsuite.AnyFunSuite

import repro.core._

/** Filter canonicalization and registry matching (paper §VI-B). */
class DataSkippingSpec extends AnyFunSuite {

  private val registry = ChunkStore.Registry(Vector(
    ChunkStore.RegEntry(0, Clause(ExactMatch("name", "Bob")), 0.1, 0.1),
    ChunkStore.RegEntry(1, Clause(KeyValueMatch("age", "10")), 0.1, 0.1),
    ChunkStore.RegEntry(2, Clause(SubstringMatch("text", "delicious")), 0.1, 0.1),
    ChunkStore.RegEntry(3, Clause(KeyPresence("email")), 0.9, 0.1),
    ChunkStore.RegEntry(4, Clause(ExactMatch("uid", "a"), ExactMatch("uid", "b")), 0.05, 0.2),
  ))

  // ---- filterToClause ----

  test("EqualTo on a string becomes an exact match") {
    assert(DataSkipping.filterToClause(EqualTo("name", "Bob")) ===
      Some(Clause(ExactMatch("name", "Bob"))))
  }

  test("EqualTo on integral types becomes a key-value match") {
    assert(DataSkipping.filterToClause(EqualTo("age", 10)) === Some(Clause(KeyValueMatch("age", "10"))))
    assert(DataSkipping.filterToClause(EqualTo("age", 10L)) === Some(Clause(KeyValueMatch("age", "10"))))
  }

  test("EqualTo on booleans renders JSON literals") {
    assert(DataSkipping.filterToClause(EqualTo("ok", true)) === Some(Clause(KeyValueMatch("ok", "true"))))
    assert(DataSkipping.filterToClause(EqualTo("ok", false)) === Some(Clause(KeyValueMatch("ok", "false"))))
  }

  test("EqualTo on a whole double renders the integral lexeme") {
    assert(DataSkipping.filterToClause(EqualTo("x", 5.0)) === Some(Clause(KeyValueMatch("x", "5"))))
  }

  test("EqualTo on a double renders its exact plain decimal, never a saturated long") {
    def kv(d: Double) = DataSkipping.filterToClause(EqualTo("x", d)).map(_.atoms)
    assert(kv(1e20) === Some(Vector(KeyValueMatch("x", "100000000000000000000"))))
    assert(kv(5.0) === Some(Vector(KeyValueMatch("x", "5"))))
    assert(kv(-0.0) === Some(Vector(KeyValueMatch("x", "0"))))
    assert(kv(2.5) === Some(Vector(KeyValueMatch("x", "2.5"))))
    for (d <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) assert(kv(d).isEmpty)
  }

  test("StringContains becomes a substring match") {
    assert(DataSkipping.filterToClause(StringContains("text", "delicious")) ===
      Some(Clause(SubstringMatch("text", "delicious"))))
  }

  test("IsNotNull becomes key presence") {
    assert(DataSkipping.filterToClause(IsNotNull("email")) === Some(Clause(KeyPresence("email"))))
  }

  test("In becomes a disjunctive clause") {
    assert(DataSkipping.filterToClause(In("uid", Array("a", "b"))) ===
      Some(Clause(ExactMatch("uid", "a"), ExactMatch("uid", "b"))))
  }

  test("Or of convertible filters becomes a flattened clause") {
    val f = Or(EqualTo("uid", "a"), EqualTo("uid", "b"))
    assert(DataSkipping.filterToClause(f) === Some(Clause(ExactMatch("uid", "a"), ExactMatch("uid", "b"))))
  }

  test("unsupported filters are rejected (range, inequality, null, mixed Or)") {
    assert(DataSkipping.filterToClause(GreaterThan("age", 10)).isEmpty)
    assert(DataSkipping.filterToClause(LessThanOrEqual("age", 10)).isEmpty)
    assert(DataSkipping.filterToClause(IsNull("email")).isEmpty)
    assert(DataSkipping.filterToClause(Not(EqualTo("a", "b"))).isEmpty)
    assert(DataSkipping.filterToClause(Or(EqualTo("a", "b"), GreaterThan("c", 1))).isEmpty)
  }

  // ---- matchPushed ----

  test("matchPushed finds registry ids for matching conjuncts") {
    val (ids, fs) = DataSkipping.matchPushed(
      Seq(EqualTo("name", "Bob"), StringContains("text", "delicious"), GreaterThan("z", 1)), registry)
    assert(ids === Vector(0, 2))
    assert(fs.size === 2)
  }

  test("matchPushed matches disjunctions independent of atom order") {
    val (ids, _) = DataSkipping.matchPushed(Seq(In("uid", Array("b", "a"))), registry)
    assert(ids === Vector(4))
  }

  test("matchPushed returns nothing for unmatched filters") {
    val (ids, fs) = DataSkipping.matchPushed(Seq(EqualTo("name", "Zed"), EqualTo("other", 1)), registry)
    assert(ids.isEmpty && fs.isEmpty)
  }

  test("IsNotNull pushed by Spark alongside EqualTo can match key presence") {
    val (ids, _) = DataSkipping.matchPushed(Seq(IsNotNull("email"), EqualTo("email", "x@y.z")), registry)
    assert(ids === Vector(3))
  }

  test("matchQuery maps workload clauses to registry ids") {
    val q = CiaoQuery(Vector(
      Clause(ExactMatch("name", "Bob")),
      Clause(KeyValueMatch("age", "10")),
      Clause(ExactMatch("no", "match"))))
    assert(DataSkipping.matchQuery(q, registry) === Vector(0, 1))
  }

  // ---- combinedBits ----

  test("combinedBits ANDs the requested predicate vectors") {
    val sidecar = Map(
      0 -> BitVec.tabulate(4)(Vector(true, true, false, true)),
      1 -> BitVec.tabulate(4)(Vector(true, false, false, true)))
    val combined = DataSkipping.combinedBits(sidecar, Seq(0, 1), 4)
    assert(combined.setBits === Vector(0, 3))
    assert(combined.nBits === 4)
  }

  test("combinedBits with one id returns that vector") {
    val sidecar = Map(0 -> BitVec.tabulate(2)(Vector(false, true)))
    assert(DataSkipping.combinedBits(sidecar, Seq(0), 2) === sidecar(0))
  }

  test("combinedBits fails loudly on a vector whose length is not the chunk's row count") {
    val sidecar = Map(0 -> BitVec.full(4), 1 -> BitVec.full(5))
    for (nRows <- Seq(3, 5)) {
      val e = intercept[IllegalStateException](DataSkipping.combinedBits(sidecar, Seq(0, 1), nRows))
      assert(e.getMessage.contains("sidecar"))
    }
  }

  test("combinedBits fails loudly on a missing sidecar entry") {
    intercept[IllegalStateException](DataSkipping.combinedBits(Map.empty, Seq(0), 2))
  }
}
