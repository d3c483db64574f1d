package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport

/** Bit-vector substrate tests: construction, boolean algebra, compaction,
  * and the sidecar wire format.
  */
class BitVectorsSpec extends AnyFunSuite with PropSupport {

  test("empty has no set bits") {
    val v = BitVec.empty(100)
    assert(v.cardinality === 0)
    assert((0 until 100).forall(i => !v.get(i)))
  }

  test("full has all bits set, including non-word-aligned lengths") {
    for (n <- Seq(1, 63, 64, 65, 127, 128, 1000)) {
      val v = BitVec.full(n)
      assert(v.cardinality === n, s"n=$n")
      assert((0 until n).forall(v.get), s"n=$n")
    }
  }

  test("tabulate round-trips") {
    val bs = Vector(true, false, true, true, false)
    val v  = BitVec.tabulate(bs.size)(bs)
    assert(Vector.tabulate(v.nBits)(v.get) === bs)
  }

  test("get out of range throws") {
    intercept[IllegalArgumentException](BitVec.empty(5).get(5))
    intercept[IllegalArgumentException](BitVec.empty(5).get(-1))
  }

  test("and/or length mismatch throws") {
    intercept[IllegalArgumentException](BitVec.empty(5).and(BitVec.empty(6)))
    intercept[IllegalArgumentException](BitVec.empty(5).or(BitVec.empty(6)))
  }

  test("setBits lists indices ascending") {
    val v = BitVec.tabulate(5)(Vector(false, true, false, true, true))
    assert(v.setBits === Vector(1, 3, 4))
  }

  test("compact keeps only requested positions") {
    val v = BitVec.tabulate(5)(Vector(true, false, true, false, true))
    assert(v.compact(Vector(0, 1, 4)) === BitVec.tabulate(3)(Vector(true, false, true)))
  }

  test("intersectAll of nothing is full (identity)") {
    assert(BitVec.intersectAll(10, Seq.empty).cardinality === 10)
  }

  test("unionAll of nothing is empty (identity)") {
    assert(BitVec.unionAll(10, Seq.empty).cardinality === 0)
  }

  test("equals and hashCode respect content") {
    val a = BitVec.tabulate(3)(Vector(true, false, true))
    val b = BitVec.tabulate(3)(Vector(true, false, true))
    val c = BitVec.tabulate(3)(Vector(true, true, true))
    assert(a === b); assert(a.hashCode === b.hashCode); assert(a !== c)
  }

  /** Lengths around word boundaries, plus arbitrary ones. */
  private val lengthGen: Gen[Int] =
    Gen.frequency(1 -> Gen.oneOf(0, 1, 63, 64, 65, 128, 130), 1 -> Gen.choose(0, 300))

  private val boolsGen: Gen[Vector[Boolean]] =
    lengthGen.flatMap(n => Gen.containerOfN[Vector, Boolean](n, Gen.oneOf(true, false)))

  private def bitVec(bs: Vector[Boolean]): BitVec = BitVec.tabulate(bs.size)(bs)

  test("property: and/or agree with element-wise boolean ops") {
    forAllSamples(Gen.zip(boolsGen, boolsGen)) { case (xs0, ys0) =>
      val n  = math.min(xs0.size, ys0.size)
      val xs = xs0.take(n); val ys = ys0.take(n)
      val a  = bitVec(xs); val b = bitVec(ys)
      assert(a.and(b) === bitVec(xs.zip(ys).map(t => t._1 && t._2)))
      assert(a.or(b) === bitVec(xs.zip(ys).map(t => t._1 || t._2)))
    }
  }

  test("property: cardinality equals count of true") {
    forAllSamples(boolsGen) { bs =>
      assert(bitVec(bs).cardinality === bs.count(identity))
    }
  }

  test("property: tabulate, setBits and compact agree with a Vector[Boolean] model") {
    val withPositions = boolsGen.flatMap { bs =>
      Gen.containerOfN[Vector, Boolean](bs.size, Gen.oneOf(true, false))
        .map(pick => (bs, bs.indices.filter(pick).toVector))
    }
    forAllSamples(withPositions) { case (bs, positions) =>
      val v = bitVec(bs)
      assert(v.nBits === bs.size)
      assert(bs.indices.forall(i => v.get(i) == bs(i)))
      assert(v.setBits === bs.indices.filter(bs))
      assert(v.compact(positions) === bitVec(positions.map(bs)))
      assert(v.compact(bs.indices) === v)
    }
  }

  private def roundTrip(m: Map[Int, BitVec]): Map[Int, BitVec] = {
    val bos = new ByteArrayOutputStream()
    BitVectors.write(new DataOutputStream(bos), m)
    BitVectors.read(new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
  }

  test("sidecar serialization round-trips") {
    val m = Map(
      1 -> BitVec.tabulate(130)(_ % 3 == 0),
      7 -> BitVec.full(64),
      9 -> BitVec.empty(1),
    )
    assert(roundTrip(m) === m)
  }

  test("sidecar serialization round-trips the empty map") {
    assert(roundTrip(Map.empty) === Map.empty)
  }

  test("property: sidecar round-trips arbitrary maps") {
    val entryGen = Gen.zip(Gen.choose(0, 50), boolsGen.map(bitVec))
    forAllSamples(Gen.listOf(entryGen).map(_.toMap), n = 50) { m =>
      assert(roundTrip(m) === m)
    }
  }

  test("bad magic is rejected") {
    val bytes = Array.fill[Byte](8)(0x11)
    intercept[IllegalArgumentException](
      BitVectors.read(new DataInputStream(new ByteArrayInputStream(bytes))))
  }
}
