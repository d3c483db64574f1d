package repro.core

import java.io.{DataInputStream, DataOutputStream}

import scala.collection.immutable.ArraySeq

/** Dense fixed-length bit-vector, one bit per JSON object in a chunk.
  *
  * This is the wire/storage format of CIAO's client annotations: each pushed
  * predicate gets one [[BitVec]] per chunk (bit=1 ⇒ object may satisfy the
  * predicate). Bit i lives in word i/64, bit i%64.
  */
final class BitVec private (val nBits: Int, private val words: Array[Long]) {

  def get(i: Int): Boolean = {
    require(i >= 0 && i < nBits, s"bit $i out of range [0,$nBits)")
    (words(i >> 6) & (1L << (i & 63))) != 0L
  }

  /** Bitwise AND; both sides must have the same length. */
  def and(other: BitVec): BitVec = {
    require(other.nBits == nBits, s"length mismatch: $nBits vs ${other.nBits}")
    val w = new Array[Long](words.length)
    var i = 0
    while (i < w.length) { w(i) = words(i) & other.words(i); i += 1 }
    new BitVec(nBits, w)
  }

  /** Bitwise OR; both sides must have the same length. */
  def or(other: BitVec): BitVec = {
    require(other.nBits == nBits, s"length mismatch: $nBits vs ${other.nBits}")
    val w = new Array[Long](words.length)
    var i = 0
    while (i < w.length) { w(i) = words(i) | other.words(i); i += 1 }
    new BitVec(nBits, w)
  }

  /** Number of set bits. */
  def cardinality: Int = {
    var c = 0; var i = 0
    while (i < words.length) { c += java.lang.Long.bitCount(words(i)); i += 1 }
    c
  }

  /** Indices of set bits, ascending. */
  def setBits: IndexedSeq[Int] = {
    val out = new Array[Int](cardinality)
    var k = 0; var i = 0
    while (i < words.length) {
      var w = words(i)
      while (w != 0L) {
        out(k) = (i << 6) + java.lang.Long.numberOfTrailingZeros(w)
        k += 1
        w &= w - 1 // clear the lowest set bit
      }
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  /** Keep only the bits at `positions` (ascending), producing a compacted
    * vector of length `positions.size`. Used when partial loading drops
    * filtered-out rows: sidecar bit-vectors are re-indexed to loaded rows.
    */
  def compact(positions: IndexedSeq[Int]): BitVec =
    BitVec.tabulate(positions.size)(k => get(positions(k)))

  override def equals(o: Any): Boolean = o match {
    case b: BitVec => b.nBits == nBits && java.util.Arrays.equals(b.words, words)
    case _         => false
  }
  override def hashCode: Int = nBits * 31 + java.util.Arrays.hashCode(words)
  override def toString: String =
    s"BitVec($nBits bits, $cardinality set)"

  private[core] def rawWords: Array[Long] = words
}

object BitVectors {
  private val Magic = 0x43414f42 // "CAOB"

  /** Serialize a per-chunk sidecar: predicate id → bit-vector.
    * Layout: magic, nEntries, then per entry (predId, nBits, nWords, words).
    */
  def write(out: DataOutputStream, bits: Map[Int, BitVec]): Unit = {
    out.writeInt(Magic)
    out.writeInt(bits.size)
    for ((id, bv) <- bits.toSeq.sortBy(_._1)) {
      out.writeInt(id)
      out.writeInt(bv.nBits)
      val w = bv.rawWords
      out.writeInt(w.length)
      w.foreach(out.writeLong)
    }
  }

  /** Inverse of [[write]]. */
  def read(in: DataInputStream): Map[Int, BitVec] = {
    val magic = in.readInt()
    require(magic == Magic, f"bad sidecar magic 0x$magic%08x")
    val n = in.readInt()
    (0 until n).map { _ =>
      val id    = in.readInt()
      val nBits = in.readInt()
      val nW    = in.readInt()
      val words = Array.fill(nW)(in.readLong())
      id -> BitVec.fromWords(nBits, words)
    }.toMap
  }
}

object BitVec {
  def empty(nBits: Int): BitVec = new BitVec(nBits, new Array[Long]((nBits + 63) >> 6))

  def full(nBits: Int): BitVec = {
    val w = new Array[Long]((nBits + 63) >> 6)
    java.util.Arrays.fill(w, -1L)
    if (nBits % 64 != 0 && w.nonEmpty) w(w.length - 1) = (1L << (nBits % 64)) - 1
    new BitVec(nBits, w)
  }

  /** Vector of `nBits` bits where bit i is `f(i)`, filled word by word. */
  def tabulate(nBits: Int)(f: Int => Boolean): BitVec = {
    val w = new Array[Long]((nBits + 63) >> 6)
    var i = 0
    while (i < nBits) { if (f(i)) w(i >> 6) |= 1L << (i & 63); i += 1 }
    new BitVec(nBits, w)
  }

  private[core] def fromWords(nBits: Int, words: Array[Long]): BitVec = {
    require(words.length == (nBits + 63) >> 6, "word count mismatch")
    new BitVec(nBits, words)
  }

  /** AND of several vectors; `full` identity when the list is empty. */
  def intersectAll(nBits: Int, vs: Seq[BitVec]): BitVec =
    vs.foldLeft(full(nBits))(_ and _)

  /** OR of several vectors; `empty` identity when the list is empty. */
  def unionAll(nBits: Int, vs: Seq[BitVec]): BitVec =
    vs.foldLeft(empty(nBits))(_ or _)
}
