package repro.client

import repro.core._

/** Client-side predicate evaluation on raw JSON text (paper §IV).
  *
  * The client never parses: every supported predicate reduces to substring
  * searches (`String.indexOf`, the JVM analogue of the paper's C++
  * `std::string::find`). Matching may produce false positives (a pattern
  * found under a different key) but never false negatives — the property
  * the whole system's correctness rests on, enforced by tests.
  */
object ClientFilter {

  /** Evaluate one atom against one raw JSON line using only string search
    * for the atom's Table I [[Atom.patterns]].
    */
  def matchAtom(line: String, atom: Atom): Boolean = atom match {
    case kv: KeyValueMatch =>
      // Search the quoted key; if found, look for the literal between the
      // key and the next field delimiter (',' or the closing '}'). A number
      // literal also matches a window with an exponent (`1e2` for `100`),
      // and any window when it is not its own plain spelling.
      val keyPat = kv.patterns.head
      var from   = 0
      var found  = false
      while (!found && from <= line.length) {
        val k = line.indexOf(keyPat, from)
        if (k < 0) from = line.length + 1
        else {
          val windowStart = k + keyPat.length
          var end         = line.indexOf(',', windowStart)
          if (end < 0) end = line.length
          val brace = line.indexOf('}', windowStart)
          if (brace >= 0 && brace < end) end = brace
          val idx = line.indexOf(kv.literal, windowStart)
          found = idx >= 0 && idx + kv.literal.length <= end ||
            kv.isNumber && (!kv.plainSpelling || hasExponent(line, windowStart, end))
          from = windowStart
        }
      }
      found
    case _ => line.indexOf(atom.patterns.head) >= 0
  }

  private def hasExponent(line: String, from: Int, until: Int): Boolean = {
    var i = from
    while (i < until && line.charAt(i) != 'e' && line.charAt(i) != 'E') i += 1
    i < until
  }

  /** Evaluate a disjunctive clause: OR over its atoms. */
  def matchClause(line: String, clause: Clause): Boolean =
    clause.atoms.exists(matchAtom(line, _))

  /** Bit-vectors for one chunk: predicate id → one bit per line. A line
    * with a backslash gets bit 1 for every predicate: only an escape can
    * give a JSON string or key a second spelling (RFC 8259 §7).
    */
  def chunkBits(lines: IndexedSeq[String], selected: Seq[(Int, Clause)]): Map[Int, BitVec] = {
    val escaped = BitVec.tabulate(lines.size)(i => lines(i).indexOf('\\') >= 0)
    selected.map { case (id, clause) =>
      id -> BitVec.tabulate(lines.size)(i => matchClause(lines(i), clause)).or(escaped)
    }.toMap
  }

  /** Result of client prefiltering over a sequence of chunks. */
  final case class PrefilterResult(
      bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
      elapsedNanos: Long,
  ) {
    def elapsedMillis: Double = elapsedNanos / 1e6
  }

  /** Run prefiltering over all chunks and measure wall time — this is the
    * "prefiltering" series of the paper's end-to-end plots.
    */
  def prefilter(chunks: IndexedSeq[IndexedSeq[String]],
                selected: Seq[(Int, Clause)]): PrefilterResult = {
    val t0   = System.nanoTime()
    val bits = chunks.map(chunkBits(_, selected))
    PrefilterResult(bits, System.nanoTime() - t0)
  }

  /** Split a dataset of raw JSON lines into fixed-size chunks
    * (the paper's clients ship JSON in chunks of ~1k objects).
    */
  def chunk(lines: IndexedSeq[String], chunkSize: Int): IndexedSeq[IndexedSeq[String]] = {
    require(chunkSize > 0, "chunkSize must be positive")
    lines.grouped(chunkSize).toIndexedSeq
  }
}
