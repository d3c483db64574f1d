package repro.server

import org.apache.spark.sql.sources._

import repro.core._

/** Query-time data skipping (paper §VI-B, Step 3 of Fig. 1).
  *
  * The scan extracts a query's conjunctive predicates (Spark pushes them as
  * an array of [[Filter]] conjuncts), canonicalizes each into a [[Clause]],
  * and looks it up in the store's predicate registry. Matched predicates'
  * bit-vectors are ANDed per chunk; rows with bit 0 are skipped before the
  * residual filter runs. Because client matching admits false positives,
  * *every* filter is still re-evaluated by Spark above the scan.
  */
object DataSkipping {

  /** Render a pushed literal the way the JSON generator prints it, so the
    * canonical form matches the registry entry built from the same value:
    * a finite double as its exact plain decimal (`5.0` is `5`, `1e20` is
    * `100000000000000000000`); NaN and the infinities have no JSON form.
    */
  private def literal(v: Any): Option[String] = v match {
    case i: java.lang.Integer => Some(i.toString)
    case l: java.lang.Long    => Some(l.toString)
    case s: java.lang.Short   => Some(s.toString)
    case b: java.lang.Boolean => Some(if (b) "true" else "false")
    case d: java.lang.Double  => Option.when(!d.isNaN && !d.isInfinite)(java.math.BigDecimal.valueOf(d).stripTrailingZeros.toPlainString)
    case _                    => None
  }

  /** Canonicalize one Spark filter conjunct into a clause, if expressible
    * in CIAO's predicate language (Table I). Disjunctions (`Or`, `In`)
    * become multi-atom clauses; anything else is unsupported.
    */
  def filterToClause(f: Filter): Option[Clause] = {
    def atoms(f: Filter): Option[Vector[Atom]] = f match {
      case EqualTo(attr, v: String)       => Some(Vector(ExactMatch(attr, v)))
      case EqualTo(attr, v)               => literal(v).map(l => Vector(KeyValueMatch(attr, l)))
      case StringContains(attr, v)        => Some(Vector(SubstringMatch(attr, v)))
      case IsNotNull(attr)                => Some(Vector(KeyPresence(attr)))
      case In(attr, vs)                   =>
        val converted = vs.toVector.map {
          case s: String => Some(ExactMatch(attr, s): Atom)
          case other     => literal(other).map(KeyValueMatch(attr, _): Atom)
        }
        if (converted.forall(_.isDefined)) Some(converted.flatten) else None
      case Or(l, r)                       =>
        for (la <- atoms(l); ra <- atoms(r)) yield la ++ ra
      case _                              => None
    }
    atoms(f).map(Clause(_))
  }

  /** Match pushed-down Spark filters against the registry.
    * Returns (matched predicate ids, the filters that matched).
    */
  def matchPushed(filters: Seq[Filter], registry: ChunkStore.Registry): (Vector[Int], Vector[Filter]) = {
    val hits = filters.toVector.flatMap { f =>
      filterToClause(f).flatMap(cl => registry.byCanonical.get(cl.canonical)).map(e => (e.id, f))
    }
    (hits.map(_._1).distinct, hits.map(_._2).distinct)
  }

  /** Match a workload query's clauses directly (non-Spark path, used by the
    * harness for selection bookkeeping): ids of its pushed-down clauses.
    */
  def matchQuery(query: CiaoQuery, registry: ChunkStore.Registry): Vector[Int] =
    query.clauses.flatMap(cl => registry.byCanonical.get(cl.canonical)).map(_.id).distinct

  /** AND the bit-vectors of `ids` for a chunk with `nRows` loaded rows.
    * An id missing from the sidecar (predicate pushed but chunk written
    * without it), or a vector whose length is not `nRows`, is a store
    * corruption — fail loudly.
    */
  def combinedBits(sidecar: Map[Int, BitVec], ids: Seq[Int], nRows: Int): BitVec = {
    val vs = ids.map { id =>
      val bv = sidecar.getOrElse(id, throw new IllegalStateException(s"sidecar missing bit-vector for predicate $id"))
      if (bv.nBits != nRows)
        throw new IllegalStateException(s"sidecar bit-vector for predicate $id has ${bv.nBits} bits but its chunk has $nRows rows")
      bv
    }
    BitVec.intersectAll(nRows, vs)
  }
}
