package repro.core

import repro.json.{JBool, JNum, JObj, JStr, JsonValue, JNull}

/** Predicate model of CIAO (paper §IV-B, Table I; §V-A).
  *
  * An [[Atom]] is one of the four client-evaluable predicate kinds. A
  * [[Clause]] is a disjunction of atoms (e.g. `name IN ('Bob','John')`) and
  * is the unit pushed down to clients. A [[CiaoQuery]] is a conjunction of
  * clauses, as produced by the workload generator
  * (`SELECT COUNT(*) ... WHERE c1 AND c2 AND ...`).
  */
sealed trait Atom {
  /** Attribute (JSON key) the predicate refers to. */
  def attr: String

  /** Pattern strings the client searches for, exactly as in Table I.
    * String values appear quoted in the raw JSON text, so the pattern for an
    * exact match of `name = "Bob"` is `"Bob"` *including* the quotes.
    * Built once per atom; the client matcher searches for these strings.
    */
  def patterns: Seq[String]

  /** SQL rendering usable both by Spark (`where(expr(...))`) and DuckDB. */
  def sql: String

  /** Ground-truth typed evaluation over a fully parsed object. Used by the
    * residual filter oracle and the no-false-negative property tests.
    */
  def evalParsed(obj: JObj): Boolean

  /** Stable canonical form used for registry lookup / clause identity. */
  def canonical: String
}

/** `attr = 'value'` on a string attribute; pattern = the quoted operand. */
final case class ExactMatch(attr: String, value: String) extends Atom {
  val patterns: Seq[String] = Seq("\"" + value + "\"")
  def sql: String           = s"$attr = '${value.replace("'", "''")}'"
  def evalParsed(obj: JObj): Boolean = obj.get(attr).contains(JStr(value))
  def canonical: String     = s"exact:$attr=$value"
}

/** `attr LIKE '%value%'`; pattern = the raw substring. */
final case class SubstringMatch(attr: String, value: String) extends Atom {
  val patterns: Seq[String] = Seq(value)
  def sql: String           = s"$attr LIKE '%${value.replace("'", "''")}%'"
  def evalParsed(obj: JObj): Boolean = obj.get(attr) match {
    case Some(JStr(s)) => s.contains(value)
    case _             => false
  }
  def canonical: String     = s"substr:$attr~$value"
}

/** `attr IS NOT NULL`; pattern = the quoted key. */
final case class KeyPresence(attr: String) extends Atom {
  val patterns: Seq[String] = Seq("\"" + attr + "\"")
  def sql: String           = s"$attr IS NOT NULL"
  def evalParsed(obj: JObj): Boolean = obj.get(attr).exists(_ != JNull)
  def canonical: String     = s"present:$attr"
}

/** `attr = <number|boolean>`; two pattern strings: the quoted key then the
  * raw literal searched between the key and the next field delimiter
  * (paper §IV-B "Key-value match"). The typed evaluation compares numbers
  * exactly by value (`1e2` and `100.0` equal `100`; integers above 2^53 stay
  * distinct) and falls back to lexeme equality for a non-numeric literal.
  */
final case class KeyValueMatch(attr: String, literal: String) extends Atom {
  val patterns: Seq[String] = Seq("\"" + attr + "\"", literal)
  /** A number literal; every equal number without an exponent contains it
    * (`100.0` and `-0` contain `100` and `0`) iff it is its own shortest
    * plain spelling (`plainSpelling`: not `1e2`, `1.50` or `-0`).
    */
  val isNumber: Boolean      = KeyValueMatch.decimal(literal).isDefined
  val plainSpelling: Boolean = KeyValueMatch.decimal(literal).forall(_.stripTrailingZeros.toPlainString == literal)

  def sql: String           = s"$attr = $literal"
  def evalParsed(obj: JObj): Boolean = obj.get(attr) match {
    case Some(JNum(raw)) => (KeyValueMatch.decimal(raw), KeyValueMatch.decimal(literal)) match {
      case (Some(a), Some(b)) => a.compareTo(b) == 0
      case _                  => raw == literal
    }
    case Some(JBool(b))  => literal == (if (b) "true" else "false")
    case _               => false
  }
  def canonical: String     = s"kv:$attr=$literal"
}

object KeyValueMatch {
  /** The exact value of a JSON number lexeme, or None for any other text. */
  private def decimal(s: String): Option[java.math.BigDecimal] =
    try Some(new java.math.BigDecimal(s)) catch { case _: NumberFormatException => None }
}

/** A disjunction of atoms — the unit of predicate pushdown ("predicate" in
  * the paper's optimization problem, §V-A).
  */
final case class Clause(atoms: Vector[Atom]) {
  require(atoms.nonEmpty, "a clause needs at least one atom")

  /** SQL rendering: single atom bare, disjunction parenthesized. */
  def sql: String =
    if (atoms.size == 1) atoms.head.sql
    else atoms.map(_.sql).mkString("(", " OR ", ")")

  /** Typed OR over a parsed object (ground truth, false-positive free). */
  def evalParsed(obj: JObj): Boolean = atoms.exists(_.evalParsed(obj))

  /** Canonical identity: atom order is irrelevant for a disjunction. */
  def canonical: String = atoms.map(_.canonical).sorted.mkString("|")
}

object Clause {
  def apply(atom: Atom, more: Atom*): Clause = Clause((atom +: more).toVector)
}

/** A workload query: conjunction of clauses with a relative frequency
  * (the paper's experiments use uniform query frequency).
  */
final case class CiaoQuery(clauses: Vector[Clause], freq: Double = 1.0) {
  require(clauses.nonEmpty, "a query needs at least one clause")

  /** WHERE-clause SQL: clauses joined by AND. */
  def whereSql: String = clauses.map(_.sql).mkString(" AND ")

  /** Typed conjunction over a parsed object. */
  def evalParsed(obj: JObj): Boolean = clauses.forall(_.evalParsed(obj))

  def clauseKeys: Set[String] = clauses.map(_.canonical).toSet
}
