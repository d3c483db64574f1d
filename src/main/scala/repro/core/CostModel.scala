package repro.core

/** Client-side predicate evaluation cost model (paper §V-D).
  *
  * Per-object expected cost of evaluating a simple predicate p:
  * `T = sel(p)·[k1·len(p) + k2·len(t)] + (1−sel(p))·[k3·len(p) + k4·len(t)] + c`
  * where len(p) is the pattern-string length and len(t) the average JSON
  * object length. The found / not-found cases are modeled separately; the
  * constants are hardware-dependent and fitted by multivariate linear
  * regression over measured (sel, len(p), len(t), time) samples.
  *
  * The cost of a disjunctive clause is the sum of its atoms' costs; the
  * cost of an atom is the sum over its pattern strings (a key-value match
  * performs two substring searches).
  */
object CostModel {

  /** Fitted hardware constants; units are µs per character (k1..k4) and µs (c). */
  final case class Coeffs(k1: Double, k2: Double, k3: Double, k4: Double, c: Double) {
    def toSeq: Seq[Double] = Seq(k1, k2, k3, k4, c)
  }

  /** One calibration observation for a single substring search. */
  final case class Sample(sel: Double, lenP: Double, lenT: Double, measuredMicros: Double)

  /** Expected per-object cost in µs for one substring search. */
  def estimateSearch(co: Coeffs, sel: Double, lenP: Double, lenT: Double): Double =
    sel * (co.k1 * lenP + co.k2 * lenT) +
      (1.0 - sel) * (co.k3 * lenP + co.k4 * lenT) + co.c

  /** Expected per-object cost of an atom: one search per pattern string. */
  def atomCost(co: Coeffs, atom: Atom, sel: Double, avgLenT: Double): Double =
    atom.patterns.map(p => estimateSearch(co, sel, p.length.toDouble, avgLenT)).sum

  /** Expected per-object cost of a clause: sum over its atoms (paper §V-D:
    * "for a disjunction of predicates, its cost is the summation").
    * `atomSels` supplies each atom's estimated selectivity.
    */
  def clauseCost(co: Coeffs, clause: Clause, atomSels: Atom => Double, avgLenT: Double): Double =
    clause.atoms.map(a => atomCost(co, a, atomSels(a), avgLenT)).sum

  private def features(s: Sample): Array[Double] =
    Array(s.sel * s.lenP, s.sel * s.lenT, (1 - s.sel) * s.lenP, (1 - s.sel) * s.lenT, 1.0)

  /** Ordinary least squares via the normal equations XᵀXβ = Xᵀy, solved by
    * Gaussian elimination with partial pivoting (5 unknowns — exact). The
    * samples must vary the five regressors independently, as the designed
    * grid of `Harness.calibrationSamples` does; a collinear design fails in
    * [[solve]].
    */
  def calibrate(samples: Seq[Sample]): Coeffs = {
    require(samples.size >= 5, s"need ≥5 samples to fit 5 coefficients, got ${samples.size}")
    val k   = 5
    val xtx = Array.fill(k, k)(0.0)
    val xty = Array.fill(k)(0.0)
    samples.foreach { s =>
      val x = features(s)
      var i = 0
      while (i < k) {
        var j = 0
        while (j < k) { xtx(i)(j) += x(i) * x(j); j += 1 }
        xty(i) += x(i) * s.measuredMicros
        i += 1
      }
    }
    val beta = solve(xtx, xty)
    Coeffs(beta(0), beta(1), beta(2), beta(3), beta(4))
  }

  /** Coefficient of determination R² = 1 − SSres/SStot.
    * (The paper prints the formula with ŷ in the denominator; we use the
    * standard definition — for a well-fitted linear model with intercept
    * the two agree, and the standard one is the measure the R² name means.)
    */
  def rSquared(samples: Seq[Sample], co: Coeffs): Double = {
    val ys    = samples.map(_.measuredMicros)
    val yBar  = ys.sum / ys.size
    val ssRes = samples.map(s => math.pow(estimateSearch(co, s.sel, s.lenP, s.lenT) - s.measuredMicros, 2)).sum
    val ssTot = ys.map(y => math.pow(y - yBar, 2)).sum
    if (ssTot == 0.0) { if (ssRes == 0.0) 1.0 else 0.0 }
    else 1.0 - ssRes / ssTot
  }

  /** Solve A·x = b by Gaussian elimination with partial pivoting.
    * A and b are copied; throws on a (near-)singular system.
    */
  def solve(aIn: Array[Array[Double]], bIn: Array[Double]): Array[Double] = {
    val n = bIn.length
    require(aIn.length == n && aIn.forall(_.length == n), "A must be n×n matching b")
    val a = aIn.map(_.clone)
    val b = bIn.clone
    for (col <- 0 until n) {
      var pivot = col
      for (r <- col + 1 until n) if (math.abs(a(r)(col)) > math.abs(a(pivot)(col))) pivot = r
      require(math.abs(a(pivot)(col)) > 1e-12, s"singular system at column $col")
      if (pivot != col) {
        val tmp = a(pivot); a(pivot) = a(col); a(col) = tmp
        val tb = b(pivot); b(pivot) = b(col); b(col) = tb
      }
      for (r <- col + 1 until n) {
        val factor = a(r)(col) / a(col)(col)
        if (factor != 0.0) {
          for (c2 <- col until n) a(r)(c2) -= factor * a(col)(c2)
          b(r) -= factor * b(col)
        }
      }
    }
    val x = new Array[Double](n)
    for (row <- (n - 1) to 0 by -1) {
      var s = b(row)
      for (c2 <- row + 1 until n) s -= a(row)(c2) * x(c2)
      x(row) = s / a(row)(row)
    }
    x
  }
}
