package repro.core

/** Budget-constrained predicate selection (paper §V).
  *
  * Selecting the set S of clauses to push down maximizes
  * `f(S) = Σ_q freq(q) · (1 − Π_{p ∈ S∩P_q} sel(p))`
  * subject to `Σ_{p∈S} cost(p) ≤ B`. f is submodular (§V-B), so running
  * both the naive greedy (Algorithm 1) and the benefit-cost-ratio greedy
  * (Algorithm 2) and keeping the better result is a
  * ½(1−1/e) ≈ 0.316-approximation (§V-C, Khuller et al.).
  */
object PredicateSelection {

  /** A pushdown candidate: the clause plus its estimated selectivity and
    * per-record client evaluation cost (µs, from [[CostModel]]).
    */
  final case class Candidate(clause: Clause, sel: Double, cost: Double) {
    require(sel >= 0.0 && sel <= 1.0, s"selectivity out of range: $sel")
    require(cost >= 0.0, s"negative cost: $cost")
    def key: String = clause.canonical
  }

  /** Expected benefit of the selected set S for a workload (the paper's
    * optimization objective f(S)).
    */
  def objective(selected: Seq[Candidate], queries: Seq[CiaoQuery]): Double = {
    val selByKey = selected.map(c => c.key -> c.sel).toMap
    queries.map { q =>
      val sels = q.clauses.flatMap(cl => selByKey.get(cl.canonical))
      q.freq * (1.0 - sels.product)
    }.sum
  }

  /** One greedy pass. `score(gain, cost)` ranks candidates each round:
    * Algorithm 1 uses the raw objective value, Algorithm 2 the
    * benefit/cost ratio. Only candidates that still fit the budget are
    * considered, per the `while ∃p : cost ≤ B` guard of both algorithms.
    *
    * The marginal gain is computed incrementally: adding clause c only
    * affects queries containing c, each by `freq·prod_q·(1−sel(c))` where
    * prod_q is the running product of selectivities of q's already-selected
    * clauses — O(queries containing c) per candidate instead of a full
    * objective recomputation.
    */
  private def greedy(candidates: Seq[Candidate],
                     queries: Seq[CiaoQuery],
                     budget: Double,
                     score: (Double, Double) => Double): Vector[Candidate] = {
    val cands = candidates.distinctBy(_.key).toVector
    // clause key -> indices of queries containing it
    val queriesByKey: Map[String, Vector[Int]] =
      queries.zipWithIndex.toVector
        .flatMap { case (q, i) => q.clauseKeys.map(_ -> i) }
        .groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val prod = Array.fill(queries.size)(1.0) // Π sel over selected ∩ P_q

    def gain(c: Candidate): Double =
      queriesByKey.getOrElse(c.key, Vector.empty)
        .map(i => queries(i).freq * prod(i) * (1.0 - c.sel)).sum

    var selected  = Vector.empty[Candidate]
    var remaining = cands
    var spent     = 0.0
    var continue  = true
    while (continue) {
      val fitting = remaining.filter(c => spent + c.cost <= budget + 1e-12)
      if (fitting.isEmpty) continue = false
      else {
        val best = fitting.maxBy(c => score(gain(c), c.cost))
        selected = selected :+ best
        spent += best.cost
        remaining = remaining.filterNot(_.key == best.key)
        queriesByKey.getOrElse(best.key, Vector.empty).foreach(i => prod(i) *= best.sel)
      }
    }
    selected
  }

  /** Algorithm 1: naive greedy — maximize f(S ∪ {p}) each step. */
  def selectNaive(candidates: Seq[Candidate], queries: Seq[CiaoQuery], budget: Double): Vector[Candidate] =
    greedy(candidates, queries, budget, (gain, _) => gain)

  /** Algorithm 2: greedy on benefit-cost ratio (f(S∪{p})−f(S)) / cost(p). */
  def selectRatio(candidates: Seq[Candidate], queries: Seq[CiaoQuery], budget: Double): Vector[Candidate] =
    greedy(candidates, queries, budget, (gain, cost) => if (cost <= 0) Double.MaxValue else gain / cost)

  /** Best-of-two selection with the ½(1−1/e) guarantee (paper §V-C). */
  def selectBest(candidates: Seq[Candidate], queries: Seq[CiaoQuery], budget: Double): Vector[Candidate] = {
    val a = selectNaive(candidates, queries, budget)
    val b = selectRatio(candidates, queries, budget)
    if (objective(a, queries) >= objective(b, queries)) a else b
  }
}
