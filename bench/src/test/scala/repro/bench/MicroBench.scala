package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Reproduces the §VII-E micro-benchmarks (Figs. 7-12) on the Windows log
  * dataset and asserts the paper's qualitative shape.
  */
class MicroBench extends SparkSpec {

  private val rows = sys.env.getOrElse("CIAO_BENCH_ROWS", "40000").toInt

  test("Figs 7/8: selectivity sweep — lower selectivity loads/skips less") {
    val res = Experiments.microSelectivity(spark, rows)
    println(Experiments.formatMicro("Figs 7/8: selectivity (paper: ratio ~0.02/0.28/0.57, load time drops with selectivity)", res))
    val Seq(high, med, low) = res.map(identity).toSeq
    assert(high.partial && med.partial && low.partial, "partial loading enabled in all three")
    assert(high.loadedRatio < med.loadedRatio, s"${high.loadedRatio} vs ${med.loadedRatio}")
    assert(med.loadedRatio < low.loadedRatio, s"${med.loadedRatio} vs ${low.loadedRatio}")
    // Loading-time benefit grows with selectivity. Each run is compared with
    // its own full-load baseline: Parquet chunk writes carry no per-chunk
    // filesystem cost, so load time follows the rows parsed and written, but
    // absolute times at bench scale still move between runs (JIT, GC).
    assert(high.loadSpeedup > low.loadSpeedup,
      s"high=${high.loadSpeedup} low=${low.loadSpeedup}")
  }

  test("Figs 9/10: overlap sweep — only high overlap enables partial loading") {
    val res = Experiments.microOverlap(spark, rows)
    println(Experiments.formatMicro("Figs 9/10: overlap (paper: drastic load drop only for H_ol)", res))
    val Seq(l, m, h) = res.map(identity).toSeq
    assert(!l.partial, "L_ol: pushed pair covers 2/5 queries, no partial loading")
    assert(!m.partial, "M_ol: pushed pair covers 3/5 queries, no partial loading")
    assert(h.partial, "H_ol: pushed pair covers all queries, partial loading on")
    assert(h.loadedRatio < 1.0)
    assert(h.loadSpeedup > 1.1, s"H_ol should beat its baseline load, got ${h.loadSpeedup}")
    assert(h.loadMs < math.max(l.loadMs, m.loadMs), "H_ol loads less than the full-load workloads")
  }

  test("Figs 11/12: skewness sweep — higher skew covers more queries, H enables partial") {
    val res = Experiments.microSkewness(spark, rows)
    println(Experiments.formatMicro("Figs 11/12: skewness (paper: only H_sk drops load time; M covers q0-q2)", res))
    val Seq(l, m, h) = res.map(identity).toSeq
    assert(l.skewFactor === 0.0, "all-distinct workload has zero skew factor")
    assert(m.skewFactor > 0.0)
    assert(h.skewFactor > 0.0)
    // Coverage ordering is the operative signal (the paper's L/M/H): the
    // shared pushed predicate covers 1, 3, then all 5 queries.
    assert(!l.partial && !m.partial && h.partial)
    assert(h.loadedRatio < 1.0)
    assert(h.loadSpeedup > 1.1, s"H_sk should beat its baseline load, got ${h.loadSpeedup}")
  }
}
