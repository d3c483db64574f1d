package ciaobench

import scala.util.Random

import repro.client.ClientFilter
import repro.core._
import repro.harness.{Experiments, Harness}
import repro.server.ChunkStore
import repro.workload.{JsonDatasets, PredicatePool, WorkloadGen}

/** The benchmark's workloads and the fixed make-up of their inputs.
  *
  * Everything that decides which predicates are pushed is fixed: dataset
  * and Table III seeds, rows, the selection budget and the cost-model
  * coefficients. The query batch is fixed too; the `--seed` of a run only
  * chooses the order in which its queries run.
  */
object Workloads {

  val Rows: Int         = 40000
  val ChunkSize: Int    = Experiments.ChunkSize
  val SampleSize: Int   = 2000
  val NQueries: Int     = 200
  val TableIIISeed: Long = 7L
  val Budget: Double    = 1.0
  /** Queries executed per cycle, as `Experiments.endToEnd` executes them. */
  val BatchSize: Int    = 20

  /** Client cost-model constants (µs per character, µs), pinned so that
    * selection is the same on every run; `Harness.calibrate` times substring
    * searches and its fits differ from run to run. The values are the
    * per-coefficient medians of nine `Harness.calibrate` fits (three per
    * dataset), printed by `run.py --calibrate`; see README.md.
    */
  val PinnedCoeffs: CostModel.Coeffs = CostModel.Coeffs(k1 = 0.001382, k2 = 0.000003, k3 = 0.000111, k4 = 0.000242, c = 0.005840)

  /** One benchmark workload.
    *
    * @param selectWl      Table III workload that drives selection and coverage
    * @param execWl        Table III workload whose queries are executed
    * @param expectPartial load mode the pinned coefficients give
    * @param expectPushed  number of pushed predicates the pinned coefficients give
    */
  final case class Spec(name: String, dataset: String, datasetSeed: Long,
                        selectWl: String, execWl: String,
                        expectPartial: Boolean, expectPushed: Int)

  val all: Vector[Spec] = Vector(
    Spec("winlog-A-skip", "winlog", 23L, "A", "A", expectPartial = true, expectPushed = 23),
    Spec("ycsb-C-fullload", "ycsb", 37L, "C", "C", expectPartial = false, expectPushed = 8),
    Spec("yelp-adhoc-raw", "yelp", 11L, "A", "C", expectPartial = true, expectPushed = 9),
  )

  def byName(name: String): Spec =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** Dataset, pool and sample-estimated selectivities with pinned coefficients. */
  def bundle(spec: Spec): Harness.Bundle = {
    val ds   = JsonDatasets.byName(spec.dataset, Rows, spec.datasetSeed)
    val pool = PredicatePool.byName(spec.dataset)
    val sels = PredicatePool.estimateSelectivities(pool, ds.lines.take(SampleSize))
    Harness.Bundle(ds, pool, sels, PinnedCoeffs)
  }

  def tableIII(b: Harness.Bundle): Map[String, Vector[CiaoQuery]] =
    WorkloadGen.tableIII(b.pool.map(_.clause), NQueries, TableIIISeed).map { case (k, (qs, _)) => k -> qs }

  /** Outcome of selection, as `Harness.run` computes it. */
  final case class Selection(selected: Vector[PredicateSelection.Candidate],
                             registry: ChunkStore.Registry,
                             covered: Boolean) {
    def withIds: Vector[(Int, Clause)] = registry.entries.map(e => e.id -> e.clause)
  }

  /** `Harness.candidates` + `PredicateSelection.selectBest`, the registry and
    * the coverage rule, in the order `Harness.run` applies them.
    */
  def select(b: Harness.Bundle, queries: Vector[CiaoQuery]): Selection = {
    val cands    = Harness.candidates(b, queries)
    val selected = PredicateSelection.selectBest(cands, queries, Budget)
    val registry = ChunkStore.Registry(selected.zipWithIndex.map { case (c, i) =>
      ChunkStore.RegEntry(i, c.clause, c.sel, c.cost)
    })
    val covered = selected.nonEmpty &&
      queries.forall(q => q.clauses.exists(cl => registry.byCanonical.contains(cl.canonical)))
    Selection(selected, registry, covered)
  }

  def chunks(lines: Vector[String]): IndexedSeq[IndexedSeq[String]] =
    ClientFilter.chunk(lines, ChunkSize)

  /** Two equality predicates on one attribute with different values:
    * Spark's optimizer folds such a query to an empty relation, so it never
    * reaches the data source and measures nothing of CIAO.
    */
  def provablyEmpty(q: CiaoQuery): Boolean =
    q.clauses.flatMap(_.atoms match {
      case Vector(ExactMatch(a, v))    => Some(a -> ("s:" + v))
      case Vector(KeyValueMatch(a, l)) => Some(a -> ("n:" + l))
      case _                           => None
    }).groupBy(_._1).exists(_._2.map(_._2).distinct.size > 1)

  /** The query batch of a run: the first `BatchSize` queries of the
    * execution workload, in workload order and with repeats, as
    * `Experiments.endToEnd` takes them, leaving out those Spark proves empty.
    * The set is the same on every run; `seed` only shuffles the order.
    */
  def batch(exec: Vector[CiaoQuery], seed: Long): Vector[CiaoQuery] =
    new Random(seed).shuffle(exec.filterNot(provablyEmpty).take(BatchSize))
}
