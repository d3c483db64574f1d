package repro.datasource

import java.nio.file.Files

import org.apache.spark.sql.DataFrame
import org.apache.spark.unsafe.types.UTF8String

import repro.{Oracle, SparkSpec}
import repro.client.ClientFilter
import repro.core._
import repro.harness.Harness
import repro.server._
import repro.workload.JsonDatasets

/** End-to-end tests of the `format("ciao")` DataSource V2: schema
  * inference, filter pushdown, bit-vector row skipping, raw-JSON JIT
  * scanning, and result equivalence against DuckDB over the fully parsed
  * table.
  */
class CiaoDataSourceSpec extends SparkSpec {

  private def tmpDir(prefix: String): String =
    Files.createTempDirectory(prefix).toString

  /** Small yelp store, with `stars = 5` and `text LIKE %delicious%` pushed. */
  private lazy val fixture: (String, JsonDatasets.Dataset, ChunkStore.Registry) = {
    val ds  = JsonDatasets.yelp(3000, seed = 101)
    val dir = tmpDir("ciao-ds")
    val clauses = Vector(
      Clause(KeyValueMatch("stars", "5")),
      Clause(SubstringMatch("text", "delicious")),
    )
    val registry = ChunkStore.Registry(clauses.zipWithIndex.map { case (c, i) =>
      ChunkStore.RegEntry(i, c, 0.2, 0.1)
    })
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, registry.entries.map(e => e.id -> e.clause)))
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    (dir, ds, registry)
  }

  private def ciao(dir: String): DataFrame = spark.read.format("ciao").load(dir)

  /** The fully parsed table (ground truth side for the oracle). */
  private def fullDf(ds: JsonDatasets.Dataset): DataFrame = {
    import scala.jdk.CollectionConverters._
    val sparkSchema = CiaoDataSource.sparkSchema(ds.schema)
    val rows = ds.lines.map { l =>
      val r = TableSchema.extractRow(ds.schema, repro.json.JsonParser.parseObject(l))
      org.apache.spark.sql.Row.fromSeq(r.toSeq(sparkSchema).map {
        case s: UTF8String => s.toString
        case v             => v
      })
    }
    spark.createDataFrame(rows.asJava, sparkSchema)
  }

  test("schema inference matches the store schema") {
    val (dir, ds, _) = fixture
    assert(ciao(dir).schema === CiaoDataSource.sparkSchema(ds.schema))
  }

  test("unfiltered scan returns every row (parquet + raw JIT)") {
    val (dir, ds, _) = fixture
    assert(ciao(dir).count() === ds.lines.size)
  }

  test("unfiltered scan content equals the fully parsed table (oracle)") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).selectExpr("count(*) as cnt", "sum(stars) as s", "sum(useful) as u")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt, sum(CAST(stars AS BIGINT)) AS s, sum(CAST(useful AS BIGINT)) AS u FROM t",
      "t" -> fullDf(ds))
  }

  test("query with a pushed predicate returns the exact count") {
    val (dir, ds, _) = fixture
    val got      = ciao(dir).where("stars = 5").count()
    val expected = Harness.expectedCounts(ds.lines, Vector(CiaoQuery(Vector(Clause(KeyValueMatch("stars", "5")))))).head
    assert(got === expected)
  }

  test("query with a pushed LIKE predicate matches DuckDB") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).where("text LIKE '%delicious%'").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE text LIKE '%delicious%'",
      "t" -> fullDf(ds))
  }

  test("conjunctive query mixing pushed and unpushed predicates is exact") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).where("stars = 5 AND useful = 0").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE CAST(stars AS BIGINT) = 5 AND CAST(useful AS BIGINT) = 0",
      "t" -> fullDf(ds))
  }

  test("query with only unpushed predicates scans parquet + raw and is exact") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).where("funny = 1").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE CAST(funny AS BIGINT) = 1",
      "t" -> fullDf(ds))
  }

  test("pushed filters surface in the executed plan description") {
    val (dir, _, _) = fixture
    val df   = ciao(dir).where("stars = 5")
    val plan = df.queryExecution.executedPlan.toString
    assert(plan.contains("CiaoScan"), s"expected CiaoScan in plan:\n$plan")
  }

  test("scan with a matched filter plans only parquet partitions") {
    val (dir, _, _) = fixture
    val schema   = ChunkStore.readSchema(dir)
    val registry = ChunkStore.readRegistry(dir)
    val scanAll  = new CiaoScan(dir, CiaoDataSource.sparkSchema(schema), Array.empty)
    val scanSkip = new CiaoScan(dir, CiaoDataSource.sparkSchema(schema), registry.ids.toArray)
    val allParts  = scanAll.planInputPartitions()
    val skipParts = scanSkip.planInputPartitions()
    assert(allParts.exists(_.isInstanceOf[RawChunkPartition]))
    assert(skipParts.forall(_.isInstanceOf[ParquetChunkPartition]))
    assert(skipParts.length < allParts.length)
  }

  test("row skipping reduces rows emitted by the parquet readers") {
    val (dir, _, registry) = fixture
    val schema = ChunkStore.readSchema(dir)
    def emitted(ids: Array[Int]): Long = {
      val scan = new CiaoScan(dir, CiaoDataSource.sparkSchema(schema), ids)
      scan.planInputPartitions().collect { case p: ParquetChunkPartition => p }.map { p =>
        val r = new ParquetChunkReader(p.copy(skipIds = ids))
        var n = 0L
        while (r.next()) n += 1
        r.close(); n
      }.sum
    }
    val noSkip   = emitted(Array.empty)
    val withSkip = emitted(Array(0))
    assert(withSkip < noSkip)
  }

  test("a sidecar whose length differs from its chunk fails the query") {
    val ds     = JsonDatasets.yelp(1000, seed = 7)
    val clause = Clause(KeyValueMatch("stars", "5"))
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    for (delta <- Seq(-1, 1)) {
      val dir = tmpDir("ciao-bad-bits")
      PartialLoader.loadPartial(dir, ds.schema, chunks, bits,
        ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.2, 0.1))))
      val path = ChunkStore.bitsPath(dir, 0)
      ChunkStore.writeBits(path, ChunkStore.readBits(path).map { case (id, bv) =>
        id -> BitVec.tabulate(bv.nBits + delta)(i => i < bv.nBits && bv.get(i))
      })
      val e = intercept[Exception](ciao(dir).where("stars = 5").count())
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      assert(causes.exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage.contains("sidecar")),
        s"delta=$delta: $e")
    }
  }

  test("a chunk planned with skip ids but without its sidecar fails the query") {
    val ds     = JsonDatasets.yelp(1000, seed = 7)
    val clause = Clause(KeyValueMatch("stars", "5"))
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    val dir    = tmpDir("ciao-no-bits")
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits,
      ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.2, 0.1))))
    Files.delete(java.nio.file.Paths.get(ChunkStore.bitsPath(dir, 0)))
    val e = intercept[Exception](ciao(dir).where("stars = 5").count())
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
    assert(causes.exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage.contains("sidecar")), s"$e")
  }

  test("missing path option fails loudly") {
    intercept[Exception] { spark.read.format("ciao").load() }
  }

  test("disjunctive (IN) predicate over a pushed clause is exact") {
    val ds  = JsonDatasets.yelp(2000, seed = 55)
    val dir = tmpDir("ciao-in")
    val clause = Clause(ExactMatch("user_id", "u000"), ExactMatch("user_id", "u001"))
    val registry = ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.01, 0.1)))
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    val got = ciao(dir).where("user_id IN ('u000','u001')").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE user_id IN ('u000','u001')",
      "t" -> fullDf(ds))
  }
}
