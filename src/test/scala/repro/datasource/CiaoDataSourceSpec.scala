package repro.datasource

import java.nio.file.Files

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.types.StructType
import org.apache.spark.unsafe.types.UTF8String
import org.scalacheck.Gen

import repro.{Oracle, PropSupport, SparkSpec}
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
class CiaoDataSourceSpec extends SparkSpec with PropSupport {

  private def tmpDir(prefix: String): String =
    Files.createTempDirectory(prefix).toString

  /** Small yelp store in 12 chunks, with `stars = 5`, `text LIKE %delicious%`
    * and the selective `user_id = 'u007'` pushed.
    */
  private lazy val fixture: (String, JsonDatasets.Dataset, ChunkStore.Registry) = {
    val ds  = JsonDatasets.yelp(3000, seed = 101)
    val dir = tmpDir("ciao-ds")
    val clauses = Vector(
      Clause(KeyValueMatch("stars", "5")),
      Clause(SubstringMatch("text", "delicious")),
      Clause(ExactMatch("user_id", "u007")),
    )
    val registry = ChunkStore.Registry(clauses.zipWithIndex.map { case (c, i) =>
      ChunkStore.RegEntry(i, c, 0.2, 0.1)
    })
    val chunks = ClientFilter.chunk(ds.lines, 250)
    val bits   = chunks.map(ClientFilter.chunkBits(_, registry.entries.map(e => e.id -> e.clause)))
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    (dir, ds, registry)
  }

  private def ciao(dir: String): DataFrame = spark.read.format("ciao").load(dir)

  /** The scan node of a query's executed plan, if Spark planned one. */
  private def scanOf(df: DataFrame): Option[BatchScanExec] =
    PlanNodes.collect(df.queryExecution.executedPlan) { case b: BatchScanExec => b }.headOption

  /** The fully parsed table (ground truth side for the oracle). */
  private def fullDf(ds: JsonDatasets.Dataset): DataFrame = {
    val rows = ds.lines.map { l =>
      val r = TableSchema.extractRow(ds.schema, repro.json.JsonParser.parseObject(l))
      Row.fromSeq(r.toSeq(ds.schema).map {
        case s: UTF8String => s.toString
        case v             => v
      })
    }
    spark.createDataFrame(rows.asJava, ds.schema)
  }

  test("schema inference matches the store schema") {
    val (dir, ds, _) = fixture
    assert(ciao(dir).schema === ds.schema)
  }

  test("a user schema that reorders stored columns reads each column by name") {
    val (dir, _, _) = fixture
    val user = spark.read.format("ciao").schema("user_id STRING, review_id STRING").load(dir)
    assert(user.collect().toSeq === ciao(dir).select("user_id", "review_id").collect().toSeq)
    assert(user.where("user_id = 'rev0'").count() === 0)
    assert(user.where("review_id = 'rev0'").count() === 1)
  }

  test("a user schema that subsets stored columns reads exact values") {
    val (dir, _, _) = fixture
    val user = spark.read.format("ciao").schema("stars LONG, review_id STRING").load(dir)
    assert(user.where("stars = 5").count() === ciao(dir).where("stars = 5").count())
    assert(user.collect().toSet === ciao(dir).select("stars", "review_id").collect().toSet)
  }

  test("a user schema with a wrong type or an unknown column fails at load, naming the field") {
    val (dir, _, _) = fixture
    for ((ddl, field) <- Seq("stars STRING, review_id STRING" -> "stars", "review_id STRING, nope LONG" -> "nope")) {
      val e = intercept[IllegalArgumentException](spark.read.format("ciao").schema(ddl).load(dir))
      assert(e.getMessage.contains(field), s"$ddl: ${e.getMessage}")
    }
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
    val scanAll  = new CiaoScan(dir, schema, Array.empty)
    val scanSkip = new CiaoScan(dir, schema, Array(0))
    val allParts  = scanAll.planInputPartitions()
    val skipParts = scanSkip.planInputPartitions()
    assert(allParts.exists(_.isInstanceOf[RawChunkPartition]))
    assert(skipParts.nonEmpty && skipParts.forall(_.isInstanceOf[ParquetChunkPartition]))
    assert(skipParts.length < allParts.length)
  }

  test("planning prunes chunks whose ANDed mask is empty and passes the mask on") {
    val (dir, _, _) = fixture
    val schema = ChunkStore.readSchema(dir)
    val loaded = ChunkStore.listChunks(dir).flatMap(c => c.parquet.map(c -> _))
    val parts  = new CiaoScan(dir, schema, Array(0, 2)).planInputPartitions()
      .map(_.asInstanceOf[ParquetChunkPartition])
    assert(parts.nonEmpty && parts.length < loaded.size)
    for ((c, path) <- loaded) {
      val mask = DataSkipping.combinedBits(ChunkStore.readBits(c.bits.get), Seq(0, 2), ParquetIO.rowCount(path).toInt)
      parts.find(_.parquetPath == path) match {
        case Some(p) =>
          assert(p.skipIds.toSeq === Seq(0, 2) && p.bitsPath === c.bits && p.mask === Some(mask))
        case None => assert(mask.cardinality === 0, path)
      }
    }
  }

  test("a query whose mask is empty in every chunk plans no partition and counts 0") {
    val (dir, ds, _) = fixture
    val where = "user_id = 'u007' AND text LIKE '%delicious%'"
    assert(new CiaoScan(dir, ChunkStore.readSchema(dir), Array(1, 2)).planInputPartitions().isEmpty)
    val got = ciao(dir).where(where).selectExpr("count(*) as cnt")
    assert(got.collect().head.getLong(0) === 0L)
    assert(scanOf(got).get.inputPartitions.isEmpty)
    Oracle.assertEquivalent(got, s"SELECT count(*) AS cnt FROM t WHERE $where", "t" -> fullDf(ds))
  }

  test("row skipping reduces rows emitted by the parquet readers") {
    val (dir, _, _) = fixture
    val schema = ChunkStore.readSchema(dir)
    def emitted(ids: Array[Int]): Long =
      new CiaoScan(dir, schema, ids).planInputPartitions().collect { case p: ParquetChunkPartition => p }.map { p =>
        val r = new ParquetChunkReader(p)
        var n = 0L
        while (r.next()) n += 1
        r.close(); n
      }.sum
    val noSkip   = emitted(Array.empty)
    val withSkip = emitted(Array(0))
    assert(withSkip < noSkip)
  }

  test("the scan reports chunks pruned, rows decoded and rows skipped as custom metrics") {
    val (dir, _, _) = fixture
    val df = ciao(dir).where("stars = 5 AND user_id = 'u007'").groupBy().count()
    val count = df.collect().head.getLong(0)
    val scan  = scanOf(df).get
    def metric(name: String): Long = scan.metrics(name).value
    val (pruned, decoded, skipped, emitted) =
      (metric("chunksPruned"), metric("rowsDecoded"), metric("rowsSkipped"), metric("numOutputRows"))
    assert(pruned > 0, "no chunk pruned")
    assert(decoded > 0 && skipped === decoded - emitted, s"decoded $decoded, skipped $skipped, emitted $emitted")
    assert(emitted >= count)
  }

  test("an unfiltered count reads no column and counts every row") {
    val (dir, ds, _) = fixture
    val df = ciao(dir).groupBy().count()
    assert(df.collect().head.getLong(0) === ds.lines.size)
    assert(scanOf(df).get.scan.readSchema().isEmpty)
  }

  test("a one-column projection reads only that column and matches DuckDB") {
    val (dir, ds, _) = fixture
    val df = ciao(dir).select("stars").where("stars = 5")
    assert(scanOf(df).get.scan.readSchema().fieldNames.toSeq === Seq("stars"))
    Oracle.assertEquivalent(df, "SELECT CAST(stars AS BIGINT) AS stars FROM t WHERE CAST(stars AS BIGINT) = 5",
      "t" -> fullDf(ds))
  }

  test("counts of conjunctions of pushed and unpushed predicates equal DuckDB's") {
    val (dir, ds, _) = fixture
    // (Spark predicate, the same predicate over DuckDB's VARCHAR columns)
    val pushed = Seq(
      "stars = 5" -> "CAST(stars AS BIGINT) = 5",
      "text LIKE '%delicious%'" -> "text LIKE '%delicious%'",
      "user_id = 'u007'" -> "user_id = 'u007'")
    val unpushed = Seq(
      "useful = 0" -> "CAST(useful AS BIGINT) = 0",
      "funny < 3" -> "CAST(funny AS BIGINT) < 3",
      "stars >= 4" -> "CAST(stars AS BIGINT) >= 4",
      "text LIKE '%great%'" -> "text LIKE '%great%'",
      "user_id = 'u008'" -> "user_id = 'u008'",
      "date LIKE '201%'" -> "date LIKE '201%'")
    val conj = for {
      p <- Gen.choose(0, 3).flatMap(Gen.pick(_, pushed))
      u <- Gen.choose(0, 2).flatMap(Gen.pick(_, unpushed))
    } yield (p ++ u).toSeq
    def where(preds: Seq[String]): String = if (preds.isEmpty) "true" else preds.mkString(" AND ")
    // One batch of queries, so DuckDB loads the table once.
    forAllSamples(Gen.listOfN(24, conj), n = 1, seed = 9L) { batch =>
      val counts = batch.zipWithIndex.map { case (preds, i) =>
        Row(i, ciao(dir).where(where(preds.map(_._1))).count())
      }
      Oracle.assertEquivalent(spark.createDataFrame(counts.asJava, StructType.fromDDL("i INT, cnt BIGINT")),
        batch.zipWithIndex.map { case (preds, i) =>
          s"SELECT $i AS i, count(*) AS cnt FROM t WHERE ${where(preds.map(_._2))}"
        }.mkString(" UNION ALL "),
        "t" -> fullDf(ds))
    }
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

  test("a chunk whose Parquet file is gone fails the query, filtered or not") {
    val ds     = JsonDatasets.yelp(1000, seed = 7)
    val clause = Clause(KeyValueMatch("stars", "5"))
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    val dir    = tmpDir("ciao-no-parquet")
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits,
      ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.2, 0.1))))
    val gone = ChunkStore.parquetPath(dir, 0)
    Files.delete(java.nio.file.Paths.get(gone))
    for (df <- Seq(ciao(dir).where("stars = 5"), ciao(dir))) {
      val e = intercept[Exception](df.count())
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      assert(causes.exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage.contains(gone)), s"$e")
    }
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

/** Walks adaptive plans into their query stages. */
private object PlanNodes extends AdaptiveSparkPlanHelper
