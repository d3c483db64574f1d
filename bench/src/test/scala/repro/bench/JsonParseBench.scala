package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.json.JsonParser
import repro.server.TableSchema
import repro.workload.JsonDatasets

/** Per-line cost of the loader's JSON path: the median ns/line of
  * `JsonParser.parseObject`, and of `parseObject` + `TableSchema.extractRow`
  * into the dataset's schema, over each generated 40,000-line dataset (yelp,
  * winlog, ycsb). Single-threaded, fixed rows and seeds, 10 warm-up passes
  * over the dataset, then the median of 15 timed passes.
  *
  * Run: `sbt "bench/testOnly repro.bench.JsonParseBench"`.
  */
class JsonParseBench extends AnyFunSuite {

  private val Rows   = 40000
  private val Warmup = 10
  private val Runs   = 15

  test("JsonParser: median ns/line of parseObject and parseObject + extractRow per dataset") {
    println(f"== JSON parse cost: $Rows%,d lines per dataset, median of $Runs passes after $Warmup warm-up ==")
    println(f"${"dataset"}%-8s ${"chars/line"}%10s ${"parse"}%10s ${"+extract"}%10s  (ns/line)")
    for (ds <- Seq(JsonDatasets.yelp(Rows), JsonDatasets.winlog(Rows), JsonDatasets.ycsb(Rows))) {
      val lines  = ds.lines.toArray
      val schema = ds.schema
      var sink   = 0L // keeps the results live
      def pass(extract: Boolean): Long = {
        val t0 = System.nanoTime()
        var i  = 0
        while (i < lines.length) {
          val obj = JsonParser.parseObject(lines(i))
          sink += (if (extract) TableSchema.extractRow(schema, obj).numFields else obj.fields.size)
          i += 1
        }
        System.nanoTime() - t0
      }
      def nsPerLine(extract: Boolean): Double = {
        (0 until Warmup).foreach(_ => pass(extract))
        val timed = (0 until Runs).map(_ => pass(extract)).sorted
        timed(Runs / 2).toDouble / lines.length
      }
      val parse    = nsPerLine(extract = false)
      val extract  = nsPerLine(extract = true)
      val avgChars = lines.map(_.length.toLong).sum.toDouble / lines.length
      assert(sink > 0)
      println(f"${ds.name}%-8s $avgChars%10.0f $parse%10.0f $extract%10.0f")
    }
    println(s"hardware: ${Runtime.getRuntime.availableProcessors()} cpus, " +
      s"java ${System.getProperty("java.version")}, ${System.getProperty("os.arch")}")
  }
}
