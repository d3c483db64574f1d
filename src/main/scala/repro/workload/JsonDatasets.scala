package repro.workload

import java.util.Random

import org.apache.spark.sql.types.{BooleanType, LongType, StringType, StructType}

/** Synthetic stand-ins for the paper's three JSON datasets (§VII-B).
  *
  * Each generator is deterministic in (rows, seed) and emits one JSON object
  * per line with exactly the attributes the Table II predicate templates
  * touch (plus filler fields that give objects realistic lengths). Value
  * domains match the template candidate cardinalities, and frequencies are
  * skewed so the predicate pool spans a wide selectivity range — the
  * properties that drive CIAO's behaviour (see DESIGN.md §3).
  */
object JsonDatasets {

  /** A generated dataset: raw JSON lines + the flat schema of its queryable columns. */
  final case class Dataset(name: String, lines: Vector[String], schema: StructType) {
    def avgLineLength: Double =
      if (lines.isEmpty) 0.0 else lines.map(_.length.toLong).sum.toDouble / lines.size
  }

  private val Vocab = Vector(
    "service", "great", "food", "wait", "staff", "place", "nice", "visit", "back", "time",
    "order", "menu", "price", "clean", "table", "drink", "lunch", "dinner", "fresh", "local",
    "happy", "quick", "slow", "friendly", "quiet", "busy", "small", "large", "warm", "cold")

  /** Marker words for `text LIKE <string>` (5 candidates, varied frequency). */
  val YelpMarkers: Vector[(String, Double)] = Vector(
    "delicious" -> 0.05, "terrible" -> 0.10, "amazing" -> 0.18, "cozy" -> 0.28, "overpriced" -> 0.40)

  /** Yelp-review-lite: review_id, user_id, business_id, stars, 3 vote
    * metrics, free text and a date — the fields of §VII-B's review.json
    * that Table II predicates reference.
    */
  def yelp(rows: Int, seed: Long = 11L): Dataset = {
    val rnd = new Random(seed)
    val lines = Vector.tabulate(rows) { i =>
      val user   = f"u${rnd.nextInt(200)}%03d"
      val biz    = f"b${rnd.nextInt(500)}%04d"
      val stars  = 1 + rnd.nextInt(5)
      // Vote counts 0..99, geometric-ish: small values are common so the
      // equality predicates span selectivities from ~0.3 down to ~1e-3.
      def votes(): Int = math.min(99, math.floor(math.pow(rnd.nextDouble(), 3) * 100).toInt)
      val useful = votes(); val funny = votes(); val cool = votes()
      val year   = 2004 + rnd.nextInt(14)
      val month  = 1 + rnd.nextInt(12)
      val day    = 1 + rnd.nextInt(28)
      val words  = Vector.fill(6 + rnd.nextInt(12))(Vocab(rnd.nextInt(Vocab.size)))
      val marked = YelpMarkers.collect { case (w, p) if rnd.nextDouble() < p => w }
      val text   = (words ++ marked).mkString(" ")
      s"""{"review_id":"rev$i","user_id":"$user","business_id":"$biz","stars":$stars,""" +
        s""""useful":$useful,"funny":$funny,"cool":$cool,"text":"$text",""" +
        f""""date":"$year%04d-$month%02d-$day%02d"}"""
    }
    Dataset("yelp", lines, new StructType()
      .add("review_id", StringType).add("user_id", StringType).add("business_id", StringType)
      .add("stars", LongType).add("useful", LongType).add("funny", LongType).add("cool", LongType)
      .add("text", StringType).add("date", StringType))
  }

  /** Keywords for `info LIKE <string>` (200 candidates, Zipf-ish frequency). */
  val WinlogKeywords: Vector[String] = Vector.tabulate(200)(i => f"kw$i%03d")

  private val WinlogComponents = Vector(
    "CBS", "CSI", "WER", "WinUpdate", "Defender", "Kernel", "NetSetup", "Shell", "Dism", "Registry")

  /** Windows-System-Log-lite: a timestamp (`YYYY-MM-DD HH:MM:SS,mmm`),
    * level, component and a message embedding one frequency-skewed keyword.
    */
  def winlog(rows: Int, seed: Long = 23L): Dataset = {
    val rnd = new Random(seed)
    // Zipf weights over the 200 keywords so info-LIKE selectivities vary.
    val weights = Vector.tabulate(WinlogKeywords.size)(i => 1.0 / math.pow(i + 1, 1.1))
    val wSum    = weights.sum
    val cdf     = weights.scanLeft(0.0)(_ + _).tail.map(_ / wSum)
    def drawKw(r: Double): String = {
      val idx = cdf.indexWhere(r <= _)
      WinlogKeywords(if (idx < 0) WinlogKeywords.size - 1 else idx)
    }
    val lines = Vector.tabulate(rows) { _ =>
      val month = 1 + rnd.nextInt(12)
      val day   = 1 + rnd.nextInt(28)
      val hour  = rnd.nextInt(24)
      val min   = rnd.nextInt(60)
      val sec   = rnd.nextInt(60)
      val ms    = rnd.nextInt(1000)
      val level = Vector("Info", "Warning", "Error")(rnd.nextInt(3))
      val comp  = WinlogComponents(rnd.nextInt(WinlogComponents.size))
      val kw    = drawKw(rnd.nextDouble())
      val sid   = rnd.nextInt(100000000)
      val info  = s"Session $sid handled by $comp worker $kw completed with status ${rnd.nextInt(10)}"
      f"""{"ts":"2016-$month%02d-$day%02d $hour%02d:$min%02d:$sec%02d,$ms%03d","level":"$level","component":"$comp","info":"$info"}"""
    }
    Dataset("winlog", lines, new StructType()
      .add("ts", StringType).add("level", StringType).add("component", StringType).add("info", StringType))
  }

  val YcsbCountries: Vector[String] = Vector("US", "CN", "IN")
  val YcsbAgeGroups: Vector[String] = Vector("child", "teen", "adult", "senior")
  val YcsbDomains: Vector[String]   =
    Vector("com", "org", "net", "edu", "gov", "io", "co", "biz", "info", "dev", "app", "xyz")
  val YcsbSites: Vector[String]     = Vector(
    "alpha", "bravo", "castle", "delta", "ember", "forge", "grove", "haven",
    "iris", "jade", "karma", "lumen", "mesa", "nova")
  val YcsbEmailDomains: Vector[String] = Vector("gmail.com", "yahoo.com")

  /** YCSB-customer-lite (the paper's fakeit customer documents): the nine
    * Table II attributes plus nested/array filler to reach ~25 attributes
    * and realistic object sizes.
    */
  def ycsb(rows: Int, seed: Long = 37L): Dataset = {
    val rnd = new Random(seed)
    val firstNames = Vector("ana", "ben", "carl", "dora", "eli", "faye", "gus", "hana")
    val cities     = Vector("rivertown", "lakeside", "hillview", "sunport", "graystone")
    val lines = Vector.tabulate(rows) { i =>
      val active   = rnd.nextDouble() < 0.7
      def score(): Int = math.min(99, math.floor(math.pow(rnd.nextDouble(), 2) * 100).toInt)
      val linear   = score(); val weighted = score(); val ageBy = score()
      val country  = YcsbCountries(rnd.nextInt(YcsbCountries.size))
      val ageGroup = YcsbAgeGroups(rnd.nextInt(YcsbAgeGroups.size))
      val domain   = YcsbDomains(rnd.nextInt(YcsbDomains.size))
      val site     = YcsbSites(rnd.nextInt(YcsbSites.size))
      val emailDom = YcsbEmailDomains(rnd.nextInt(YcsbEmailDomains.size))
      val first    = firstNames(rnd.nextInt(firstNames.size))
      val city     = cities(rnd.nextInt(cities.size))
      val children = Vector.fill(rnd.nextInt(4))(firstNames(rnd.nextInt(firstNames.size)))
      val places   = Vector.fill(1 + rnd.nextInt(3))(cities(rnd.nextInt(cities.size)))
      s"""{"id":"cust$i","name":"$first ${first}son","isActive":$active,""" +
        s""""linear_score":$linear,"weighted_score":$weighted,""" +
        s""""phone_country":"$country","phone":"+${rnd.nextInt(900) + 100}-${rnd.nextInt(9000000) + 1000000}",""" +
        s""""age_group":"$ageGroup","age_by_group":$ageBy,""" +
        s""""url_domain":"$domain","url_site":"$site","url":"www.$site.$domain",""" +
        s""""email":"$first$i@$emailDom",""" +
        s""""address":{"street":"${rnd.nextInt(999) + 1} main","city":"$city","zip":"${rnd.nextInt(90000) + 10000}"},""" +
        s""""children":[${children.map("\"" + _ + "\"").mkString(",")}],""" +
        s""""visited_places":[${places.map("\"" + _ + "\"").mkString(",")}],""" +
        s""""company":"co${rnd.nextInt(50)}","job_title":"t${rnd.nextInt(20)}",""" +
        s""""balance":${rnd.nextInt(100000)},"points":${rnd.nextInt(1000)},""" +
        f""""registered":"20${10 + rnd.nextInt(10)}%02d-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"}"""
    }
    Dataset("ycsb", lines, new StructType()
      .add("id", StringType).add("name", StringType).add("isActive", BooleanType)
      .add("linear_score", LongType).add("weighted_score", LongType)
      .add("phone_country", StringType).add("age_group", StringType).add("age_by_group", LongType)
      .add("url_domain", StringType).add("url_site", StringType).add("email", StringType))
  }

  /** Generator by dataset name (job entrypoints). */
  def byName(name: String, rows: Int, seed: Long = 0L): Dataset = name match {
    case "yelp"   => yelp(rows, if (seed == 0) 11L else seed)
    case "winlog" => winlog(rows, if (seed == 0) 23L else seed)
    case "ycsb"   => ycsb(rows, if (seed == 0) 37L else seed)
    case other    => throw new IllegalArgumentException(s"unknown dataset '$other'")
  }
}
