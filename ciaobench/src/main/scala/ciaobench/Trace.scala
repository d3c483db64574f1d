package ciaobench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer

/** Spans recorded around the benchmark's calls into each layer. They are
  * kept in memory and written once, when the traced run ends. A disabled
  * tracer only runs the body.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans  = ArrayBuffer.empty[Span]
  private var parent = 0
  private var nextId = 1
  var cycle: Int     = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id    = nextId
      val outer = parent
      nextId += 1
      parent = id
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, outer, name, cycle, t0, System.nanoTime())
        parent = outer
      }
    }

  /** Records a span timed on another thread, as a child of the open span. */
  def record(name: String, startNs: Long, endNs: Long): Unit =
    if (enabled) {
      spans += Span(nextId, parent, name, cycle, startNs, endNs)
      nextId += 1
    }

  def write(path: String): Unit = {
    val body = spans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},"cycle":${s.cycle},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
    Files.createDirectories(Paths.get(path).getParent)
    Files.write(Paths.get(path), body.getBytes(StandardCharsets.UTF_8))
    ()
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, cycle: Int, startNs: Long, endNs: Long)
}

object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'            => sb ++= "\\\""
      case '\\'           => sb ++= "\\\\"
      case c if c < ' '   => sb ++= f"\\u${c.toInt}%04x"
      case c              => sb += c
    }
    (sb += '"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) throw new IllegalArgumentException(s"metric is not finite: $d")
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
