package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `op` groups the spans of one operation
  * (one query, one insert, one set-up); `parent` is the enclosing span (0
  * for a root span). Times are `System.nanoTime` readings. */
final case class Span(id: Int, parent: Int, op: Long, name: String, start: Long, end: Long) {
  def dur: Long = end - start
}

/** In-memory span recorder. Spans are only recorded while `on`; with
  * tracing off `span` is a plain call, so an untraced operation pays nothing
  * but a branch and runs the same code as a traced one. Calls are
  * single-threaded (one client), so a stack gives each span its parent. */
final class Tracer(var on: Boolean) {
  private val done  = mutable.ArrayBuffer[Span]()
  private var stack = List.empty[Int]
  private var next  = 1
  /** Operation the next spans belong to. */
  var op: Long = 0L

  def span[A](name: String)(f: => A): A =
    if (!on) f
    else {
      val id = next; next += 1
      val parent = stack.headOption.getOrElse(0)
      stack = id :: stack
      val t0 = System.nanoTime()
      try f
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        done += Span(id, parent, op, name, t0, t1)
      }
    }

  def spans: Seq[Span] = done.toSeq

  /** Self time of every span: its duration minus the time its direct
    * children cover (children never overlap: one thread). */
  def selfTimes: Seq[(Span, Long)] = {
    val childTime = mutable.Map[Int, Long]().withDefaultValue(0L)
    done.foreach(s => if (s.parent != 0) childTime(s.parent) += s.dur)
    done.toSeq.map(s => s -> (s.dur - childTime(s.id)))
  }

  /** Self nanoseconds summed by span name, over spans whose root span has
    * name `root`. */
  def selfByName(root: String): Map[String, Long] = {
    val byId = done.map(s => s.id -> s).toMap
    def rootOf(s: Span): Span = if (s.parent == 0) s else rootOf(byId(s.parent))
    selfTimes.filter { case (s, _) => rootOf(s).name == root }
      .groupMapReduce(_._1.name)(_._2)(_ + _)
  }

  /** Write every span as one JSON line. */
  def write(f: File): Unit = {
    f.getParentFile.mkdirs()
    val w = new PrintWriter(f)
    try done.foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":"${s.name}",""" +
        s""""start_ns":${s.start},"end_ns":${s.end}}""")
    } finally w.close()
  }
}

/** Order statistics over latency samples. */
object Stats {
  /** Linear-interpolated quantile, `p` in [0, 1]. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val h = (s.size - 1) * p
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}

/** JVM-wide GC time and heap peak, read through the management beans. */
object Jvm {
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
  def resetHeapPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())
  def heapPeakMb(): Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
}

/** Phase lines on standard error, stamped with seconds since start. */
object Progress {
  private val t0 = System.nanoTime()
  def apply(msg: String): Unit =
    Console.err.println(f"[perfbench] +${(System.nanoTime() - t0) / 1e9}%7.2fs $msg")
}
