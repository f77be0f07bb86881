package itbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Growable array of longs: nanosecond samples recorded without boxing. */
final class LongBuf(initial: Int = 1024) {
  private var a = new Array[Long](initial)
  private var n = 0

  def add(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = x
    n += 1
  }

  def length: Int = n
  def sum: Long = { var s = 0L; var i = 0; while (i < n) { s += a(i); i += 1 }; s }
  def sorted: Array[Long] = { val c = java.util.Arrays.copyOf(a, n); java.util.Arrays.sort(c); c }
}

object Stats {

  /** Quantile `q` of ascending samples, linearly interpolated between ranks. */
  def quantile(sorted: Array[Long], q: Double): Double = {
    require(sorted.nonEmpty, "quantile of no samples")
    val pos = q * (sorted.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, sorted.length - 1)
    sorted(lo) + (sorted(hi) - sorted(lo)) * (pos - lo)
  }

  /** Total collections and collection milliseconds over all collectors. */
  def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount.max(0L)).sum, beans.map(_.getCollectionTime.max(0L)).sum)
  }

  /** Heap in use, in MiB, after full collections with finalization in
    * between, repeated until two readings agree: objects that wait on
    * finalization or reference processing survive the first collection.
    */
  def liveHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    def collect(): Long = { System.gc(); System.runFinalization(); System.gc(); mem.getHeapMemoryUsage.getUsed }
    var prev = collect()
    var cur = collect()
    var i = 0
    while (math.abs(cur - prev) > prev / 1000 && i < 8) { prev = cur; cur = collect(); i += 1 }
    cur / 1048576.0
  }

  /** A fixed integer loop, timed in milliseconds. The work never changes, so
    * its time tracks only the speed of the host; it is reported beside the
    * metrics and never used to rescale them.
    */
  def calibrationMs(): Double = {
    val t0 = System.nanoTime
    var x = 0x9E3779B97F4A7C15L
    var acc = 0L
    var i = 0
    while (i < 50000000) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      acc += x & 0xFF
      i += 1
    }
    val ms = (System.nanoTime - t0) / 1e6
    if (acc == 42) println("calibration checksum hit") // keeps the loop live
    ms
  }

  /** The run environment: host, JVM, flags, heap and collectors. */
  def environment(): Seq[(String, String)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    Seq(
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "jvm_flags" -> rt.getInputArguments.asScala.mkString(" "),
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(","),
    )
  }
}

/** Minimal JSON rendering for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
