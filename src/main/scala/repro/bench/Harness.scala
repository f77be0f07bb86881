package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import java.nio.charset.StandardCharsets

/** Small benchmarking utilities of the bench suites: wall-clock timing,
  * per-solution delay capture, and a fixed-width / markdown table renderer
  * that also persists results under `bench_results/` (the checked-in
  * tables are in `bench/bench_results/`).
  */
object Harness {

  /** Default per-run time budget (the paper's INF, scaled down). */
  val budgetMs: Long = sys.env.getOrElse("REPRO_BUDGET_MS", "6000").toLong

  def deadline(ms: Long = budgetMs): Long = System.nanoTime + ms * 1000000L

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime
    val a = body
    (a, (System.nanoTime - t0) / 1000000L)
  }

  /** Tracks the maximum gap between consecutive solution emissions,
    * including start→first and last→end (the paper's delay metric).
    */
  final class DelayMeter {
    private val start = System.nanoTime
    private var last = start
    private var maxGap = 0L
    def tick(): Unit = {
      val now = System.nanoTime
      maxGap = math.max(maxGap, now - last)
      last = now
    }
    def finish(): Long = {
      val now = System.nanoTime
      math.max(maxGap, now - last) / 1000L // microseconds
    }
  }

  /** Format a runtime cell: millis, or the paper's INF / OUT markers. */
  def cell(millis: Long, finished: Boolean): String =
    if (finished) s"$millis" else "INF"

  final case class Table(name: String, title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => r(i).length).max)
      def line(r: Seq[String]) =
        r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (s"### $title" +: line(header) +: sep +: rows.map(line)).mkString("\n")
    }

    /** Print to stdout and persist under bench_results/<name>.md. */
    def emit(): Table = {
      println()
      println(render)
      println()
      val dir = Paths.get(sys.env.getOrElse("REPRO_RESULTS_DIR", "bench_results"))
      Files.createDirectories(dir)
      Files.write(
        dir.resolve(s"$name.md"),
        (render + "\n").getBytes(StandardCharsets.UTF_8),
        StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING,
      )
      this
    }
  }
}
