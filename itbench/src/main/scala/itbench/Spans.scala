package itbench

import java.io.{BufferedWriter, FileWriter}

/** In-memory span recorder for the traced pass.
  *
  * A span has a name, a start and an end (System.nanoTime), the span that
  * was open when it began (its parent) and the query it belongs to. Spans
  * nest strictly and are recorded from one thread, so a layer's self time
  * is its duration minus the summed durations of its direct children.
  * Nothing is written until [[write]] is called at the end of the run.
  */
final class Spans {
  private var n = 0
  private var nameOf = new Array[Int](4096)
  private var parentOf = new Array[Int](4096)
  private var queryOf = new Array[Int](4096)
  private var startOf = new Array[Long](4096)
  private var endOf = new Array[Long](4096)
  private var open = -1

  /** Query id stamped on spans begun from now on; -1 outside queries. */
  var query: Int = -1

  def size: Int = n

  def begin(name: Int): Int = {
    if (n == nameOf.length) grow()
    val id = n
    nameOf(id) = name
    parentOf(id) = open
    queryOf(id) = query
    endOf(id) = -1
    open = id
    n += 1
    startOf(id) = System.nanoTime
    id
  }

  def end(id: Int): Unit = {
    endOf(id) = System.nanoTime
    open = parentOf(id)
  }

  def span[A](name: Int)(body: => A): A = {
    val id = begin(name)
    try body
    finally end(id)
  }

  private def grow(): Unit = {
    val c = n * 2
    nameOf = java.util.Arrays.copyOf(nameOf, c)
    parentOf = java.util.Arrays.copyOf(parentOf, c)
    queryOf = java.util.Arrays.copyOf(queryOf, c)
    startOf = java.util.Arrays.copyOf(startOf, c)
    endOf = java.util.Arrays.copyOf(endOf, c)
  }

  private def duration(i: Int): Long = endOf(i) - startOf(i)

  /** Self time of every span: its duration minus its children's. */
  def selfTimes(): Array[Long] = {
    val self = Array.tabulate(n)(duration)
    var i = 0
    while (i < n) {
      if (parentOf(i) >= 0) self(parentOf(i)) -= duration(i)
      i += 1
    }
    self
  }

  /** Durations (or self times) of all spans with the given name. */
  def collect(name: Int, values: Array[Long]): Array[Long] = {
    val out = new LongBuf
    var i = 0
    while (i < n) { if (nameOf(i) == name) out.add(values(i)); i += 1 }
    out.sorted
  }

  def durations(): Array[Long] = Array.tabulate(n)(duration)

  def queries(): Array[Int] = java.util.Arrays.copyOf(queryOf, n)

  def nameAt(i: Int): Int = nameOf(i)

  /** Writes one tab-separated line per span, times relative to the first. */
  def write(path: String): Unit = {
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val w = new BufferedWriter(new FileWriter(f))
    try {
      val t0 = if (n > 0) startOf(0) else 0L
      w.write("span\tparent\tquery\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        w.write(s"$i\t${parentOf(i)}\t${queryOf(i)}\t${Spans.names(nameOf(i))}\t${startOf(i) - t0}\t${endOf(i) - t0}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Spans {
  // Span names are the program's module and entry point the span wraps.
  val GenBuild = 0          // BipartiteGen / FraudGen graph build
  val Core = 1              // CoreReduction.alphaBetaCore
  val Induced = 2           // BipartiteGraph.inducedSubgraph
  val H0 = 3                // Biplex.initialLeftAnchored
  val Query = 4             // ReverseSearch.run / LargeMbp.enumerate
  val Replay = 5            // one replayed ThreeStep (benchmark code)
  val Ctx = 6               // EnumAlmostSat.buildCtx
  val Call = 7              // EnumAlmostSat.run, one left seed
  val RightCheck = 8        // Biplex.existsAddableRight
  val Extend = 9            // Biplex.extend
  val Key = 10              // Solution.key

  val names: Array[String] = Array(
    "gen.build", "core.CoreReduction.alphaBetaCore", "graph.BipartiteGraph.inducedSubgraph",
    "core.Biplex.initialLeftAnchored", "query", "replay.threeStep", "core.EnumAlmostSat.buildCtx",
    "core.EnumAlmostSat.run", "core.Biplex.existsAddableRight", "core.Biplex.extend", "core.Solution.key",
  )

  /** The layer spans whose self time the replay attributes to the program. */
  val replayLayers: Seq[Int] = Seq(Ctx, Call, RightCheck, Extend, Key)
}
