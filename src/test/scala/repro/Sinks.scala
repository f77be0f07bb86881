package repro

import repro.core.Solution
import scala.collection.mutable

/** Sinks for running an enumerator to completion in tests. */
object Sinks {

  /** Runs an enumerator with a sink that keeps every solution; returns the
    * solution set and the enumerator's own result, e.g.
    * `collect(ReverseSearch.run(g, k, cfg, _))`.
    */
  def collect[A](run: (Solution => Boolean) => A): (Set[Solution], A) = {
    val out = mutable.HashSet.empty[Solution]
    val result = run(s => { out += s; true })
    (out.toSet, result)
  }
}
