package repro.sched

import repro.core.{Engine, RefreshResult}
import scala.collection.mutable

/** A scheduled refresh of `dt` at data timestamp `dataTs` that threw `cause`. */
final case class RefreshFailure(dt: String, dataTs: Long, cause: Throwable)

/** Drives a real [[repro.core.Engine]] with the §5.2 scheduling policy on
  * a virtual clock: each DT refreshes at multiples of its canonical
  * period (derived from its effective lag), upstream before downstream at
  * the same data timestamp, so every downstream read resolves an exact
  * upstream version (snapshot isolation across the graph).
  *
  * This is the synchronous counterpart of [[SimScheduler]]: refresh
  * durations here are real Spark executions, so it is used by integration
  * tests and the T2/T4 benches; the fleet-scale behaviour (skips, queueing)
  * is studied with the simulator.
  */
final class EngineScheduler(engine: Engine, clock: SimClock) {
  private val failed = mutable.ArrayBuffer.empty[RefreshFailure]

  /** Every scheduled refresh that failed so far, oldest first. */
  def failures: Seq[RefreshFailure] = failed.toSeq

  /** Periods per DT from current graph state. */
  def periods: Map[String, Option[Long]] = {
    val g = engine.graph
    g.topoOrder.map(n => n -> CanonicalPeriods.periodFor(g.effectiveLag(n))).toMap
  }

  /** Advance virtual time to `target`, performing every scheduled refresh
    * due in `(now, target]` in timestamp-then-topological order. A failed
    * refresh is recorded in [[failures]] (and by the engine's failure
    * counter, which suspends the DT at its threshold), and the scheduler
    * moves on, like §3.3.3.
    */
  def advanceTo(target: Long): Seq[RefreshResult] = {
    val out = Seq.newBuilder[RefreshResult]
    val ps = periods
    val start = clock.nowSeconds
    val ticks = ps.values.flatten.flatMap { p =>
      val first = (start / p + 1) * p
      Iterator.iterate(first)(_ + p).takeWhile(_ <= target)
    }.toSeq.distinct.sorted
    for (t <- ticks) {
      clock.set(t)
      val order = engine.graph.topoOrder
      for (n <- order; p <- ps.getOrElse(n, None) if t % p == 0) {
        val st = engine.dtState(n)
        if (st.isInitialized && !st.suspended && engine.dataTimestamp(n) < t) {
          try out += engine.refresh(n, t)
          catch { case e: Exception => failed += RefreshFailure(n, t, e) }
        }
      }
    }
    clock.set(target)
    out.result()
  }
}
