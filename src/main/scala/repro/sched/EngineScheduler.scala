package repro.sched

import repro.core.{Engine, RefreshResult}
import scala.collection.mutable

/** A scheduled refresh of `dt` at data timestamp `dataTs` that threw `cause`. */
final case class RefreshFailure(dt: String, dataTs: Long, cause: Throwable)

/** Runs real refreshes of an [[repro.core.Engine]] with the §5.2 policy of
  * [[repro.core.DtGraph]] on a virtual clock: each DT refreshes at
  * multiples of its canonical period, upstream before downstream at the
  * same data timestamp, so every downstream read resolves an exact
  * upstream version (snapshot isolation across the graph).
  *
  * This is the engine-backed counterpart of [[SimScheduler]], which
  * applies the same graph policy to modelled refresh costs to study
  * skips and queueing. The micro-batch driver refreshes through it, and
  * so do the integration tests.
  */
final class EngineScheduler(engine: Engine, clock: SimClock) {
  private val failed = mutable.ArrayBuffer.empty[RefreshFailure]

  /** Every scheduled refresh that failed so far, oldest first. */
  def failures: Seq[RefreshFailure] = failed.toSeq

  /** Periods per DT from current graph state. */
  def periods: Map[String, Option[Long]] = engine.graph.periods

  /** Advance virtual time to `target`, performing every scheduled refresh
    * due in `(now, target]` in timestamp-then-topological order.
    */
  def advanceTo(target: Long): Seq[RefreshResult] = {
    val g = engine.graph
    // Canonical periods divide each other, so every tick is a multiple of
    // the shortest one.
    val ticks = g.periods.values.flatten.minOption.toSeq.flatMap { p =>
      ((clock.nowSeconds / p + 1) * p) to target by p
    }
    val out = ticks.flatMap { t => clock.set(t); refreshBehind(g.dueAt(t), t) }
    clock.set(target)
    out
  }

  /** Refresh every DT that is behind data timestamp `ts`, in topological
    * order.
    */
  def refreshAllAt(ts: Long): Seq[RefreshResult] = refreshBehind(engine.graph.topoOrder, ts)

  /** Refresh each of `dts` that is initialized, not suspended and behind
    * `ts`. A failed refresh is recorded in [[failures]] (and by the
    * engine's failure counter, which suspends the DT at its threshold),
    * and the loop moves on to the next DT, like §3.3.3.
    */
  private def refreshBehind(dts: Seq[String], ts: Long): Seq[RefreshResult] = dts.flatMap { n =>
    val st = engine.dtState(n)
    if (!st.isInitialized || st.suspended || engine.dataTimestamp(n) >= ts) None
    else
      try Some(engine.refresh(n, ts))
      catch { case e: Exception => failed += RefreshFailure(n, ts, e); None }
  }
}
