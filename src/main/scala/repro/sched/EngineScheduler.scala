package repro.sched

import repro.core.{DtGraph, Engine, RefreshResult}
import scala.collection.mutable

/** A scheduled refresh of `dt` at data timestamp `dataTs` that threw `cause`. */
final case class RefreshFailure(dt: String, dataTs: Long, cause: Throwable)

/** A scheduled refresh of `dt` at data timestamp `dataTs` that did not run
  * because its upstream DT `blockedBy` had not reached `dataTs`.
  */
final case class RefreshSkip(dt: String, dataTs: Long, blockedBy: String)

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
  private val skipped = mutable.ArrayBuffer.empty[RefreshSkip]

  /** Every scheduled refresh that failed so far, oldest first. */
  def failures: Seq[RefreshFailure] = failed.toSeq

  /** Every scheduled refresh skipped for a lagging upstream DT, oldest first. */
  def skips: Seq[RefreshSkip] = skipped.toSeq

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
    val out = ticks.flatMap { t => clock.set(t); refreshBehind(g, g.dueAt(t), t) }
    clock.set(target)
    out
  }

  /** Refresh every DT that is behind data timestamp `ts`, in topological
    * order.
    */
  def refreshAllAt(ts: Long): Seq[RefreshResult] = {
    val g = engine.graph
    refreshBehind(g, g.topoOrder, ts)
  }

  /** Refresh each of `dts` that is initialized, not suspended and behind
    * `ts`. A failed refresh is recorded in [[failures]] (and by the
    * engine's failure counter, which suspends the DT at its threshold),
    * and the loop moves on to the next DT, like §3.3.3. A DT whose
    * upstream DT has not reached `ts` (it failed or is suspended) cannot
    * resolve its exact version there (§6.1): its refresh is recorded in
    * [[skips]], not counted as its own failure, so the upstream's fault
    * does not suspend it.
    */
  private def refreshBehind(g: DtGraph, dts: Seq[String], ts: Long): Seq[RefreshResult] = dts.flatMap { n =>
    val st = engine.dtState(n)
    if (!st.isInitialized || st.suspended || engine.dataTimestamp(n) >= ts) None
    else g.upstream(n).find(behind(_, ts)) match {
      case Some(u) => skipped += RefreshSkip(n, ts, u); None
      case None =>
        try Some(engine.refresh(n, ts))
        catch { case e: Exception => failed += RefreshFailure(n, ts, e); None }
    }
  }

  /** Not initialized, or behind `ts`. */
  private def behind(dt: String, ts: Long): Boolean =
    !engine.dtState(dt).isInitialized || engine.dataTimestamp(dt) < ts
}
