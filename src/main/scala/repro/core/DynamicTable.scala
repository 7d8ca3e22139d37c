package repro.core

import repro.txn.Frontier

/** The user-provided target lag of a dynamic table (§3.2). */
sealed trait TargetLag
/** Keep the table no more than `seconds` out of date (min 48s canonical). */
final case class LagSeconds(seconds: Long) extends TargetLag {
  require(seconds > 0, "target lag must be positive")
}
/** Align with the minimum target lag of downstream consumers (§3.2). */
case object DownstreamLag extends TargetLag

/** Refresh mode (§3.3.2): chosen at creation. */
sealed trait RefreshMode
case object FullMode extends RefreshMode
case object IncrementalMode extends RefreshMode

/** Action a single refresh actually took (§3.3.2, §5.4). */
sealed trait RefreshAction
case object NoData extends RefreshAction
case object FullRefresh extends RefreshAction
case object IncrementalRefresh extends RefreshAction
case object Reinitialize extends RefreshAction

/** Outcome of one refresh: what ran, at which data timestamp, and how many
  * change rows it produced (inserts + deletes, consolidated).
  */
final case class RefreshResult(dt: String, action: RefreshAction, dataTs: Long, changedRows: Long)

/** The definition of a dynamic table (§3): a defining query, a target lag,
  * a refresh mode, and a virtual warehouse to run refreshes in.
  */
final case class DtSpec(
    name: String,
    query: DtQuery,
    targetLag: TargetLag,
    refreshMode: RefreshMode = IncrementalMode,
    warehouse: String = "default_wh",
) {
  require(name.nonEmpty)
  require(
    refreshMode == FullMode || query.incrementallySupported,
    s"query of $name contains operators without incremental support (§3.3.2); use FullMode",
  )
}

/** Mutable runtime state of a dynamic table held by the engine. */
final class DtState(val spec: DtSpec) {
  /** Progress of the DT; `None` until initialized (§3.1: querying an
    * uninitialized DT is an error).
    */
  var frontier: Option[Frontier] = None
  /** Consecutive refresh failures; at [[DtState.FailureThreshold]] the DT
    * auto-suspends to stop wasting compute (§3.3.3).
    */
  var consecutiveFailures: Int = 0
  var suspended: Boolean = false
  def isInitialized: Boolean = frontier.isDefined
}

object DtState {
  /** Consecutive failures that suspend a DT (§3.3.3), in the engine and in
    * the scheduling simulator alike.
    */
  val FailureThreshold: Int = 5
}
