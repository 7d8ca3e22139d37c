package repro.sched

import repro.core.{DownstreamLag, DtGraph, DtState, LagSeconds, TargetLag}
import scala.collection.mutable

/** A DT node in the scheduling simulator. The simulator reproduces the
  * *orchestration* behaviour of §5.2/§3.3.3 (periods, waiting, warehouse
  * contention, skips, error suspension) without running Spark plans —
  * refresh cost follows the paper's fixed+variable model (§3.3.2).
  *
  * @param upstream      upstream DT names (data-timestamp aligned reads).
  * @param baseSources   names of raw sources, fed by the change feed.
  * @param targetLag     target lag (None = DOWNSTREAM: inherit the
  *                      downstream lag, or refresh on demand only).
  * @param fixedCost     seconds per refresh regardless of data volume.
  * @param varCostPerRow seconds per changed input row.
  * @param amplification output changed rows per input changed row.
  * @param failAtDataTs  data timestamps whose refresh fails (user errors,
  *                      §3.3.3 — failures are not retried;
  *                      [[repro.core.DtState.FailureThreshold]] consecutive
  *                      failures suspend the DT).
  */
final case class SimNode(
    name: String,
    upstream: Seq[String] = Nil,
    baseSources: Seq[String] = Nil,
    targetLag: Option[Long] = Some(600L),
    warehouse: String = "wh",
    fixedCost: Double = 5.0,
    varCostPerRow: Double = 0.0,
    amplification: Double = 1.0,
    failAtDataTs: Set[Long] = Set.empty,
)

/** Result of simulating one node. */
final case class SimNodeResult(
    node: SimNode,
    period: Option[Long],
    records: Seq[RefreshRecord],
    skippedDataTs: Seq[Long],
    failedDataTs: Seq[Long],
    suspendedAt: Option[Long],
) {
  def sawtooth: LagTracker.Sawtooth = LagTracker.sawtooth(records)
}

/** Discrete-time (1 s step) simulator of the refresh scheduler (§5.2).
  *
  * Semantics implemented:
  *   - canonical periods `48·2^n` from each node's *effective* lag (min of
  *     its own lag and all downstream lags), phase 0, so data timestamps
  *     align across the graph — the [[repro.core.DtGraph]] policy the
  *     engine's scheduler uses too;
  *   - a refresh at data timestamp v starts only once every upstream DT
  *     has completed v (the wait contributes to `w`), and only when its
  *     warehouse is free (warehouses execute refreshes serially);
  *   - a tick that arrives while the previous refresh is still pending or
  *     running is *skipped* (§3.3.3); the following refresh covers the
  *     skipped interval, shedding the skipped refresh's fixed cost;
  *   - refreshes over an interval with zero changed rows take the NO_DATA
  *     action: instantaneous, no warehouse time;
  *   - failures don't advance the data timestamp;
  *     [[repro.core.DtState.FailureThreshold]] consecutive failures
  *     suspend the node.
  */
final class SimScheduler(nodes: Seq[SimNode], sourceChanges: (String, Long, Long) => Long) {
  private val graph = new DtGraph(nodes.map(n =>
    DtGraph.Node(n.name, n.upstream, n.targetLag.fold[TargetLag](DownstreamLag)(LagSeconds(_)))))
  private val topo = graph.topoOrder

  val periods: Map[String, Option[Long]] = graph.periods

  private final case class Running(dataTs: Long, start: Long, endsAt: Long, rows: Long)

  private final class St(val node: SimNode) {
    var lastDataTs: Long = 0L
    val emitted = mutable.TreeMap.empty[Long, Long]
    /** Data timestamp of the refresh waiting to start. */
    var pending: Option[Long] = None
    var running: Option[Running] = None
    val records = mutable.ArrayBuffer.empty[RefreshRecord]
    val skipped = mutable.ArrayBuffer.empty[Long]
    val failed = mutable.ArrayBuffer.empty[Long]
    var consecutiveFailures = 0
    var suspendedAt: Option[Long] = None
  }

  /** Run the simulation for `horizon` seconds; nodes start initialized at
    * data timestamp 0.
    */
  def run(horizon: Long): Map[String, SimNodeResult] = {
    val st = nodes.map(n => n.name -> new St(n)).toMap
    val busy = mutable.Set.empty[String] // warehouses running a refresh

    def inputRows(s: St, t0: Long, t1: Long): Long = {
      val base = s.node.baseSources.map(b => sourceChanges(b, t0, t1)).sum
      val up = s.node.upstream.map(u => st(u).emitted.rangeFrom(t0 + 1).rangeTo(t1).values.sum).sum
      base + up
    }

    for (t <- 1L to horizon) {
      // 1. completions
      for (n <- topo; s = st(n); r <- s.running if r.endsAt == t) {
        s.running = None
        busy -= s.node.warehouse
        if (s.node.failAtDataTs.contains(r.dataTs)) {
          s.failed += r.dataTs
          s.consecutiveFailures += 1
          if (s.consecutiveFailures >= DtState.FailureThreshold && s.suspendedAt.isEmpty) s.suspendedAt = Some(t)
        } else {
          val outRows = math.ceil(r.rows * s.node.amplification).toLong
          s.records += RefreshRecord(r.dataTs, r.start, t, "INCREMENTAL", outRows)
          s.emitted(r.dataTs) = outRows
          s.lastDataTs = r.dataTs
          s.consecutiveFailures = 0
        }
      }
      // 2. ticks
      for (n <- graph.dueAt(t); s = st(n) if s.suspendedAt.isEmpty) {
        if (s.pending.isDefined || s.running.isDefined) s.skipped += t
        else s.pending = Some(t)
      }
      // 3. starts (topo order ~ FIFO per warehouse)
      for (n <- topo; s = st(n); v <- s.pending) {
        val upstreamReady = s.node.upstream.forall(u => st(u).lastDataTs >= v)
        if (upstreamReady) {
          val rows = inputRows(s, s.lastDataTs, v)
          if (rows == 0L && !s.node.failAtDataTs.contains(v)) {
            // NO_DATA: no warehouse, completes instantly.
            s.pending = None
            s.records += RefreshRecord(v, t, t, "NO_DATA", 0L)
            s.emitted(v) = 0L
            s.lastDataTs = v
            s.consecutiveFailures = 0
          } else if (!busy.contains(s.node.warehouse)) {
            val d = math.max(1L, math.ceil(s.node.fixedCost + s.node.varCostPerRow * rows).toLong)
            s.pending = None
            s.running = Some(Running(v, t, t + d, rows))
            busy += s.node.warehouse
          }
        }
      }
    }

    st.map { case (n, s) =>
      n -> SimNodeResult(s.node, periods(n), s.records.toSeq, s.skipped.toSeq, s.failed.toSeq, s.suspendedAt)
    }
  }
}
