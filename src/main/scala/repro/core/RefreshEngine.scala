package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.lit
import repro.sched.Clock
import repro.txn.{Frontier, TableVersion, TransactionManager}
import repro.txn.TransactionManager.pin
import scala.collection.mutable

/** The dynamic-table engine (§5): catalog + transaction manager + refresh
  * execution. Each refresh is a micro-batch: an optimized relational plan
  * (Catalyst, via [[Eval]] / [[Differentiator]]) executed inside a locked,
  * versioned commit — mirroring "each micro-batch is an optimized,
  * relational query plan … running in the context of Snowflake's
  * transaction engine".
  *
  * Refresh actions (§3.3.2/§5.4):
  *   - NO_DATA      — sources unchanged (decided from version *metadata*,
  *                    no compute); only the data timestamp advances.
  *   - FULL         — INSERT OVERWRITE of the defining query at the new
  *                    data timestamp.
  *   - INCREMENTAL  — differentiate the defining query over the interval
  *                    and merge the change set into the stored contents.
  *   - REINITIALIZE — full recompute forced by an upstream replacement
  *                    (lineage-epoch change) that invalidated stored state.
  *
  * Production validations (§6.1) enforced here:
  *   1. an upstream DT version must exist at *exactly* the refresh
  *      timestamp, else the refresh fails (snapshot-isolation guard);
  *   2. a change set never has >1 row per ($ROW_ID, $ACTION);
  *   3. a merge must never delete a row that is not present (a guard
  *      inside the plan the merge's checkpoint job runs anyway).
  *
  * Every version is built and committed by the transaction manager: a
  * refresh hands it plain rows to overwrite (initialization, FULL,
  * REINITIALIZE) or a pinned change set to merge (INCREMENTAL).
  *
  * Retention: after every commit that moves a table or a frontier, the
  * engine drops the versions no DT can read any more (see [[retain]]), so
  * the version store is bounded by the slowest reader, not by the run.
  */
final class Engine(val spark: SparkSession, val clock: Clock) {
  val tm = new TransactionManager(clock)
  private val dts = mutable.LinkedHashMap.empty[String, DtState]

  def isDt(name: String): Boolean = dts.contains(name)
  def dtState(name: String): DtState =
    dts.getOrElse(name, throw new NoSuchElementException(s"unknown dynamic table $name"))
  def graph: DtGraph = DtGraph.fromSpecs(dts.values.map(_.spec).toSeq)

  // ---- base-table DDL/DML (delegated to the transaction manager) ----
  def createBaseTable(name: String, contents: DataFrame): Unit = { tm.createBaseTable(name, contents); () }
  def dml(name: String, inserts: DataFrame, deletes: DataFrame): Unit = {
    tm.dml(baseTable(name), inserts, deletes); retain(name)
  }
  def insert(name: String, rows: DataFrame): Unit = dml(name, rows, rows.where(lit(false)))
  def replaceBaseTable(name: String, contents: DataFrame): Unit = {
    tm.replaceBaseTable(baseTable(name), contents); retain(name)
  }

  /** `name`, which must not be a DT: only its refreshes write a DT, and a
    * version committed behind its frontier would corrupt the next merge.
    */
  private def baseTable(name: String): String = {
    require(!isDt(name), s"$name is a dynamic table: only its refreshes write it")
    name
  }

  // ---- reads ----
  /** Latest persisted contents (what a user query reads; §4's PL-2 path
    * when combined with other tables).
    */
  def read(name: String): DataFrame = {
    if (isDt(name))
      require(dtState(name).isInitialized, s"dynamic table $name has not been initialized (§3.1)")
    tm.table(name).latest.rows
  }

  /** Contents at exactly data timestamp `ts` (DT time travel). A DT keeps
    * its versions for at least its resolved target lag (see [[retain]]).
    */
  def readAt(name: String, ts: Long): DataFrame = {
    val vt = tm.table(name)
    val v = vt.versionAtExactly(ts).getOrElse(throw new NoSuchElementException(
      vt.earliestDataTs.filter(ts < _) match {
        case Some(earliest) =>
          s"$name: data timestamp $ts is outside retention; the earliest retained data timestamp is $earliest"
        case None => s"$name has no version at data timestamp $ts"
      }))
    v.rows
  }

  /** The DT's current data timestamp (§3.1.1). */
  def dataTimestamp(name: String): Long =
    dtState(name).frontier.getOrElse(throw new IllegalStateException(s"$name not initialized")).dataTs

  // ---- DT DDL ----
  /** Create a dynamic table; with `sync = true` also initialize it now
    * (§3.1: initialization can be synchronous or deferred to the
    * scheduler). A synchronous create whose initialization fails is undone
    * and rethrows, like Snowflake's `INITIALIZE = ON_CREATE`; upstream DTs
    * it already refreshed keep their new versions.
    */
  def createDynamicTable(spec: DtSpec, sync: Boolean = true): Unit = {
    spec.query.sources.foreach { s =>
      require(tm.contains(s), s"source $s of ${spec.name} does not exist")
    }
    tm.register(spec.name)
    dts(spec.name) = new DtState(spec)
    graph.topoOrder // validates acyclicity eagerly
    if (sync)
      try initialize(spec.name)
      catch { case e: Throwable => dropDynamicTable(spec.name); throw e }
  }

  /** Drop a DT; its sources release the versions only it still read. */
  def dropDynamicTable(name: String): Unit = {
    val sources = dtState(name).spec.query.sources
    dts.remove(name)
    tm.drop(name)
    sources.foreach(retain)
  }

  def suspend(name: String): Unit = dtState(name).suspended = true
  def resume(name: String): Unit = {
    val st = dtState(name); st.suspended = false; st.consecutiveFailures = 0
  }

  /** Initialization-timestamp selection (§3.1.2): reuse the most recent
    * data timestamp shared by all upstream DTs that is still within the
    * target lag — avoiding the quadratic re-refresh of upstream chains —
    * else fall back to creation time, refreshing the upstream closure at
    * that timestamp like a manual refresh. The chosen timestamp may be
    * *before* creation time; the paper calls this a small sacrifice for
    * clean semantics. Only data timestamps at which every source still
    * resolves a version qualify (see [[retain]]).
    */
  def initialize(name: String): RefreshResult = {
    val st = dtState(name)
    require(!st.isInitialized, s"$name is already initialized")
    val g = graph
    val upDts = g.upstream(name)
    val lagOpt = g.resolvedLag(name)
    val now = clock.nowSeconds
    val candidate: Option[Long] =
      if (upDts.isEmpty) None
      else {
        val common = upDts.map(u => tm.table(u).allDataTimestamps.toSet).reduceLeft(_ intersect _)
        val retained = st.spec.query.sources.flatMap(s => tm.table(s).earliestDataTs).maxOption.getOrElse(Long.MinValue)
        val within = common.filter(t => t >= retained && lagOpt.forall(lag => now - t <= lag))
        if (within.isEmpty) None else Some(within.max)
      }
    val initTs = candidate.getOrElse {
      val floor = (upDts.map(u => dataTimestamp(u)) :+ (now - 1)).max
      val ts = math.max(now, floor + 1)
      catchUpUpstream(g, name, ts)
      ts
    }
    runInitialization(name, initTs)
  }

  /** Refresh every DT in `name`'s upstream closure that is behind `ts`, in
    * topological order. Throws on the first failure: a command on `name`
    * fails when its upstream cannot reach `ts`.
    */
  private def catchUpUpstream(g: DtGraph, name: String, ts: Long): Unit =
    g.upstreamClosure(name).foreach(u => if (dataTimestamp(u) < ts) refresh(u, ts))

  private def runInitialization(name: String, initTs: Long): RefreshResult = tm.withLock(name) {
    val st = dtState(name)
    val srcs = st.spec.query.sources.toSeq.sorted
    val resolved = srcs.map(s => s -> resolveVersion(s, initTs)).toMap
    val committed = tm.overwrite(name, initTs, Eval.snapshot(st.spec.query, resolved(_).rows), lineageEpoch = 0L)
    st.frontier = Some(Frontier(initTs, resolved.map { case (s, v) => s -> v.lineageEpoch }))
    retainAround(st)
    RefreshResult(name, FullRefresh, initTs, committed.deltaRows)
  }

  /** Resolve the version of source `s` visible at data timestamp `ts`:
    * exact for upstream DTs (validation #1), floor for base tables (§5.3).
    */
  private def resolveVersion(s: String, ts: Long): TableVersion =
    if (isDt(s))
      tm.table(s).versionAtExactly(ts).getOrElse(
        throw new IllegalStateException(
          s"snapshot-isolation violation: upstream DT $s has no version at exactly $ts (§6.1 validation)"))
    else
      tm.table(s).versionAtOrBefore(ts).getOrElse(
        throw new IllegalStateException(s"base table $s has no version at or before $ts"))

  /** Refresh `name` to data timestamp `refreshTs` (> current). Errors
    * increment the consecutive-failure counter; at
    * [[DtState.FailureThreshold]] the DT auto-suspends (§3.3.3).
    */
  def refresh(name: String, refreshTs: Long): RefreshResult = {
    val st = dtState(name)
    require(!st.suspended, s"$name is suspended after ${st.consecutiveFailures} consecutive failures")
    try {
      val r = tm.withLock(name)(doRefresh(st, refreshTs))
      st.consecutiveFailures = 0
      r
    } catch {
      case e: Throwable =>
        st.consecutiveFailures += 1
        if (st.consecutiveFailures >= DtState.FailureThreshold) st.suspended = true
        throw e
    }
  }

  private def doRefresh(st: DtState, refreshTs: Long): RefreshResult = {
    val name = st.spec.name
    val fr = st.frontier.getOrElse(throw new IllegalStateException(s"$name not initialized"))
    require(refreshTs > fr.dataTs, s"$name: refresh timestamp $refreshTs must advance past ${fr.dataTs}")
    val srcs = st.spec.query.sources.toSeq.sorted
    val newV = srcs.map(s => s -> resolveVersion(s, refreshTs)).toMap
    val oldV = srcs.map(s => s -> resolveVersion(s, fr.dataTs)).toMap
    val epochChanged = srcs.exists(s => fr.epochs.get(s).exists(_ != newV(s).lineageEpoch))
    val changed = srcs.map(s => s -> tm.table(s).changedRowsBetween(fr.dataTs, refreshTs)).toMap
    val vt = tm.table(name)
    val newEpochs = newV.map { case (s, v) => s -> v.lineageEpoch }

    def advance(): Unit = { st.frontier = Some(fr.advance(refreshTs, newEpochs)); retainAround(st) }

    if (changed.values.sum == 0L && !epochChanged) {
      // NO_DATA: metadata-only commit — zero warehouse compute (§5.4).
      vt.alias(refreshTs)
      advance()
      RefreshResult(name, NoData, refreshTs, 0L)
    } else {
      val action: RefreshAction = st.spec.refreshMode match {
        case FullMode                        => FullRefresh
        case IncrementalMode if epochChanged => Reinitialize
        case IncrementalMode                 => IncrementalRefresh
      }
      val v = action match {
        case IncrementalRefresh =>
          val bind: String => SourceState = s => SourceState(
            old = oldV(s).rows,
            neu = newV(s).rows,
            delta = tm.table(s).deltaBetween(fr.dataTs, refreshTs)
              .getOrElse(newV(s).snapshot.where(lit(false))),
            changedRows = changed(s),
          )
          val d = pin(Differentiator.delta(st.spec.query, bind))
          val dupes = ChangeSet.duplicateActionPairs(ChangeSet.fromWeighted(d.df))
          require(dupes.isEmpty,
            s"$name: change set has ${dupes.size} duplicate ($$ROW_ID, $$ACTION) pair(s), " +
              s"e.g. ${dupes.head} (§6.1 validation)")
          tm.applyDelta(name, refreshTs, d,
            s"$name: refresh deletes row group(s) not present in the DT (§6.1 validation)")
        case _ => // FULL or REINITIALIZE: recompute from the new snapshots; the
          // stored delta keeps downstream incremental DTs working.
          tm.overwrite(name, refreshTs, Eval.snapshot(st.spec.query, newV(_).rows), vt.latest.lineageEpoch)
      }
      advance()
      RefreshResult(name, action, refreshTs, v.deltaRows)
    }
  }

  /** Retention of a DT and its sources after the DT committed or moved its
    * frontier.
    */
  private def retainAround(st: DtState): Unit = (st.spec.query.sources + st.spec.name).foreach(retain)

  /** Drop the versions of `table` older than its retention floor
    * ([[repro.txn.VersionedTable.retainFrom]]). The floor is the minimum of
    *   - the frontier data timestamp of every initialized DT that reads it,
    *     suspended and failing DTs included, since they resume from there;
    *   - for a DT, its own data timestamp and now minus its resolved target
    *     lag, so time travel covers the window its lag promises readers;
    *   - for a base table, its latest version.
    * A DT reads a source only over `(frontier, refresh ts]`, so nothing
    * before the floor is read again: this is trace compaction to a
    * frontier (Differential Dataflow). Metadata only: no Spark job.
    */
  private def retain(table: String): Unit = {
    val vt = tm.table(table)
    if (vt.isInitialized) {
      val readers = dts.values.filter(_.spec.query.sources.contains(table)).flatMap(_.frontier).map(_.dataTs)
      val own =
        if (isDt(table)) dataTimestamp(table) +: graph.resolvedLag(table).map(clock.nowSeconds - _).toSeq
        else Seq(vt.latest.dataTs)
      vt.retainFrom((readers ++ own).min)
    }
  }

  /** Manual refresh (§3.1.2): choose a data timestamp after the command
    * was issued and refresh the whole upstream closure at it, then `name`.
    */
  def refreshManual(name: String): RefreshResult = {
    val g = graph
    val floor = (g.upstreamClosure(name) :+ name).map(dataTimestamp).max
    val ts = math.max(clock.nowSeconds, floor + 1)
    catchUpUpstream(g, name, ts)
    refresh(name, ts)
  }
}
