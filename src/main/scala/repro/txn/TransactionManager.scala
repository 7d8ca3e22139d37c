package repro.txn

import java.util.UUID
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{count, lit}
import repro.core.Weighted
import repro.sched.Clock
import scala.collection.mutable

/** A minimal transaction engine over the versioned catalog (§5.3).
  *
  * Responsibilities mirrored from the paper: HLC-stamped, totally ordered
  * commits; per-table locks so a DT is never refreshed concurrently; and
  * the one commit path of every table version. A base-table create, DML or
  * replace and a DT refresh all end in [[overwrite]] (INSERT OVERWRITE) or
  * [[applyDelta]] (merge of a change set, which never deletes a row that is
  * not present, §6.1); both commit through one private `commit`. Their
  * callers hold the table's [[withLock]].
  *
  * Snapshots are weighted DataFrames that are `localCheckpoint`ed on
  * commit, both to cut lineage across many versions and to make the
  * version immutable w.r.t. later source mutation.
  */
final class TransactionManager(clock: Clock) {
  import TransactionManager.pin

  val hlc = new HlcClock(() => clock.nowSeconds)
  private val catalog = mutable.LinkedHashMap.empty[String, VersionedTable]
  private val locks = mutable.Map.empty[String, Object]

  def table(name: String): VersionedTable =
    catalog.getOrElse(name, throw new NoSuchElementException(s"unknown table $name"))

  def contains(name: String): Boolean = synchronized(catalog.contains(name))

  private def lockFor(name: String): Object = synchronized(locks.getOrElseUpdate(name, new Object))

  /** Run `body` holding the table's refresh/DML lock (§5.3: "each Dynamic
    * Table is locked when a refresh operation begins").
    */
  def withLock[A](name: String)(body: => A): A = lockFor(name).synchronized(body)

  /** Register a table with no versions yet; its first version is an
    * [[overwrite]] (a DT's at initialization).
    */
  def register(name: String): Unit = synchronized {
    require(!catalog.contains(name), s"table $name already exists")
    catalog(name) = new VersionedTable(name)
  }

  def drop(name: String): Unit = synchronized {
    catalog.remove(name).getOrElse(throw new NoSuchElementException(s"unknown table $name"))
  }

  /** Create a base table with plain-rows `initial` contents. A create
    * whose contents fail to evaluate leaves no table behind.
    */
  def createBaseTable(name: String, initial: DataFrame): TableVersion = withLock(name) {
    register(name)
    try overwrite(name, clock.nowSeconds, initial, lineageEpoch = 0L)
    catch { case e: Throwable => drop(name); throw e }
  }

  /** Insert/delete DML on a base table; commits one new version and
    * returns it. A DML whose change set is empty (no rows, or inserts and
    * deletes that cancel) changes no row: it commits nothing and returns
    * the latest version. Deleting rows that are not present fails the
    * transaction.
    */
  def dml(name: String, inserts: DataFrame, deletes: DataFrame): TableVersion = withLock(name) {
    val vt = table(name)
    // Pin the change set FIRST: caller-provided plans (e.g. a sampled
    // delete set, or a streaming micro-batch valid only inside its
    // callback) may not be evaluated again, and the snapshot and the delta
    // must be derived from one consistent read.
    val d = pin(Weighted.consolidate(
      Weighted.fromSnapshot(inserts).unionByName(Weighted.negate(Weighted.fromSnapshot(deletes)))
    ))
    if (d.rows == 0L) vt.latest
    else applyDelta(name, nextDataTs(vt), d, s"$name: DML deletes row group(s) not present in the table")
  }

  /** Replace a base table wholesale (CREATE OR REPLACE). Bumps the lineage
    * epoch: incrementally maintained results downstream are invalidated and
    * the next refresh must REINITIALIZE (§3.3.2, §5.4).
    */
  def replaceBaseTable(name: String, contents: DataFrame): TableVersion = withLock(name) {
    val vt = table(name)
    overwrite(name, nextDataTs(vt), contents, vt.latest.lineageEpoch + 1)
  }

  /** INSERT OVERWRITE: commit plain `rows` as the contents of `name` at
    * `dataTs`. The stored delta is the change from the previous version; a
    * first version's delta is its snapshot, at no extra job.
    */
  def overwrite(name: String, dataTs: => Long, rows: DataFrame, lineageEpoch: Long): TableVersion = {
    val vt = table(name)
    val snap = pin(Weighted.consolidate(Weighted.fromSnapshot(rows)))
    val delta =
      if (vt.isInitialized) pin(Weighted.consolidate(snap.df.unionByName(Weighted.negate(vt.latest.snapshot))))
      else snap
    commit(vt, dataTs, snap.df, delta, lineageEpoch)
  }

  /** Merge the weighted change set `delta` into the contents of `name` and
    * commit the result at `dataTs`. A merge that leaves a negative weight
    * deletes a row that is not present (§6.1) and fails with
    * `IllegalArgumentException(message)`; the check runs inside the
    * checkpoint job, not as a query over its result.
    */
  def applyDelta(name: String, dataTs: => Long, delta: Pinned, message: => String): TableVersion = {
    val vt = table(name)
    val prev = vt.latest
    val snap =
      try pin(Weighted.nonNegative(Weighted.consolidate(prev.snapshot.unionByName(delta.df))))
      catch {
        case e: Exception if Weighted.isNegativeWeightFailure(e) => throw new IllegalArgumentException(message, e)
      }
    commit(vt, dataTs, snap.df, delta, prev.lineageEpoch)
  }

  /** Stamp the HLC and append the version; its `deltaRows` is the count
    * the delta's pin took, so committing runs no Spark job. `dataTs` is
    * evaluated here, after the pins, so a base table's [[nextDataTs]] is
    * taken in the second it commits.
    */
  private def commit(vt: VersionedTable, dataTs: => Long, snapshot: DataFrame, delta: Pinned,
      lineageEpoch: Long): TableVersion = {
    val v = TableVersion(hlc.now(), dataTs, snapshot, delta.df, delta.rows, lineageEpoch)
    vt.commit(v)
    v
  }

  /** Data timestamps must be unique per table and *strictly after* the
    * current second: a refresh that already ran at data timestamp `now`
    * resolved versions at-or-before `now`, so a commit landing at `now`
    * afterwards would be silently skipped by the next refresh interval
    * `(now, t]`. (Real Snowflake uses the HLC total order; strict
    * seconds-granularity advancement suffices for the reproduction.)
    */
  private def nextDataTs(vt: VersionedTable): Long =
    math.max(clock.nowSeconds + 1, vt.latest.dataTs + 1)
}

/** A DataFrame pinned by [[TransactionManager.pin]] and its row count. */
final case class Pinned(df: DataFrame, rows: Long)

object TransactionManager {

  /** Pin `df` with an eager `localCheckpoint`: one execution of its plan
    * writes the blocks that every later read of the version uses, and an
    * observed metric of that same job counts the rows. Eager on purpose: a
    * lazy checkpoint followed by a separate action computes the plan again
    * and keeps more blocks.
    *
    * The count is read from the query execution that ran the checkpoint,
    * whose accumulators are merged before the job returns. An
    * `Observation` would hand it over on the asynchronous listener bus, so
    * the commit would wait for the bus, and for ever if the event were
    * dropped.
    */
  def pin(df: DataFrame): Pinned = {
    val name = s"pin_${UUID.randomUUID}"
    val observed = df.observe(name, count(lit(1)).as("rows"))
    val pinned = observed.localCheckpoint(true)
    val metrics = observed.queryExecution.observedMetrics
      .getOrElse(name, throw new IllegalStateException(s"pin job reported no row count ($name)"))
    Pinned(pinned, metrics.getLong(0))
  }
}
