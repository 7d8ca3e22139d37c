package repro.txn

import org.apache.spark.sql.DataFrame
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

  /** Insert/delete DML on a base table; commits one new version.
    * Deleting rows that are not present fails the transaction.
    */
  def dml(name: String, inserts: DataFrame, deletes: DataFrame): TableVersion = withLock(name) {
    val vt = table(name)
    // Pin the change set FIRST: caller-provided plans (e.g. a sampled
    // delete set) may be nondeterministic across evaluations, and the
    // snapshot and the delta must be derived from one consistent read.
    val d = pin(Weighted.consolidate(
      Weighted.fromSnapshot(inserts).unionByName(Weighted.negate(Weighted.fromSnapshot(deletes)))
    ))
    applyDelta(name, nextDataTs(vt), d, s"$name: DML deletes row group(s) not present in the table")
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
      if (vt.isInitialized) pin(Weighted.consolidate(snap.unionByName(Weighted.negate(vt.latest.snapshot))))
      else snap
    commit(vt, dataTs, snap, delta, lineageEpoch)
  }

  /** Merge the [[pin]]ned weighted `delta` into the contents of `name` and
    * commit the result at `dataTs`. A merge that leaves a negative weight
    * deletes a row that is not present (§6.1) and fails with
    * `IllegalArgumentException(message)`; the check runs inside the
    * checkpoint job, not as a query over its result.
    */
  def applyDelta(name: String, dataTs: => Long, delta: DataFrame, message: => String): TableVersion = {
    val vt = table(name)
    val prev = vt.latest
    val snap =
      try pin(Weighted.nonNegative(Weighted.consolidate(prev.snapshot.unionByName(delta))))
      catch {
        case e: Exception if Weighted.isNegativeWeightFailure(e) => throw new IllegalArgumentException(message, e)
      }
    commit(vt, dataTs, snap, delta, prev.lineageEpoch)
  }

  /** Count the delta's rows in one Spark job over its pinned blocks
    * (`Dataset.count` plans a global aggregate: two jobs under adaptive
    * query execution), stamp the HLC and append the version. `dataTs` is
    * evaluated here, after the pins, so a base table's [[nextDataTs]] is
    * taken in the second it commits.
    */
  private def commit(vt: VersionedTable, dataTs: => Long, snapshot: DataFrame, delta: DataFrame,
      lineageEpoch: Long): TableVersion = {
    val deltaRows = delta.queryExecution.toRdd.count()
    val v = TableVersion(hlc.now(), dataTs, snapshot, delta, deltaRows, lineageEpoch)
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

object TransactionManager {

  /** Pin `df` with an eager `localCheckpoint`: one execution of its plan
    * writes the blocks that every later read of the version uses. Eager on
    * purpose: a lazy checkpoint followed by a separate action computes the
    * plan again and keeps more blocks.
    */
  def pin(df: DataFrame): DataFrame = df.localCheckpoint(true)
}
