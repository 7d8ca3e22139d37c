package repro.txn

import org.apache.spark.sql.DataFrame
import repro.core.Weighted
import repro.sched.Clock
import scala.collection.mutable

/** A minimal transaction engine over the versioned catalog (§5.3).
  *
  * Responsibilities mirrored from the paper: HLC-stamped, totally ordered
  * commits; per-table locks so a DT is never refreshed concurrently;
  * version creation for DML on base tables; and enforcement that a base
  * DML never deletes a row that is not present.
  *
  * Snapshots are weighted DataFrames that are `localCheckpoint`ed on
  * commit, both to cut lineage across many versions and to make the
  * version immutable w.r.t. later source mutation.
  */
final class TransactionManager(clock: Clock) {
  import TransactionManager.{pin, pinNonNegative, pinnedRows}

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

  /** Register a table whose versions are managed externally (DTs). */
  def register(name: String): VersionedTable = synchronized {
    require(!catalog.contains(name), s"table $name already exists")
    val vt = new VersionedTable(name)
    catalog(name) = vt
    vt
  }

  def drop(name: String): Unit = synchronized {
    catalog.remove(name).getOrElse(throw new NoSuchElementException(s"unknown table $name"))
  }

  /** Create a base table with plain-rows `initial` contents. */
  def createBaseTable(name: String, initial: DataFrame): TableVersion = withLock(name) {
    val vt = synchronized {
      require(!catalog.contains(name), s"table $name already exists")
      val t = new VersionedTable(name); catalog(name) = t; t
    }
    val snap = pin(Weighted.consolidate(Weighted.fromSnapshot(initial)))
    val v = TableVersion(hlc.now(), clock.nowSeconds, snap, snap, pinnedRows(snap), lineageEpoch = 0L)
    vt.commit(v)
    v
  }

  /** Insert/delete DML on a base table; commits one new version.
    * Deleting rows that are not present fails the transaction.
    */
  def dml(name: String, inserts: DataFrame, deletes: DataFrame): TableVersion = withLock(name) {
    val vt = table(name)
    val prev = vt.latest
    // Pin the change set FIRST: caller-provided plans (e.g. a sampled
    // delete set) may be nondeterministic across evaluations, and the
    // snapshot and the delta must be derived from one consistent read.
    val d = pin(Weighted.consolidate(
      Weighted.fromSnapshot(inserts).unionByName(Weighted.negate(Weighted.fromSnapshot(deletes)))
    ))
    val snap = pinNonNegative(Weighted.consolidate(prev.snapshot.unionByName(d)),
      s"$name: DML deletes row group(s) not present in the table")
    val v = TableVersion(hlc.now(), nextDataTs(vt), snap, d, pinnedRows(d), prev.lineageEpoch)
    vt.commit(v)
    v
  }

  /** Replace a base table wholesale (CREATE OR REPLACE). Bumps the lineage
    * epoch: incrementally maintained results downstream are invalidated and
    * the next refresh must REINITIALIZE (§3.3.2, §5.4).
    */
  def replaceBaseTable(name: String, contents: DataFrame): TableVersion = withLock(name) {
    val vt = table(name)
    val prev = vt.latest
    val snap = pin(Weighted.consolidate(Weighted.fromSnapshot(contents)))
    val delta = pin(Weighted.consolidate(snap.unionByName(Weighted.negate(prev.snapshot))))
    val v = TableVersion(hlc.now(), nextDataTs(vt), snap, delta, pinnedRows(delta), prev.lineageEpoch + 1)
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

  /** [[pin]] a merge result, failing with `IllegalArgumentException(message)`
    * if a weight is negative: a delete of a row that is not present (§6.1).
    * The check runs inside the checkpoint job, not as a query over its result.
    */
  def pinNonNegative(merged: DataFrame, message: => String): DataFrame =
    try pin(Weighted.nonNegative(merged))
    catch { case e: Exception if Weighted.isNegativeWeightFailure(e) => throw new IllegalArgumentException(message, e) }

  /** Row count of a [[pin]]ned DataFrame in one Spark job over its blocks.
    * (`Dataset.count` plans a global aggregate: two jobs under adaptive
    * query execution.)
    */
  def pinnedRows(pinned: DataFrame): Long = pinned.queryExecution.toRdd.count()
}
