package repro.txn

import org.apache.spark.sql.DataFrame
import repro.core.Weighted
import scala.collection.mutable

/** One committed version of a table (§5.3).
  *
  * @param commitTs     HLC commit timestamp of the creating transaction.
  * @param dataTs       the data timestamp (seconds): for base tables the
  *                     physical commit time; for DTs the refresh timestamp.
  *                     This is the paper's refresh-ts→commit-ts mapping,
  *                     stored inline.
  * @param snapshot     weighted, consolidated contents at this version.
  * @param delta        weighted, consolidated change from the previous
  *                     version.
  * @param deltaRows    change-row count — *metadata*, so NO_DATA detection
  *                     (§5.4) costs no warehouse compute.
  * @param lineageEpoch bumped when the table is replaced wholesale; a
  *                     downstream DT observing a new epoch must REINITIALIZE.
  */
final case class TableVersion(
    commitTs: Hlc.Timestamp,
    dataTs: Long,
    snapshot: DataFrame,
    delta: DataFrame,
    deltaRows: Long,
    lineageEpoch: Long,
) {

  /** The plain rows of this version: the snapshot expanded by weight. */
  def rows: DataFrame = Weighted.expand(snapshot)
}

/** A table with time travel: an ordered list of [[TableVersion]]s plus an
  * exact data-timestamp index.
  *
  * Base tables are resolved *as of* a refresh timestamp by floor lookup
  * (largest commit ≤ t). Dynamic tables must be resolved at the *exact*
  * refresh timestamp of the downstream refresh — §6.1's first production
  * validation — so NO_DATA refreshes register alias entries mapping a new
  * data timestamp onto the existing version.
  */
final class VersionedTable(val name: String) {
  private val versions = mutable.ArrayBuffer.empty[TableVersion]
  private val byDataTs = mutable.TreeMap.empty[Long, TableVersion]

  def commit(v: TableVersion): Unit = synchronized {
    require(versions.isEmpty || v.commitTs > versions.last.commitTs,
      s"$name: non-monotone commit ${v.commitTs} after ${versions.last.commitTs}")
    require(!byDataTs.contains(v.dataTs),
      s"$name: duplicate data timestamp ${v.dataTs}")
    versions += v
    byDataTs(v.dataTs) = v
  }

  /** Register `dataTs` as an alias of the latest version (NO_DATA refresh:
    * advances the data timestamp without a new table version).
    */
  def alias(dataTs: Long): Unit = synchronized {
    require(versions.nonEmpty, s"$name: cannot alias an empty table")
    require(!byDataTs.contains(dataTs), s"$name: duplicate data timestamp $dataTs")
    byDataTs(dataTs) = versions.last
  }

  def latest: TableVersion = synchronized {
    require(versions.nonEmpty, s"$name has no versions")
    versions.last
  }

  def isInitialized: Boolean = synchronized(versions.nonEmpty)

  /** Floor resolution: version with the largest data timestamp ≤ `t`
    * (base-table reads as of a refresh timestamp).
    */
  def versionAtOrBefore(t: Long): Option[TableVersion] = synchronized {
    byDataTs.rangeTo(t).lastOption.map(_._2)
  }

  /** Exact resolution (upstream-DT reads). `None` means the scheduler
    * violated snapshot isolation — callers must fail the refresh (§6.1).
    */
  def versionAtExactly(t: Long): Option[TableVersion] = synchronized {
    byDataTs.get(t)
  }

  /** All real (non-alias) versions with dataTs in the half-open interval
    * `(t0, t1]`, in commit order.
    */
  def versionsBetween(t0: Long, t1: Long): Seq[TableVersion] = synchronized {
    versions.toSeq.filter(v => v.dataTs > t0 && v.dataTs <= t1)
  }

  /** Total change-row count over `(t0, t1]` from metadata alone. */
  def changedRowsBetween(t0: Long, t1: Long): Long =
    versionsBetween(t0, t1).map(_.deltaRows).sum

  /** Concatenated, consolidated weighted delta over `(t0, t1]`. A single
    * version's stored delta is returned as it is: every stored delta is
    * already consolidated, and consolidating it again is a shuffle that
    * changes nothing.
    */
  def deltaBetween(t0: Long, t1: Long): Option[DataFrame] =
    versionsBetween(t0, t1) match {
      case Seq()  => None
      case Seq(v) => Some(v.delta)
      case vs     => Some(Weighted.consolidate(Weighted.union(vs.map(_.delta))))
    }

  /** Drop what no read at or after data timestamp `floor` resolves: every
    * version older than the one that resolves `floor` (as
    * [[versionAtOrBefore]] does), and every data-timestamp entry before the
    * entry that resolves it. Floor and exact lookups at `floor` or later,
    * and intervals that start there, are unchanged; a floor before the
    * first entry drops nothing.
    *
    * Metadata only: no Spark job, and no `unpersist`, because a caller may
    * still hold a DataFrame over a dropped version. Spark's ContextCleaner
    * frees a dropped version's blocks once nothing refers to them.
    */
  def retainFrom(floor: Long): Unit = synchronized {
    byDataTs.rangeTo(floor).lastOption.foreach { case (ts, v) =>
      byDataTs --= byDataTs.rangeUntil(ts).keys.toList
      versions.remove(0, versions.indexWhere(_ eq v))
    }
  }

  /** The earliest data timestamp a lookup can still resolve (see
    * [[retainFrom]]); `None` before the first commit.
    */
  def earliestDataTs: Option[Long] = synchronized(byDataTs.headOption.map(_._1))

  def allDataTimestamps: Seq[Long] = synchronized(byDataTs.keys.toSeq)
  def versionCount: Int = synchronized(versions.size)
}
