package repro.txn

import repro.ReproSpec
import repro.core.Weighted

/** Version store semantics (§5.3): floor vs exact resolution, aliases for
  * NO_DATA, interval deltas, metadata-only change counts, retention.
  */
class VersionedTableSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private def wdf(rows: (String, Long)*) = rows.toDF("k", Weighted.W)
  private def mkVersion(ts: Long, c: Int, rows: (String, Long)*) =
    TableVersion(Hlc.Timestamp(ts, c), ts, wdf(rows: _*), wdf(rows: _*), rows.size.toLong, 0L)

  private def table3: VersionedTable = {
    val vt = new VersionedTable("t")
    vt.commit(mkVersion(10, 0, "a" -> 1L))
    vt.commit(mkVersion(20, 0, "b" -> 1L))
    vt.commit(mkVersion(30, 0, "c" -> 1L))
    vt
  }

  test("commit enforces monotone commit timestamps") {
    val vt = table3
    intercept[IllegalArgumentException](vt.commit(mkVersion(5, 0, "x" -> 1L)))
  }

  test("duplicate data timestamps are rejected") {
    val vt = table3
    intercept[IllegalArgumentException](vt.commit(TableVersion(Hlc.Timestamp(40, 0), 30, wdf(), wdf(), 0, 0)))
  }

  test("versionAtOrBefore does floor resolution (base tables)") {
    val vt = table3
    assert(vt.versionAtOrBefore(25).map(_.dataTs) == Some(20L))
    assert(vt.versionAtOrBefore(30).map(_.dataTs) == Some(30L))
    assert(vt.versionAtOrBefore(9).isEmpty)
  }

  test("versionAtExactly requires an exact hit (upstream DTs, §6.1)") {
    val vt = table3
    assert(vt.versionAtExactly(20).isDefined)
    assert(vt.versionAtExactly(25).isEmpty)
  }

  test("alias maps a NO_DATA timestamp onto the latest version") {
    val vt = table3
    vt.alias(40)
    assert(vt.versionAtExactly(40).map(_.dataTs) == Some(30L))
    assert(vt.versionCount == 3, "alias must not create a version")
    intercept[IllegalArgumentException](vt.alias(40))
  }

  test("versionsBetween returns the half-open interval, skipping aliases") {
    val vt = table3
    vt.alias(35)
    assert(vt.versionsBetween(10, 30).map(_.dataTs) == Seq(20L, 30L))
    assert(vt.versionsBetween(0, 100).size == 3)
    assert(vt.versionsBetween(30, 40).isEmpty)
  }

  test("changedRowsBetween sums delta metadata without Spark jobs") {
    val vt = table3
    assert(vt.changedRowsBetween(10, 30) == 2L)
    assert(vt.changedRowsBetween(30, 99) == 0L)
  }

  test("deltaBetween concatenates and consolidates deltas") {
    val vt = new VersionedTable("t")
    vt.commit(mkVersion(10, 0, "a" -> 1L))
    vt.commit(mkVersion(20, 0, "x" -> 1L))
    vt.commit(TableVersion(Hlc.Timestamp(30, 0), 30, wdf("a" -> 1L), wdf("x" -> -1L), 1, 0))
    val d = vt.deltaBetween(10, 30)
    assert(d.isDefined && d.get.isEmpty, "insert then delete of x must cancel")
    assert(vt.deltaBetween(20, 20).isEmpty)
  }

  test("deltaBetween over one version returns that version's stored delta") {
    val vt = table3
    val stored = vt.versionAtExactly(20).get.delta
    assert(vt.deltaBetween(10, 20).exists(_ eq stored), "no second consolidation of a stored delta")
    assert(vt.deltaBetween(15, 25).exists(_ eq stored))
  }

  test("retainFrom a floor on an alias keeps that entry and the version it maps to") {
    val vt = table3
    vt.alias(35)
    vt.commit(mkVersion(40, 0, "d" -> 1L))
    vt.retainFrom(37)
    assert(vt.allDataTimestamps == Seq(35L, 40L))
    assert(vt.versionCount == 2)
    assert(vt.earliestDataTs == Some(35L))
    assert(vt.versionAtExactly(35).map(_.dataTs) == Some(30L))
    assert(vt.versionAtOrBefore(37).map(_.dataTs) == Some(30L))
    assert(vt.versionAtExactly(30).isEmpty && vt.versionAtOrBefore(34).isEmpty)
    assert(vt.versionsBetween(35, 40).map(_.dataTs) == Seq(40L))
  }

  test("retainFrom a base-table floor keeps the version that resolves it and all later ones") {
    val vt = table3
    vt.retainFrom(25)
    assert(vt.allDataTimestamps == Seq(20L, 30L))
    assert(vt.versionAtOrBefore(25).map(_.dataTs) == Some(20L))
    assert(vt.changedRowsBetween(25, 30) == 1L)
    vt.retainFrom(30) // the latest version
    assert(vt.versionCount == 1 && vt.latest.dataTs == 30L)
    assert(vt.versionAtOrBefore(100).map(_.dataTs) == Some(30L))
  }

  test("retainFrom a floor before the first version drops nothing") {
    val vt = table3
    vt.retainFrom(5)
    assert(vt.versionCount == 3)
    assert(vt.allDataTimestamps == Seq(10L, 20L, 30L))
    assert(vt.earliestDataTs == Some(10L))
  }
}
