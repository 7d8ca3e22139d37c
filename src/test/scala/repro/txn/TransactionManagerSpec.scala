package repro.txn

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import repro.ReproSpec
import repro.core.{ChangeSet, Weighted}
import repro.sched.SimClock

/** Transaction manager: DML versions, delete guard, replace epochs. */
class TransactionManagerSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private def mk(): (TransactionManager, SimClock) = {
    val clock = new SimClock(100)
    (new TransactionManager(clock), clock)
  }

  test("createBaseTable commits version 1 with full-contents delta") {
    val (tm, _) = mk()
    val v = tm.createBaseTable("t", Seq(("a", 1), ("b", 2)).toDF("k", "v"))
    assert(v.deltaRows == 2 && v.lineageEpoch == 0)
    assert(tm.table("t").versionCount == 1)
  }

  test("duplicate table creation is rejected") {
    val (tm, _) = mk()
    tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v"))
    intercept[IllegalArgumentException](tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v")))
  }

  test("a create whose contents fail to evaluate leaves no table behind") {
    val (tm, _) = mk()
    val ansi = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", "true")
    try intercept[Exception](tm.createBaseTable("t", Seq(("a", 0)).toDF("k", "v").selectExpr("k", "1 / v AS v")))
    finally spark.conf.set("spark.sql.ansi.enabled", ansi)
    assert(!tm.contains("t"))
    assert(tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v")).deltaRows == 1)
  }

  test("dml commits a consolidated delta and new snapshot") {
    val (tm, clock) = mk()
    tm.createBaseTable("t", Seq(("a", 1), ("b", 2)).toDF("k", "v"))
    clock.advance(10)
    val v = tm.dml("t", Seq(("c", 3)).toDF("k", "v"), Seq(("a", 1)).toDF("k", "v"))
    assert(v.deltaRows == 2) // one insert group + one delete group
    val snap = Weighted.expand(v.snapshot).collect().map(_.getString(0)).sorted.toSeq
    assert(snap == Seq("b", "c"))
  }

  test("deleting a row that is not present fails the transaction") {
    val (tm, clock) = mk()
    tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v"))
    clock.advance(1)
    val ex = intercept[IllegalArgumentException](
      tm.dml("t", Seq.empty[(String, Int)].toDF("k", "v"), Seq(("zz", 9)).toDF("k", "v")))
    assert(ex.getMessage.contains("not present in the table"))
    assert(tm.table("t").versionCount == 1, "a failed DML commits nothing")
  }

  /** A table "t" holding `rows`, and a pinned, unconsolidated weighted delta. */
  private def withDelta(rows: (String, Int)*)(delta: (String, Int, Long)*): (TransactionManager, Pinned) = {
    val (tm, clock) = mk()
    tm.createBaseTable("t", rows.toDF("k", "v"))
    clock.advance(1)
    (tm, TransactionManager.pin(delta.toDF("k", "v", Weighted.W)))
  }

  private def rowIdOf(k: String, v: Int): String =
    Seq((k, v)).toDF("k", "v").select(ChangeSet.rowIdExpr(Seq("k", "v"))).head().getString(0)

  test("applyDelta fails a change set that inserts one tuple as two rows and commits nothing (§6.1 #2)") {
    val (tm, d) = withDelta(("a", 1))(("b", 2, 1L), ("b", 2, 1L), ("a", 1, -1L))
    val before = tm.table("t").latest
    val ex = intercept[IllegalArgumentException](tm.applyDelta("t", 200L, d, "unexpected"))
    assert(ex.getMessage.contains(s"t: change set has more than one row for ($$ROW_ID, $$ACTION) = (${rowIdOf("b", 2)}, INSERT)"),
      ex.getMessage)
    assert(ex.getMessage.contains("(§6.1 validation)"), ex.getMessage)
    assert(tm.table("t").versionCount == 1 && tm.table("t").latest == before, "a failed merge commits nothing")
  }

  test("applyDelta fails a change set that deletes one tuple twice, also when the merge nets it to 0 (§6.1 #2)") {
    val (tm, d) = withDelta(("a", 1), ("a", 1))(("a", 1, -1L), ("a", 1, -1L))
    val ex = intercept[IllegalArgumentException](tm.applyDelta("t", 200L, d, "unexpected"))
    assert(ex.getMessage.contains(s"(${rowIdOf("a", 1)}, DELETE)"), ex.getMessage)
    assert(tm.table("t").versionCount == 1)
  }

  test("applyDelta fails with the caller's message when a change set deletes a missing row (§6.1 #3)") {
    val (tm, d) = withDelta(("a", 1))(("b", 2, -1L))
    val ex = intercept[IllegalArgumentException](tm.applyDelta("t", 200L, d, "t: deletes a missing row"))
    assert(ex.getMessage == "t: deletes a missing row")
    assert(tm.table("t").versionCount == 1)
  }

  test("applyDelta accepts an insert and a delete of one tuple in the same change set") {
    val (tm, d) = withDelta(("a", 1))(("a", 1, 1L), ("a", 1, -1L), ("b", 2, 1L))
    val v = tm.applyDelta("t", 200L, d, "unexpected")
    assert(v.deltaRows == 3 && tm.table("t").versionCount == 2)
    assert(Weighted.expand(v.snapshot).collect().map(r => (r.getString(0), r.getInt(1))).sorted.toSeq ==
      Seq(("a", 1), ("b", 2)))
  }

  test("applyDelta merges a consolidated change set") {
    val (tm, d) = withDelta(("a", 1), ("a", 1), ("b", 2))(("a", 1, -1L), ("c", 3, 2L), ("b", 2, -1L))
    val v = tm.applyDelta("t", 200L, d, "unexpected")
    assert(v.deltaRows == 3)
    assert(Weighted.expand(v.snapshot).collect().map(r => (r.getString(0), r.getInt(1))).sorted.toSeq ==
      Seq(("a", 1), ("c", 3), ("c", 3)))
  }

  test("multiset semantics: inserting a duplicate row raises its multiplicity") {
    val (tm, clock) = mk()
    tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v"))
    clock.advance(1)
    tm.dml("t", Seq(("a", 1)).toDF("k", "v"), Seq.empty[(String, Int)].toDF("k", "v"))
    assert(Weighted.expand(tm.table("t").latest.snapshot).count() == 2)
    clock.advance(1)
    // deleting one instance leaves one
    tm.dml("t", Seq.empty[(String, Int)].toDF("k", "v"), Seq(("a", 1)).toDF("k", "v"))
    assert(Weighted.expand(tm.table("t").latest.snapshot).count() == 1)
  }

  test("replaceBaseTable bumps the lineage epoch (REINITIALIZE trigger)") {
    val (tm, clock) = mk()
    tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v"))
    clock.advance(1)
    val v = tm.replaceBaseTable("t", Seq(("z", 9)).toDF("k", "v"))
    assert(v.lineageEpoch == 1)
    assert(Weighted.expand(v.snapshot).collect().map(_.getString(0)).toSeq == Seq("z"))
  }

  test("commits get strictly increasing HLC timestamps and unique data timestamps") {
    val (tm, _) = mk() // clock frozen at 100
    tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v"))
    val v2 = tm.dml("t", Seq(("b", 2)).toDF("k", "v"), Seq.empty[(String, Int)].toDF("k", "v"))
    val v3 = tm.dml("t", Seq(("c", 3)).toDF("k", "v"), Seq.empty[(String, Int)].toDF("k", "v"))
    assert(v2.commitTs < v3.commitTs)
    assert(v2.dataTs < v3.dataTs, "same-second commits must still get distinct data timestamps")
  }

  test("withLock serializes access to one table") {
    val (tm, _) = mk()
    tm.createBaseTable("t", Seq(("a", 1)).toDF("k", "v"))
    var inside = 0
    var maxInside = 0
    val threads = (1 to 4).map(_ => new Thread(() => {
      tm.withLock("t") {
        inside += 1; maxInside = math.max(maxInside, inside)
        Thread.sleep(10)
        inside -= 1
      }
    }))
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(maxInside == 1)
  }

  test("pin returns the rows it pinned, counted by the job that pins them") {
    val df = Seq(("a", 1), ("a", 1), ("b", 2)).toDF("k", "v")
    assert(TransactionManager.pin(df).rows == 3)
    assert(TransactionManager.pin(df.where("false")).rows == 0)
    val pinned = TransactionManager.pin(df.where("v = 1"))
    assert(pinned.rows == 2 && pinned.df.count() == 2)
    assert(TransactionManager.pin(pinned.df.where("false")).rows == 0)
    intercept[Exception](TransactionManager.pin(df.selectExpr("k", "raise_error('boom') AS v")))
    assert(TransactionManager.pin(pinned.df.unionByName(df)).rows == 5)
  }

  test("pin does not wait for the listener bus: a stalled query listener does not stall a commit") {
    val release = new CountDownLatch(1)
    val stall = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        release.await(30, TimeUnit.SECONDS)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(stall)
    try {
      val (tm, _) = mk()
      val start = System.nanoTime()
      tm.createBaseTable("t", Seq(("a", 1), ("b", 2)).toDF("k", "v"))
      val v = tm.dml("t", Seq(("c", 3)).toDF("k", "v"), Seq(("a", 1)).toDF("k", "v"))
      val seconds = (System.nanoTime() - start) / 1e9
      assert(v.deltaRows == 2)
      assert(seconds < 15, s"create + DML took $seconds s behind a stalled listener")
    } finally {
      release.countDown()
      spark.listenerManager.unregister(stall)
    }
  }
}
