package repro.core

import org.apache.spark.sql.DataFrame
import repro.ReproSpec
import repro.sched.EngineScheduler

/** End-to-end engine behaviour: refresh actions, DVS, initialization
  * timestamp selection, error handling, time travel (§3, §5).
  */
class EngineSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private def kv(rows: (Int, String, Double)*): DataFrame = rows.toDF("k", "cat", "v")

  private val aggQuery =
    Aggregate(Scan("events"), Seq("cat"), Seq("n" -> "count(1)", "s" -> "sum(v)"))

  test("create + initialize computes the defining query (DVS at init)") {
    val (e, _) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    assertSameRows(e.read("agg"), Eval.snapshot(aggQuery, _ => e.read("events")))
  }

  test("querying an uninitialized DT is an error (§3.1)") {
    val (e, _) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)), sync = false)
    intercept[IllegalArgumentException](e.read("agg"))
  }

  test("NO_DATA refresh advances the data timestamp with no new version (§3.3.2)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    val versionsBefore = e.tm.table("agg").versionCount
    clock.advance(100)
    val r = e.refresh("agg", clock.nowSeconds)
    assert(r.action == NoData && r.changedRows == 0)
    assert(e.tm.table("agg").versionCount == versionsBefore)
    assert(e.dataTimestamp("agg") == clock.nowSeconds)
  }

  test("incremental refresh merges changes and matches recompute (DVS property §6.1)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    clock.advance(10)
    e.dml("events", kv((3, "a", 5.0), (4, "c", 7.0)), kv((2, "b", 2.0)))
    clock.advance(10)
    val r = e.refresh("agg", clock.nowSeconds)
    assert(r.action == IncrementalRefresh)
    assertSameRows(e.read("agg"), Eval.snapshot(aggQuery, _ => e.read("events")))
  }

  test("FULL mode recomputes from scratch and still matches") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    val scalar = Aggregate(Scan("events"), Nil, Seq("total" -> "sum(v)", "n" -> "count(1)"))
    e.createDynamicTable(DtSpec("tot", scalar, LagSeconds(600), FullMode))
    clock.advance(5)
    e.insert("events", kv((2, "b", 3.5)))
    clock.advance(5)
    val r = e.refresh("tot", clock.nowSeconds)
    assert(r.action == FullRefresh)
    assert(e.read("tot").collect().head.getDouble(0) == 4.5)
  }

  test("upstream replace forces REINITIALIZE of incremental DTs (§5.4)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    clock.advance(5)
    e.replaceBaseTable("events", kv((9, "z", 9.0)))
    clock.advance(5)
    val r = e.refresh("agg", clock.nowSeconds)
    assert(r.action == Reinitialize)
    assertSameRows(e.read("agg"), Eval.snapshot(aggQuery, _ => e.read("events")))
  }

  test("refreshes chain across a multi-DT graph at one data timestamp (DVS §3.1.2)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0), (3, "a", 3.0)))
    val filtered = Filter(Scan("events"), "v >= 2")
    e.createDynamicTable(DtSpec("big", filtered, LagSeconds(600)))
    val agg2 = Aggregate(Scan("big"), Seq("cat"), Seq("n" -> "count(1)"))
    e.createDynamicTable(DtSpec("agg2", agg2, LagSeconds(600)))
    clock.advance(10)
    e.insert("events", kv((4, "c", 10.0), (5, "a", 0.5)))
    clock.advance(10)
    val ts = clock.nowSeconds
    val results = new EngineScheduler(e, clock).refreshAllAt(ts)
    assert(results.map(_.dt) == Seq("big", "agg2"))
    assert(e.dataTimestamp("big") == ts && e.dataTimestamp("agg2") == ts)
    assertSameRows(e.read("agg2"),
      Eval.snapshot(agg2, _ => Eval.snapshot(filtered, _ => e.read("events"))))
  }

  test("downstream refresh without aligned upstream version fails (§6.1 validation #1)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    e.createDynamicTable(DtSpec("down", Filter(Scan("up"), "v > 1"), LagSeconds(600)))
    clock.advance(10)
    e.insert("events", kv((2, "b", 2.0)))
    clock.advance(10)
    // refresh downstream WITHOUT refreshing upstream at this timestamp
    val ex = intercept[IllegalStateException](e.refresh("down", clock.nowSeconds))
    assert(ex.getMessage.contains("snapshot-isolation"))
  }

  test("initialization reuses a recent upstream data timestamp (§3.1.2)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    val upTs = e.dataTimestamp("up")
    clock.advance(120) // within the 600 s lag
    e.createDynamicTable(DtSpec("down", Filter(Scan("up"), "v > 0"), LagSeconds(600)))
    assert(e.dataTimestamp("down") == upTs,
      "downstream init should reuse upstream's data timestamp instead of re-refreshing")
    assert(e.dataTimestamp("down") < clock.nowSeconds, "initialized to a timestamp before creation")
  }

  test("initialization refreshes stale upstream when outside target lag (§3.1.2)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    val upTs0 = e.dataTimestamp("up")
    clock.advance(100_000) // far beyond the lag
    e.createDynamicTable(DtSpec("down", Filter(Scan("up"), "v > 0"), LagSeconds(600)))
    assert(e.dataTimestamp("up") > upTs0, "upstream must be re-refreshed")
    assert(e.dataTimestamp("down") == e.dataTimestamp("up"))
  }

  test("manual refresh picks a fresh timestamp and refreshes the closure (§3.1.2)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    e.createDynamicTable(DtSpec("down", Filter(Scan("up"), "v > 0"), LagSeconds(600)))
    clock.advance(50)
    e.insert("events", kv((2, "b", 2.0)))
    clock.advance(50)
    val r = e.refreshManual("down")
    assert(r.dataTs >= clock.nowSeconds)
    assert(e.dataTimestamp("up") == r.dataTs)
    assert(e.read("down").count() == 2)
  }

  test("time travel: readAt returns historical contents at each data timestamp") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    val t0 = e.dataTimestamp("agg")
    clock.advance(10); e.insert("events", kv((2, "a", 4.0)))
    clock.advance(10); val t1 = clock.nowSeconds; e.refresh("agg", t1)
    assert(e.readAt("agg", t0).collect().head.getAs[Long]("n") == 1L)
    assert(e.readAt("agg", t1).collect().head.getAs[Long]("n") == 2L)
  }

  test("failed refreshes count up and suspend the DT at the threshold (§3.3.3)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    // division by zero on refresh only when data changes
    val bad = Project(Scan("events"), Seq("k" -> "k", "boom" -> "cast(v / (v - 5.0) as double)"))
    e.createDynamicTable(DtSpec("bad", bad, LagSeconds(600)))
    clock.advance(5)
    e.insert("events", kv((5, "x", 5.0))) // v=5 → division by zero in delta
    val ansi = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", "true")
    try {
      for (i <- 1 to DtState.FailureThreshold) {
        clock.advance(5)
        intercept[Exception](e.refresh("bad", clock.nowSeconds))
      }
      assert(e.dtState("bad").suspended)
      clock.advance(5)
      intercept[IllegalArgumentException](e.refresh("bad", clock.nowSeconds))
      e.resume("bad")
      assert(!e.dtState("bad").suspended)
    } finally spark.conf.set("spark.sql.ansi.enabled", ansi)
  }

  test("DML and replace on a dynamic table are rejected and leave it equal to its query") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    val row = Seq(("z", 1L, 1.0)).toDF("cat", "n", "s")
    clock.advance(5)
    intercept[IllegalArgumentException](e.dml("agg", row, row.where("false")))
    intercept[IllegalArgumentException](e.insert("agg", row))
    intercept[IllegalArgumentException](e.replaceBaseTable("agg", row))
    assert(e.tm.table("agg").versionCount == 1)
    e.insert("events", kv((3, "a", 5.0)))
    clock.advance(5)
    assert(e.refresh("agg", clock.nowSeconds).action == IncrementalRefresh)
    assertSameRows(e.read("agg"), Eval.snapshot(aggQuery, _ => e.read("events")))
  }

  test("a synchronous create whose initialization fails leaves no DT behind") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (5, "x", 5.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    val upTs0 = e.dataTimestamp("up")
    clock.advance(100_000) // beyond the lag: the create refreshes up first
    val bad = Project(Scan("up"), Seq("k" -> "k", "r" -> "cast(v / (v - 5.0) as double)"))
    val ansi = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", "true")
    try intercept[Exception](e.createDynamicTable(DtSpec("ratio", bad, LagSeconds(600))))
    finally spark.conf.set("spark.sql.ansi.enabled", ansi)
    assert(!e.isDt("ratio") && !e.tm.contains("ratio"))
    assert(e.dataTimestamp("up") > upTs0, "upstream keeps the refresh the failed create ran")
    val good = Project(Scan("up"), Seq("k" -> "k", "r" -> "cast(v / (v - 6.0) as double)"))
    e.createDynamicTable(DtSpec("ratio", good, LagSeconds(600)))
    assertSameRows(e.read("ratio"), Eval.snapshot(good, _ => e.read("up")))
  }

  test("deleting rows not present in a base table is rejected") {
    val (e, _) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    intercept[IllegalArgumentException](e.dml("events", kv(), kv((9, "q", 9.9))))
  }

  test("a merge that would delete a missing row fails the refresh (§6.1 validation #3)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0)))
    e.createDynamicTable(DtSpec("copy", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    // Doctor the DT: a version that lost row 1 behind the engine's back.
    clock.advance(1)
    val vt = e.tm.table("copy")
    val lost = vt.latest.snapshot.where("k <> 1")
    vt.commit(vt.latest.copy(commitTs = e.tm.hlc.now(), dataTs = clock.nowSeconds, snapshot = lost))
    clock.advance(5)
    e.dml("events", kv(), kv((1, "a", 1.0)))
    clock.advance(5)
    val ex = intercept[IllegalArgumentException](e.refresh("copy", clock.nowSeconds))
    assert(ex.getMessage.contains("not present in the DT (§6.1 validation)"), ex.getMessage)
    assert(e.dtState("copy").consecutiveFailures == 1)
  }

  test("a change set with a duplicate ($ROW_ID, $ACTION) pair fails the refresh (§6.1 validation #2)") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("copy", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    // Doctor the base table: a version whose stored delta is not consolidated
    // (one tuple inserted twice, as two rows).
    clock.advance(5)
    val vt = e.tm.table("events")
    val twice = Weighted.fromSnapshot(kv((2, "b", 2.0), (2, "b", 2.0)))
    vt.commit(vt.latest.copy(commitTs = e.tm.hlc.now(), dataTs = clock.nowSeconds,
      snapshot = vt.latest.snapshot.unionByName(Weighted.consolidate(twice)), delta = twice, deltaRows = 2))
    clock.advance(5)
    val ex = intercept[IllegalArgumentException](e.refresh("copy", clock.nowSeconds))
    assert(ex.getMessage.contains("1 duplicate ($ROW_ID, $ACTION) pair(s)"), ex.getMessage)
    assert(ex.getMessage.contains("INSERT") && ex.getMessage.contains("(§6.1 validation)"), ex.getMessage)
  }

  test("a refresh inserting tuples that differ only around the row-id separator passes validation #2") {
    val (e, clock) = newEngine()
    def rows(r: (String, String)*) = r.toDF("x", "y")
    e.createBaseTable("pairs", rows(("seed", "row")))
    val q = Filter(Scan("pairs"), "x IS NOT NULL")
    e.createDynamicTable(DtSpec("copy", q, LagSeconds(600)))
    val inserts = Seq(("abcdefghX\u0001Y", "Z"), ("abcdefghX", "Y\u0001Z"), ("k", null), ("k", "\u0000"))
    clock.advance(5)
    e.insert("pairs", rows(inserts: _*))
    clock.advance(5)
    assert(e.refresh("copy", clock.nowSeconds).action == IncrementalRefresh)
    assertSameRows(e.read("copy"), Eval.snapshot(q, e.read))
  }

  test("successful refresh resets the failure counter") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    e.dtState("agg").consecutiveFailures = DtState.FailureThreshold - 1
    clock.advance(5)
    e.refresh("agg", clock.nowSeconds)
    assert(e.dtState("agg").consecutiveFailures == 0)
  }

  test("DT reading another DT stays incremental end to end") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0), (2, "b", 2.0)))
    e.createDynamicTable(DtSpec("filtered", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    e.createDynamicTable(DtSpec("agg", Aggregate(Scan("filtered"), Seq("cat"), Seq("s" -> "sum(v)")), LagSeconds(600)))
    clock.advance(10)
    e.insert("events", kv((3, "a", 10.0)))
    clock.advance(10)
    val ts = clock.nowSeconds
    val r1 = e.refresh("filtered", ts)
    val r2 = e.refresh("agg", ts)
    assert(r1.action == IncrementalRefresh && r2.action == IncrementalRefresh)
    assert(e.read("agg").where("cat = 'a'").collect().head.getAs[Double]("s") == 11.0)
  }

  test("refresh timestamps must strictly advance") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    intercept[IllegalArgumentException](e.refresh("agg", e.dataTimestamp("agg")))
  }

  test("dropping and recreating a DT works") {
    val (e, _) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    e.dropDynamicTable("agg")
    intercept[NoSuchElementException](e.dtState("agg"))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600)))
    assert(e.read("agg").count() == 1)
  }
  /** One change to `events` and a refresh of `dts` (in order), 100 s later. */
  private def cycle(e: Engine, clock: repro.sched.SimClock, k: Int, dts: String*): Long = {
    clock.advance(50); e.insert("events", kv((100 + k, "a", k.toDouble)))
    clock.advance(50); dts.foreach(e.refresh(_, clock.nowSeconds))
    clock.nowSeconds
  }

  test("retention: a read before the DT's retention window fails and names the earliest retained timestamp") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(60)))
    val t0 = e.dataTimestamp("agg")
    val before = e.read("agg")
    val t1 = cycle(e, clock, 1, "agg")
    val t2 = cycle(e, clock, 2, "agg")
    // now - lag = t2 - 60 resolves to t1's version: t0's is dropped
    assert(e.tm.table("agg").versionCount == 2)
    val ex = intercept[NoSuchElementException](e.readAt("agg", t0))
    assert(ex.getMessage.contains(s"earliest retained data timestamp is $t1"), ex.getMessage)
    assert(e.readAt("agg", t1).collect().head.getAs[Long]("n") == 2L)
    assert(e.readAt("agg", t2).collect().head.getAs[Long]("n") == 3L)
    // a DataFrame taken before its version was dropped still evaluates
    System.gc()
    assert(before.collect().head.getAs[Long]("n") == 1L)
    // the base table keeps only what its reader's frontier resolves
    assert(e.tm.table("events").versionCount == 1)
  }

  test("retention: a suspended downstream DT keeps its sources' versions and refreshes INCREMENTAL after resume") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(60)))
    val down = Aggregate(Scan("up"), Seq("cat"), Seq("s" -> "sum(v)"))
    e.createDynamicTable(DtSpec("down", down, LagSeconds(60)))
    val f0 = e.dataTimestamp("down")
    e.suspend("down")
    val ts = (1 to 4).map(cycle(e, clock, _, "up"))
    assert(e.tm.table("up").versionCount == 5)
    assert(e.tm.table("up").versionAtExactly(f0).isDefined)
    e.resume("down")
    assert(e.refresh("down", ts.last).action == IncrementalRefresh)
    assertSameRows(e.read("down"), Eval.snapshot(down, _ => e.read("up")))
    // once down has moved on, up keeps only its own lag window
    cycle(e, clock, 5, "up", "down")
    assert(e.tm.table("up").versionCount == 2)
  }

  test("retention: dropping the only downstream DT releases its source's old versions") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1.0)))
    e.createDynamicTable(DtSpec("up", Filter(Scan("events"), "v > 0"), LagSeconds(60)))
    e.createDynamicTable(DtSpec("down", Filter(Scan("up"), "v > 0"), LagSeconds(600)))
    (1 to 3).foreach(cycle(e, clock, _, "up")) // down never refreshes: it pins up's versions
    assert(e.tm.table("up").versionCount == 4)
    e.dropDynamicTable("down")
    assert(e.tm.table("up").versionCount == 2)
    assertSameRows(e.read("up"), Eval.snapshot(Filter(Scan("events"), "v > 0"), _ => e.read("events")))
  }
}
