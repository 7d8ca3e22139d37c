package repro.sched

import repro.ReproSpec
import repro.core._

/** The §5.2 policy driving the real engine end to end. */
class EngineSchedulerSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  test("scheduled refreshes keep a DT chain consistent and aligned") {
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0), ("b", 2.0)).toDF("k", "v"))
    e.createDynamicTable(DtSpec("filtered", Filter(Scan("events"), "v > 0"), LagSeconds(96)))
    e.createDynamicTable(DtSpec("agg", Aggregate(Scan("filtered"), Seq("k"), Seq("s" -> "sum(v)")), LagSeconds(600)))
    val sched = new EngineScheduler(e, clock)
    assert(sched.periods == Map("filtered" -> Some(96L), "agg" -> Some(384L)))

    e.insert("events", Seq(("a", 10.0)).toDF("k", "v"))
    val results = sched.advanceTo(800)
    // filtered ticks at 96..768 (8), agg at 384 and 768 (2)
    assert(results.count(_.dt == "filtered") == 8)
    assert(results.count(_.dt == "agg") == 2)
    // alignment: agg's data timestamps are also filtered's
    val fTs = results.filter(_.dt == "filtered").map(_.dataTs).toSet
    assert(results.filter(_.dt == "agg").forall(r => fTs.contains(r.dataTs)))
    assertSameRows(e.read("agg"),
      Eval.snapshot(Aggregate(Filter(Scan("events"), "v > 0"), Seq("k"), Seq("s" -> "sum(v)")),
        _ => e.read("events")))
  }

  test("quiet periods produce NO_DATA refreshes only") {
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    e.createDynamicTable(DtSpec("copy", Filter(Scan("events"), "v > 0"), LagSeconds(96)))
    val sched = new EngineScheduler(e, clock)
    sched.advanceTo(500) // initial state, no changes after init
    val results = sched.advanceTo(1000)
    assert(results.nonEmpty && results.forall(_.action == NoData))
  }

  test("DOWNSTREAM-lag DT refreshes at its consumer's period") {
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    e.createDynamicTable(DtSpec("mid", Filter(Scan("events"), "v > 0"), DownstreamLag))
    e.createDynamicTable(DtSpec("out", Filter(Scan("mid"), "v > 0"), LagSeconds(384)))
    val sched = new EngineScheduler(e, clock)
    assert(sched.periods("mid") == Some(384L))
    val results = sched.advanceTo(400)
    assert(results.map(_.dt) == Seq("mid", "out"))
    assert(results.map(_.dataTs).distinct.size == 1)
  }

  test("a failing DT is recorded and the other DTs keep refreshing (§3.3.3)") {
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    // division by zero on refresh only once a row with v = 5 arrives
    e.createDynamicTable(DtSpec("bad",
      Project(Scan("events"), Seq("k" -> "k", "boom" -> "cast(v / (v - 5.0) as double)")), LagSeconds(96)))
    e.createDynamicTable(DtSpec("copy", Filter(Scan("events"), "v > 0"), LagSeconds(96)))
    val sched = new EngineScheduler(e, clock)
    e.insert("events", Seq(("x", 5.0)).toDF("k", "v"))
    val ansi = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", "true")
    val results =
      try sched.advanceTo(200)
      finally spark.conf.set("spark.sql.ansi.enabled", ansi)
    assert(sched.failures.map(f => (f.dt, f.dataTs)) == Seq(("bad", 96L), ("bad", 192L)))
    assert(sched.failures.forall(f =>
      Iterator.iterate[Throwable](f.cause)(_.getCause).takeWhile(_ != null).exists(c =>
        Option(c.getMessage).exists(_.contains("DIVIDE_BY_ZERO")))))
    assert(e.dtState("bad").consecutiveFailures == 2)
    assert(results.map(r => (r.dt, r.dataTs)) == Seq(("copy", 96L), ("copy", 192L)))
  }

  test("a DT under a failing upstream DT is skipped, not failed or suspended (§3.3.3)") {
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    e.createDynamicTable(DtSpec("bad",
      Project(Scan("events"), Seq("k" -> "k", "boom" -> "cast(v / (v - 5.0) as double)")), LagSeconds(96)))
    e.createDynamicTable(DtSpec("down", Filter(Scan("bad"), "k is not null"), LagSeconds(96)))
    val sched = new EngineScheduler(e, clock)
    e.insert("events", Seq(("x", 5.0)).toDF("k", "v"))
    val ansi = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", "true")
    val ticks = (1 to DtState.FailureThreshold + 1).map(_ * 96L)
    val results =
      try sched.advanceTo(ticks.last)
      finally spark.conf.set("spark.sql.ansi.enabled", ansi)
    assert(results.isEmpty)
    assert(e.dtState("bad").suspended)
    assert(sched.failures.map(f => (f.dt, f.dataTs)) == ticks.init.map(("bad", _)))
    assert(!e.dtState("down").suspended && e.dtState("down").consecutiveFailures == 0)
    assert(sched.skips == ticks.map(RefreshSkip("down", _, "bad")))
  }

  test("the simulator and the engine scheduler pick the same data timestamps (one §5.2 policy)") {
    // events -> a -> b (DOWNSTREAM) -> c, and a -> d; c and d meet in e
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0), ("b", 2.0)).toDF("k", "v"))
    e.createDynamicTable(DtSpec("a", Filter(Scan("events"), "v > 0"), LagSeconds(96)))
    e.createDynamicTable(DtSpec("b", Filter(Scan("a"), "v > 0"), DownstreamLag))
    e.createDynamicTable(DtSpec("c", Filter(Scan("b"), "v > 1"), LagSeconds(500)))
    e.createDynamicTable(DtSpec("d", Filter(Scan("a"), "v < 9"), LagSeconds(200)))
    e.createDynamicTable(DtSpec("e", UnionAll(Scan("c"), Scan("d")), LagSeconds(800)))
    clock.advance(10)
    e.insert("events", Seq(("c", 3.0)).toDF("k", "v"))
    val horizon = 800L
    val engineTs = new EngineScheduler(e, clock).advanceTo(horizon).groupBy(_.dt).view.mapValues(_.map(_.dataTs)).toMap

    // the same graph in the simulator: one warehouse per DT, 1 s per refresh
    def node(name: String, upstream: Seq[String], lag: Option[Long]) =
      SimNode(name, upstream, if (upstream.isEmpty) Seq("events") else Nil, lag, warehouse = name, fixedCost = 1)
    val sim = new SimScheduler(Seq(
      node("a", Nil, Some(96L)), node("b", Seq("a"), None), node("c", Seq("b"), Some(500L)),
      node("d", Seq("a"), Some(200L)), node("e", Seq("c", "d"), Some(800L)),
    ), (_, t0, t1) => t1 - t0).run(horizon)
    val simTs = sim.view.mapValues(_.records.map(_.dataTs)).toMap

    assert(engineTs == simTs)
    assert(engineTs("a") == (96L to 768L by 96L) && engineTs("b") == Seq(384L, 768L) && engineTs("e") == Seq(768L))
  }

  test("changes land in the DT within one period (lag bound holds)") {
    val (e, clock) = newEngine(start = 0)
    e.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    e.createDynamicTable(DtSpec("copy", Filter(Scan("events"), "v > 0"), LagSeconds(96)))
    val sched = new EngineScheduler(e, clock)
    sched.advanceTo(100)
    e.insert("events", Seq(("z", 9.0)).toDF("k", "v")) // at t=100
    sched.advanceTo(200) // tick at 192 must pick it up
    assert(e.read("copy").where("k = 'z'").count() == 1)
    assert(e.dataTimestamp("copy") == 192L)
  }
}
