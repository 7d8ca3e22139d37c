package repro.streaming

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.ReproSpec
import repro.core._
import repro.sched.{EngineScheduler, SimClock}

/** Structured Streaming integration (repro hint): micro-batches feed the
  * DT engine, and Spark's native stateful aggregation with watermarking
  * maintains the same derived table for parity.
  */
/** Top-level so Catalyst can generate an encoder for it. */
final case class StreamEvent(k: String, v: Double, ts: java.sql.Timestamp)

class StreamingSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private def ev(k: String, v: Double, sec: Long) = StreamEvent(k, v, new java.sql.Timestamp(sec * 1000))

  test("MicroBatchDriver maintains a DT graph from a stream, one refresh interval per micro-batch") {
    implicit val sqlCtx = spark.sqlContext
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq.empty[(String, Double)].toDF("k", "v"))
    val q = Aggregate(Scan("events"), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    engine.createDynamicTable(DtSpec("agg", q, LagSeconds(60)))

    val stream = MemoryStream[(String, Double)]
    val driver = new MicroBatchDriver(engine, clock, "events")
    val query = driver.attach(stream.toDF().toDF("k", "v"))
    try {
      stream.addData(("a", 1.0), ("b", 2.0))
      query.processAllAvailable()
      stream.addData(("a", 3.0))
      query.processAllAvailable()
    } finally query.stop()

    // every micro-batch produced an incremental refresh at a new data ts
    val incs = driver.refreshResults.filter(_.dt == "agg")
    assert(incs.nonEmpty && incs.forall(_.action == IncrementalRefresh))
    assertSameRows(engine.read("agg"), Eval.snapshot(q, _ => engine.read("events")))
    assert(engine.read("agg").where("k = 'a'").collect().head.getAs[Double]("s") == 4.0)
  }

  test("a DT that fails in a micro-batch is recorded; its sibling keeps refreshing and the query lives (§3.3.3)") {
    implicit val sqlCtx = spark.sqlContext
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    // division by zero under ANSI once a row with v = 5 arrives; "bad"
    // comes first in topological order, so it fails before "copy" refreshes
    engine.createDynamicTable(DtSpec("bad",
      Project(Scan("events"), Seq("k" -> "k", "boom" -> "cast(v / (v - 5.0) as double)")), LagSeconds(60)))
    val copy = Filter(Scan("events"), "v > 0")
    engine.createDynamicTable(DtSpec("copy", copy, LagSeconds(60)))

    val stream = MemoryStream[(String, Double)]
    val driver = new MicroBatchDriver(engine, clock, "events")
    // the query's session is cloned at start, so ANSI is set around attach
    val ansi = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", "true")
    val query =
      try driver.attach(stream.toDF().toDF("k", "v"))
      finally spark.conf.set("spark.sql.ansi.enabled", ansi)
    try {
      stream.addData(("x", 5.0))
      query.processAllAvailable()
      stream.addData(("y", 2.0))
      query.processAllAvailable()
      assert(query.isActive && query.exception.isEmpty)
    } finally query.stop()

    assert(driver.refreshResults.map(r => (r.dt, r.dataTs)) == Seq(("copy", 1048L), ("copy", 1096L)))
    assert(driver.failures.map(f => (f.dt, f.dataTs)) == Seq(("bad", 1048L), ("bad", 1096L)))
    assert(driver.failures.forall(f =>
      Iterator.iterate[Throwable](f.cause)(_.getCause).takeWhile(_ != null).exists(c =>
        Option(c.getMessage).exists(_.contains("DIVIDE_BY_ZERO")))))
    assertSameRows(engine.read("copy"), Eval.snapshot(copy, _ => engine.read("events")))
  }

  test("a replayed micro-batch id is not committed twice") {
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    val q = Aggregate(Scan("events"), Seq("k"), Seq("s" -> "sum(v)"))
    engine.createDynamicTable(DtSpec("agg", q, LagSeconds(60)))
    val driver = new MicroBatchDriver(engine, clock, "events")
    val batch = Seq(("a", 2.0)).toDF("k", "v")
    def state = (clock.nowSeconds, engine.tm.table("events").allDataTimestamps,
      engine.tm.table("agg").allDataTimestamps, driver.refreshResults, engine.read("agg").collect().toSeq)
    driver.commitBatch(batch, 0L)
    val once = state
    driver.commitBatch(batch, 0L)
    assert(state == once)
    assert(engine.read("agg").collect().head.getAs[Double]("s") == 3.0)
    driver.commitBatch(batch, 1L)
    assert(engine.read("agg").collect().head.getAs[Double]("s") == 5.0)
  }

  test("bounded state: version counts stay flat over 50 micro-batches, and the DTs equal a recompute") {
    implicit val sqlCtx = spark.sqlContext
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq.empty[(String, Double)].toDF("k", "v"))
    val agg = Aggregate(Scan("events"), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    engine.createDynamicTable(DtSpec("agg", agg, LagSeconds(60)))
    val hot = Filter(Scan("agg"), "n >= 3")
    engine.createDynamicTable(DtSpec("hot", hot, LagSeconds(60)))
    val tables = Seq("events", "agg", "hot")

    val stream = MemoryStream[(String, Double)]
    val driver = new MicroBatchDriver(engine, clock, "events")
    val query = driver.attach(stream.toDF().toDF("k", "v"))
    val batches = 50
    val t0 = System.nanoTime()
    val counts =
      try (1 to batches).map { b =>
        stream.addData((s"k${b % 7}", b.toDouble), (s"k${b % 3}", 1.0))
        query.processAllAvailable()
        tables.map(engine.tm.table(_).versionCount)
      } finally query.stop()
    info(f"$batches micro-batches in ${(System.nanoTime() - t0) / 1e9}%.1f s")

    assert(driver.failures.isEmpty)
    assert(driver.refreshResults.size == 2 * batches)
    // A 60 s lag at 48 s batches keeps at most the version that resolves
    // now - 60, the version in between and the latest; the base table
    // keeps the one its readers' frontier resolves.
    counts.foreach(c => assert(c.head == 1 && c.tail.forall(_ <= 3), s"version counts $c"))
    assertSameRows(engine.read("agg"), Eval.snapshot(agg, _ => engine.read("events")))
    assertSameRows(engine.read("hot"), Eval.snapshot(hot, _ => Eval.snapshot(agg, _ => engine.read("events"))))
  }

  test("micro-batches with no data produce NO_DATA refreshes") {
    implicit val sqlCtx = spark.sqlContext
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq(("a", 1.0)).toDF("k", "v"))
    engine.createDynamicTable(DtSpec("copy", Filter(Scan("events"), "v > 0"), LagSeconds(60)))
    clock.advance(48)
    val r = new EngineScheduler(engine, clock).refreshAllAt(clock.nowSeconds)
    assert(r.map(_.action) == Seq(NoData))
  }

  test("Structured Streaming watermark aggregation matches the DT engine result") {
    implicit val sqlCtx = spark.sqlContext
    // --- native Structured Streaming side ---
    val stream = MemoryStream[StreamEvent]
    val aggStream = StreamingIvm.windowedAggregate(
      stream.toDF(), "ts", "10 seconds", "60 seconds", Seq("k"),
      Seq("n" -> "count(1)", "s" -> "sum(v)"))
    val query = aggStream.writeStream.format("memory").queryName("ss_agg").outputMode("update").start()

    // --- DT engine side over the same events ---
    val clock = new SimClock(0)
    val engine = new Engine(spark, clock)
    val events = Seq(ev("a", 1.0, 10), ev("a", 2.0, 15), ev("b", 5.0, 70), ev("a", 4.0, 75))
    try {
      stream.addData(events: _*)
      query.processAllAvailable()
    } finally query.stop()

    engine.createBaseTable("events", events.toDF())
    val q = Aggregate(
      Project(Scan("events"), Seq(
        "window_start" -> "timestamp_seconds(floor(unix_timestamp(ts) / 60) * 60)",
        "k" -> "k", "v" -> "v")),
      Seq("window_start", "k"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    engine.createDynamicTable(DtSpec("agg", q, LagSeconds(60)))

    // memory sink in update mode: take the latest row per (window, key)
    val ss = spark.table("ss_agg")
      .withColumn("rn", row_number().over(
        org.apache.spark.sql.expressions.Window.partitionBy("window_start", "k").orderBy(monotonically_increasing_id().desc)))
      .where("rn = 1").drop("rn")
    assertSameRows(ss, engine.read("agg"), "structured-streaming vs DT engine")
  }

  test("late data beyond the watermark is the DVS difference: the DT keeps it") {
    implicit val sqlCtx = spark.sqlContext
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq(ev("a", 1.0, 10)).toDF())
    val q = Aggregate(Scan("events"), Seq("k"), Seq("s" -> "sum(v)"))
    engine.createDynamicTable(DtSpec("agg", q, LagSeconds(60)))
    // an arbitrarily late event still lands in the next refresh interval —
    // DVS has no notion of "too late", unlike watermarked streaming
    clock.advance(48)
    engine.insert("events", Seq(ev("a", 9.0, 1)).toDF()) // event time long past
    clock.advance(48)
    new EngineScheduler(engine, clock).refreshAllAt(clock.nowSeconds)
    assert(engine.read("agg").collect().head.getAs[Double]("s") == 10.0)
  }
}
