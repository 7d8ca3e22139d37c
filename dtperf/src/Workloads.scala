package repro.perf

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.StreamingQuery
import org.apache.spark.sql.types._
import repro.SynthData
import repro.core._
import repro.sched.{EngineScheduler, SimClock}
import repro.streaming.MicroBatchDriver
import scala.collection.mutable
import scala.util.Random

/** A closed-loop workload driven by one client thread. A *cycle* is one
  * DML tick and every refresh up to the next DML tick (in stream_append,
  * one micro-batch), followed by one read of every DT. A *round* is the
  * shortest run of cycles after which the schedule repeats, so per-cycle
  * counts over whole rounds are exact.
  */
trait Workload {
  def name: String
  def roundCycles: Int
  /** Seconds one cycle takes on the reference machine; sets how many rounds
    * fill the requested run length, so every run of one length does the
    * same work.
    */
  def nominalCycleSeconds: Double
  /** Untimed cycles before the timed phase, so JIT and Spark's code cache
    * are warm for the paths the cycles take.
    */
  def warmupCycles: Int
  def tables: Seq[String]
  def dts: Seq[String]
  def engine: Engine

  /** Create the base tables and DTs in a fresh engine, recording each call. */
  def setup(run: Run): Unit
  /** Generate and pin the inputs of cycles `0 until cycles` (untimed). */
  def prepare(run: Run, cycles: Int): Unit
  /** Run cycle `c`; returns (freshness latency ms, base rows changed). */
  def cycle(run: Run, c: Int): (Double, Long)
  /** Correctness checks, after the timed phase. */
  def gate(run: Run): Unit = dts.foreach(Gate.dvs(run, engine, _))
  def close(): Unit = ()

  protected def readAll(run: Run): Unit = dts.foreach(run.read(engine, _))

  protected def create(run: Run, spec: DtSpec): Unit =
    run.op("core.init", spec.name)(engine.createDynamicTable(spec))(_ => ("INIT", 0L))
}

object Workload {
  val names: Seq[String] = Seq("graph_trickle", "bulk_churn", "stream_append")

  def apply(name: String, spark: SparkSession, seed: Long): Workload = name match {
    case "graph_trickle" => new GraphTrickle(spark, seed)
    case "bulk_churn"    => new BulkChurn(spark, seed)
    case "stream_append" => new StreamAppend(spark, seed)
    case other => throw new IllegalArgumentException(s"unknown workload $other (one of ${names.mkString(", ")})")
  }

  /** Period of the DML ticks; equal to the smallest canonical period. */
  val Tick = 48L
}

/** graph_trickle — fixed cost of refresh over a DT graph.
  *
  * fact(k, i, v) holds 100k rows, exactly ten per key over 10k keys;
  * dim(dk, region) maps every key to one of four regions. Each DML inserts
  * 25 rows and deletes 25 rows the benchmark inserted at setup, on odd
  * 48 s ticks only, so every even tick is a NO_DATA tick. `chain` has a
  * 200 s lag (period 192 s): it resolves an exact version of `join` at a
  * NO_DATA tick, and its delta spans two versions of `join`.
  *
  * The change rows are chosen so every DT's delta size is the same for
  * every seed: the 50 changed rows have distinct keys, no key loses its
  * last row, 18 of each 25 pass `lin`'s filter, and every region's
  * insert and delete counts differ.
  */
final class GraphTrickle(spark: SparkSession, seed: Long) extends Workload {
  val name = "graph_trickle"
  val roundCycles = 2
  val nominalCycleSeconds = 3.75
  val warmupCycles = 4
  val tables = Seq("fact", "dim", "lin", "agg", "join", "chain", "agg_full")
  val dts = Seq("lin", "agg", "join", "chain", "agg_full")

  private val FactRows = 100000
  private val Keys = 10000
  private val PerSide = 25
  private val Passing = 18
  private val InsertsPerRegion = Array(8, 7, 5, 5)
  private val DeletesPerRegion = Array(5, 5, 8, 7)
  private val kOff = Math.floorMod(seed * 104729L, Keys.toLong)
  private val vOff = Math.floorMod(seed * 7331L, 1000L)
  private def keyOf(i: Long): Long = Math.floorMod(i * 7919L + kOff, Keys.toLong)
  private def valueOf(i: Long): Long = Math.floorMod(i * 40503L + vOff, 1000L)
  private def regionOf(k: Long): Int = (k % 4).toInt
  private def passes(v: Long): Boolean = v % 10 < 7

  private val schema = StructType(Seq("k", "i", "v").map(StructField(_, LongType, nullable = false)))

  private var clock: SimClock = _
  var engine: Engine = _
  private var periods: Map[String, Long] = Map.empty
  private var inputs: IndexedSeq[(DataFrame, DataFrame)] = IndexedSeq.empty

  def setup(run: Run): Unit = {
    clock = new SimClock(0)
    engine = new Engine(spark, clock)
    val fact = spark.range(FactRows).select(
      pmod(col("id") * 7919L + kOff, lit(Keys.toLong)).as("k"), col("id").as("i"),
      pmod(col("id") * 40503L + vOff, lit(1000L)).as("v"))
    val dim = spark.range(Keys).select(col("id").as("dk"), concat(lit("r"), (col("id") % 4).cast("string")).as("region"))
    run.op("txn.create", "fact")(engine.createBaseTable("fact", fact))(_ => ("CREATE", FactRows.toLong))
    run.op("txn.create", "dim")(engine.createBaseTable("dim", dim))(_ => ("CREATE", Keys.toLong))
    val agg = Aggregate(Scan("fact"), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    create(run, DtSpec("lin", Project(Filter(Scan("fact"), "v % 10 < 7"),
      Seq("k" -> "k", "i" -> "i", "v2" -> "v * 2")), LagSeconds(60)))
    create(run, DtSpec("agg", agg, LagSeconds(60)))
    create(run, DtSpec("join", Join(Scan("fact"), Scan("dim"), Seq("k"), Seq("dk")), LagSeconds(60)))
    create(run, DtSpec("chain", Aggregate(Scan("join"), Seq("region"),
      Seq("n" -> "count(1)", "s" -> "sum(v)")), LagSeconds(200)))
    create(run, DtSpec("agg_full", agg, LagSeconds(60), FullMode))
    periods = new EngineScheduler(engine, clock).periods.collect { case (dt, Some(p)) => dt -> p }
  }

  def prepare(run: Run, cycles: Int): Unit = {
    val rng = new Random(seed)
    val perKey = Array.fill(Keys)(FactRows / Keys)
    val deleted = mutable.BitSet.empty
    inputs = (0 until cycles).map { c =>
      val insKeys = mutable.LinkedHashSet.empty[Long]
      for (r <- 0 until 4; _ <- 0 until InsertsPerRegion(r)) {
        var k = -1L
        while (k < 0 || insKeys.contains(k)) k = rng.nextInt(Keys / 4) * 4L + r
        insKeys += k
      }
      val ins = insKeys.toSeq.zipWithIndex.map { case (k, j) =>
        val v = 10L * rng.nextInt(100) + (if (j < Passing) rng.nextInt(7) else 7 + rng.nextInt(3))
        perKey(k.toInt) += 1
        Row(k, (FactRows + c * PerSide + j).toLong, v)
      }
      val quota = DeletesPerRegion.clone()
      var (pass, fail) = (Passing, PerSide - Passing)
      val delKeys = mutable.Set.empty[Long]
      val del = mutable.ArrayBuffer.empty[Row]
      while (del.size < PerSide) {
        val i = rng.nextInt(FactRows).toLong
        val (k, v) = (keyOf(i), valueOf(i))
        val r = regionOf(k)
        val fits = if (passes(v)) pass > 0 else fail > 0
        if (!deleted(i.toInt) && quota(r) > 0 && fits && perKey(k.toInt) >= 2 &&
            !insKeys.contains(k) && !delKeys.contains(k)) {
          deleted += i.toInt; delKeys += k; quota(r) -= 1; perKey(k.toInt) -= 1
          if (passes(v)) pass -= 1 else fail -= 1
          del += Row(k, i, v)
        }
      }
      (df(ins), df(del.toSeq))
    }
  }

  private def df(rows: Seq[Row]): DataFrame = spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)

  private def refreshDue(run: Run, ts: Long): Unit =
    engine.graph.topoOrder.foreach(dt => if (ts % periods(dt) == 0) run.refresh(engine, dt, ts))

  def cycle(run: Run, c: Int): (Double, Long) = {
    val tick = (2L * c + 1) * Workload.Tick
    val (ins, del) = inputs(c)
    clock.set(tick - Workload.Tick / 2)
    val t0 = System.nanoTime()
    run.dml(engine, "fact", ins, del, 2L * PerSide)
    clock.set(tick)
    refreshDue(run, tick)
    val latency = (System.nanoTime() - t0) / 1e6
    clock.set(tick + Workload.Tick)
    refreshDue(run, tick + Workload.Tick)
    readAll(run)
    (latency, 2L * PerSide)
  }
}

/** bulk_churn — per-row cost. lineitem (SynthData SF 0.05, 300k rows) and
  * part; every 48 s tick changes 10% of lineitem (15k inserts, 15k deletes
  * of setup rows) and refreshes the T2 queries plus a FULL-mode copy of
  * the aggregate.
  */
final class BulkChurn(spark: SparkSession, seed: Long) extends Workload {
  val name = "bulk_churn"
  val roundCycles = 1
  val nominalCycleSeconds = 12.0
  val warmupCycles = 1
  val tables = Seq("lineitem", "part", "lin", "agg", "complex", "agg_full")
  val dts = Seq("lin", "agg", "complex", "agg_full")

  private val Sf = 0.05
  private val PerSide = 15000
  private val Parts = 10000

  private var clock: SimClock = _
  var engine: Engine = _
  private var inputs: IndexedSeq[(DataFrame, DataFrame)] = IndexedSeq.empty

  def setup(run: Run): Unit = {
    clock = new SimClock(0)
    engine = new Engine(spark, clock)
    run.op("txn.create", "lineitem")(engine.createBaseTable("lineitem", SynthData.lineitem(spark, Sf, seed)))(_ => ("CREATE", 0L))
    run.op("txn.create", "part")(engine.createBaseTable("part", SynthData.part(spark, Sf, seed + 5)))(_ => ("CREATE", 0L))
    val agg = Aggregate(Filter(Scan("lineitem"), "l_quantity > 2"), Seq("l_partkey"),
      Seq("n" -> "count(1)", "qty" -> "sum(cast(l_quantity as decimal(14,6)))",
        "rev" -> "sum(cast(l_extendedprice as decimal(18,2)))"))
    create(run, DtSpec("lin", Project(Filter(Scan("lineitem"), "l_quantity > 5"),
      Seq("l_orderkey" -> "l_orderkey", "l_partkey" -> "l_partkey",
        "rev" -> "l_extendedprice * (1 - l_discount)")), LagSeconds(60)))
    create(run, DtSpec("agg", agg, LagSeconds(60)))
    create(run, DtSpec("complex", Aggregate(
      Join(Scan("lineitem"), Project(Scan("part"), Seq("pk" -> "p_partkey", "ptype" -> "p_type")),
        Seq("l_partkey"), Seq("pk")),
      Seq("ptype"), Seq("n" -> "count(1)", "qty" -> "sum(cast(l_quantity as decimal(14,6)))")), LagSeconds(60)))
    create(run, DtSpec("agg_full", agg, LagSeconds(60), FullMode))
  }

  def prepare(run: Run, cycles: Int): Unit = {
    val base = engine.read("lineitem")
    val schema = base.schema
    val pool = base.orderBy(xxhash64(lit(seed) +: base.columns.toSeq.map(col): _*))
      .limit(PerSide * cycles).collect()
    val rng = new Random(seed)
    val flags = Array("N", "R", "A")
    val status = Array("O", "F")
    val day0 = java.time.LocalDate.parse("1992-01-01")
    def round2(x: Double) = math.round(x * 100) / 100.0
    inputs = (0 until cycles).map { c =>
      val ins = Seq.fill(PerSide)(Row(
        1L + rng.nextInt(75000), 1L + rng.nextInt(Parts), 1 + rng.nextInt(7), (1 + rng.nextInt(50)).toDouble,
        round2(rng.nextDouble() * 90000 + 900), round2(rng.nextDouble() * 0.10), round2(rng.nextDouble() * 0.08),
        flags(rng.nextInt(3)), status(rng.nextInt(2)), java.sql.Date.valueOf(day0.plusDays(rng.nextInt(2557).toLong))))
      val del = pool.slice(c * PerSide, (c + 1) * PerSide).toSeq
      (spark.createDataFrame(java.util.Arrays.asList(ins: _*), schema),
        spark.createDataFrame(java.util.Arrays.asList(del: _*), schema))
    }
  }

  def cycle(run: Run, c: Int): (Double, Long) = {
    val tick = (c + 1L) * Workload.Tick
    val (ins, del) = inputs(c)
    clock.set(tick - Workload.Tick / 2)
    val t0 = System.nanoTime()
    run.dml(engine, "lineitem", ins, del, 2L * PerSide)
    clock.set(tick)
    engine.graph.topoOrder.foreach(run.refresh(engine, _, tick))
    val latency = (System.nanoTime() - t0) / 1e6
    readAll(run)
    (latency, 2L * PerSide)
  }
}

/** One event of stream_append (top level so Spark can derive its encoder). */
final case class StreamEvent(k: Long, bucket: Long, v: Long)

/** stream_append — the streaming layer and long-running state.
  *
  * Events flow MemoryStream → MicroBatchDriver → events(k, bucket, v),
  * 500 per micro-batch, keys zipf(1.1) over 1k keys, 10% late (a bucket
  * from one of the ten previous batches). `by_key_bucket` aggregates by
  * (k, bucket); `hot` filters it, a DT on a DT. Insert-only: every version
  * stays, so retained state grows with the run.
  */
final class StreamAppend(spark: SparkSession, seed: Long) extends Workload {
  val name = "stream_append"
  val roundCycles = 1
  val nominalCycleSeconds = 1.9
  val warmupCycles = 6
  val tables = Seq("events", "by_key_bucket", "hot")
  val dts = Seq("by_key_bucket", "hot")

  private val PerBatch = 500
  private val Keys = 1000
  private val HistoryBatches = 20
  private val byKeyBucket = Aggregate(Scan("events"), Seq("k", "bucket"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
  private val hotFilter = "n >= 4"

  private val rng = new Random(seed)
  private val zipfCdf: Array[Double] = {
    val w = (1 to Keys).map(k => 1.0 / math.pow(k, 1.1))
    w.scanLeft(0.0)(_ + _).tail.map(_ / w.sum).toArray
  }
  private def zipfKey(): Long = {
    val i = java.util.Arrays.binarySearch(zipfCdf, rng.nextDouble())
    (if (i >= 0) i else math.min(-i - 1, Keys - 1)).toLong + 1
  }
  private def batch(b: Int): Seq[StreamEvent] = Seq.fill(PerBatch) {
    val late = b > 0 && rng.nextDouble() < 0.10
    StreamEvent(zipfKey(), if (late) b - 1 - rng.nextInt(math.min(10, b)) else b, rng.nextInt(100).toLong)
  }

  private var clock: SimClock = _
  var engine: Engine = _
  private var inputs: IndexedSeq[Seq[StreamEvent]] = IndexedSeq.empty
  private var stream: MemoryStream[StreamEvent] = _
  private var driver: MicroBatchDriver = _
  private var query: StreamingQuery = _

  def setup(run: Run): Unit = {
    clock = new SimClock(0)
    engine = new Engine(spark, clock)
    val history = new Random(seed + 1)
    val rows = (0 until HistoryBatches * PerBatch).map { j =>
      Row(1L + history.nextInt(Keys), (j / PerBatch).toLong, history.nextInt(100).toLong)
    }
    val schema = StructType(Seq("k", "bucket", "v").map(StructField(_, LongType, nullable = false)))
    val events = spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
    run.op("txn.create", "events")(engine.createBaseTable("events", events))(_ => ("CREATE", rows.size.toLong))
    create(run, DtSpec("by_key_bucket", byKeyBucket, LagSeconds(60)))
    create(run, DtSpec("hot", Filter(Scan("by_key_bucket"), hotFilter), LagSeconds(60)))
  }

  def prepare(run: Run, cycles: Int): Unit = {
    inputs = (0 until cycles).map(c => batch(HistoryBatches + c))
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    stream = MemoryStream[StreamEvent]
    driver = new MicroBatchDriver(engine, clock, "events", Workload.Tick)
    query = driver.attach(stream.toDF())
  }

  def cycle(run: Run, c: Int): (Double, Long) = {
    val before = driver.refreshResults.size
    val t0 = System.nanoTime()
    run.op("streaming.batch", "events") {
      stream.addData(inputs(c))
      query.processAllAvailable()
    }(_ => ("BATCH", PerBatch.toLong))
    val latency = (System.nanoTime() - t0) / 1e6
    // Refreshes ran inside the batch; record their outcomes (not their
    // times, which only the batch span covers).
    driver.refreshResults.drop(before).foreach { r =>
      run.ops += Op("core.refresh", r.dt, run.cycle, Double.NaN, ok = true, r.action.toString, r.changedRows, Probe.NoSpan)
    }
    readAll(run)
    (latency, PerBatch.toLong)
  }

  override def gate(run: Run): Unit = {
    super.gate(run)
    Gate.recompute(run, engine, "by_key_bucket", byKeyBucket)
    Gate.recompute(run, engine, "hot", Filter(byKeyBucket, hotFilter))
  }

  override def close(): Unit = if (query != null) { query.stop(); query = null }
}
