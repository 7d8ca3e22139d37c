package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import repro.ReproSpec

/** The fixed cost of a refresh and a DML in Spark jobs (§3.3.2), on a
  * tiny table where nothing but fixed cost is left. Every §6.1 validation
  * runs in each of these calls; the budgets hold them to the jobs that
  * produce the pinned results. Validations #2 and #3 run inside the
  * merge's checkpoint job, and a pin counts its rows in the job that
  * writes it, so neither the checks nor a commit add a job.
  */
class JobBudgetSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private lazy val counter = new JobCounter(spark.sparkContext)

  override def beforeAll(): Unit = { super.beforeAll(); spark.sparkContext.addSparkListener(counter) }
  override def afterAll(): Unit = { spark.sparkContext.removeSparkListener(counter); super.afterAll() }

  private def kv(rows: (Int, String, Long)*) = rows.toDF("k", "cat", "v")

  test("Spark jobs per DML and per refresh action stay within budget") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1L), (2, "b", 2L), (3, "a", 3L)))
    e.createDynamicTable(DtSpec("lin", Filter(Scan("events"), "v > 0"), LagSeconds(600)))
    e.createDynamicTable(DtSpec("agg",
      Aggregate(Scan("events"), Seq("cat"), Seq("n" -> "count(1)", "s" -> "sum(v)")), LagSeconds(600)))
    e.createDynamicTable(DtSpec("full", Filter(Scan("events"), "v > 0"), LagSeconds(600), FullMode))

    clock.advance(10)
    val dmlJobs = counter.jobsOf(e.dml("events", kv((4, "c", 4L)), kv((2, "b", 2L))))
    clock.advance(10)
    val ts = clock.nowSeconds
    val jobs = Seq("lin", "agg", "full").map(dt => dt -> counter.jobsOf(e.refresh(dt, ts))).toMap
    clock.advance(10)
    val noData = counter.jobsOf(e.refresh("lin", clock.nowSeconds))

    val budget = Map("dml" -> 4, "lin" -> 3, "agg" -> 6, "full" -> 4)
    val got = jobs + ("dml" -> dmlJobs)
    info(s"Spark jobs per call: $got, NO_DATA $noData")
    budget.foreach { case (call, b) => assert(got(call) <= b, s"$call ran ${got(call)} jobs (budget $b): $got") }
    assert(got.values.forall(_ > 0), s"the listener saw no jobs: $got")
    assert(noData == 0, "a NO_DATA refresh is metadata only (§5.4)")
    assertSameRows(e.read("agg"),
      Eval.snapshot(Aggregate(Scan("events"), Seq("cat"), Seq("n" -> "count(1)", "s" -> "sum(v)")),
        _ => e.read("events")))
  }

  test("Spark jobs per INCREMENTAL distinct, window and left outer join refresh stay within budget") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", kv((1, "a", 1L), (2, "b", 2L), (3, "a", 3L)))
    e.createBaseTable("dim", Seq((1, "east"), (2, "west")).toDF("dk", "region"))
    val queries = Map(
      "distinct" -> Distinct(Project(Scan("events"), Seq("cat" -> "cat"))),
      "window" -> WindowOp(Scan("events"), Seq("cat"), Seq("k" -> "k", "cat" -> "cat", "s" -> "sum(v) over (partition by cat)")),
      "left_join" -> Join(Scan("events"), Scan("dim"), Seq("k"), Seq("dk"), "left"),
    )
    queries.foreach { case (dt, q) => e.createDynamicTable(DtSpec(dt, q, LagSeconds(600))) }
    clock.advance(10)
    e.dml("events", kv((4, "c", 4L)), kv((2, "b", 2L)))
    clock.advance(10)
    val ts = clock.nowSeconds
    val got = queries.keys.map(dt => dt -> counter.jobsOf(e.refresh(dt, ts))).toMap

    val budget = Map("distinct" -> 6, "window" -> 7, "left_join" -> 7)
    info(s"Spark jobs per call: $got")
    budget.foreach { case (call, b) => assert(got(call) <= b, s"$call ran ${got(call)} jobs (budget $b): $got") }
    assert(got.values.forall(_ > 0), s"the listener saw no jobs: $got")
    queries.foreach { case (dt, q) => assertSameRows(e.read(dt), Eval.snapshot(q, e.read)) }
  }

  test("Spark jobs per base-table create and replace, initialization and REINITIALIZE stay within budget") {
    val (e, clock) = newEngine()
    val aggQuery = Aggregate(Scan("events"), Seq("cat"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    val create = counter.jobsOf(e.createBaseTable("events", kv((1, "a", 1L), (2, "b", 2L), (3, "a", 3L))))
    val init = counter.jobsOf(e.createDynamicTable(DtSpec("agg", aggQuery, LagSeconds(600))))
    clock.advance(10)
    val replace = counter.jobsOf(e.replaceBaseTable("events", kv((4, "c", 4L), (3, "a", 3L))))
    clock.advance(10)
    var action: RefreshAction = NoData
    val reinit = counter.jobsOf { action = e.refresh("agg", clock.nowSeconds).action }

    val budget = Map("create" -> 2, "init" -> 2, "replace" -> 4, "reinit" -> 4)
    val got = Map("create" -> create, "init" -> init, "replace" -> replace, "reinit" -> reinit)
    info(s"Spark jobs per call: $got")
    budget.foreach { case (call, b) => assert(got(call) <= b, s"$call ran ${got(call)} jobs (budget $b): $got") }
    assert(got.values.forall(_ > 0), s"the listener saw no jobs: $got")
    assert(action == Reinitialize)
    assertSameRows(e.read("agg"), Eval.snapshot(aggQuery, _ => e.read("events")))
  }
}

/** Counts the Spark jobs a call submits. Listener events arrive
  * asynchronously; a marker job drains the bus before each reading (events
  * are delivered in order, so once the marker's end is seen, so is every
  * earlier job's start). Marker jobs are not counted.
  */
private final class JobCounter(sc: SparkContext) extends SparkListener {
  private val MarkerKey = "repro.test.jobMarker"
  private val started = new AtomicInteger
  @volatile private var markerJob = -1
  @volatile private var markerEnded = new CountDownLatch(0)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (Option(e.properties).exists(_.getProperty(MarkerKey) != null)) markerJob = e.jobId
    else started.incrementAndGet()

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) markerEnded.countDown()

  private def drain(): Unit = {
    val latch = new CountDownLatch(1)
    markerEnded = latch
    sc.setLocalProperty(MarkerKey, "1")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain within 60 s")
  }

  /** Jobs submitted while `body` ran. */
  def jobsOf(body: => Any): Int = {
    drain()
    val before = started.get
    body
    drain()
    started.get - before
  }
}
