package repro.perf

import java.util.Properties
import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.rules.Rule
import scala.collection.mutable

/** Spark work of one job or stage, as the listener saw it. */
final case class Work(jobs: Long = 0, tasks: Long = 0, cpuNs: Long = 0, shuffleBytes: Long = 0) {
  def +(o: Work): Work = Work(jobs + o.jobs, tasks + o.tasks, cpuNs + o.cpuNs, shuffleBytes + o.shuffleBytes)
  def cpuMs: Double = cpuNs / 1e6
  def shuffleKb: Double = shuffleBytes / 1024.0
}

/** A job as submitted: when, under which span (if the submitting thread
  * carried one), the engine layer its thread was in (if tagged, see
  * [[LayerTag]]), its stages, and the call site Spark recorded for it.
  */
final case class JobRec(id: Int, submitMs: Long, span: Long, layer: Option[String], callSite: String,
                        stageIds: Seq[Int], var endMs: Long = -1L, var work: Work = Work(jobs = 1))

/** Counts Spark work for the benchmark: every job, and the tasks, executor
  * CPU and shuffle bytes of every completed stage, charged to the first job
  * that lists the stage (the one that ran it; later jobs skip it).
  *
  * Listener events arrive asynchronously. [[drain]] runs a marker job and
  * waits for its end event; the bus delivers events in order, so once the
  * marker has ended every earlier event has been seen. Marker jobs are not
  * counted.
  */
final class Probe(sc: SparkContext) extends SparkListener {
  import Probe._

  private val jobList = mutable.ArrayBuffer.empty[JobRec]
  private val jobsById = mutable.Map.empty[Int, JobRec]
  private val stageOwner = mutable.Map.empty[Int, JobRec]
  private var markerJob = -1
  @volatile private var markerDone: CountDownLatch = new CountDownLatch(0)

  private def spanOf(p: Properties): Long =
    Option(p).flatMap(x => Option(x.getProperty(SpanKey))).map(_.toLong).getOrElse(NoSpan)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(_.getProperty(MarkerKey) != null)) markerJob = e.jobId
    else {
      val site = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name
      val layer = Option(e.properties).flatMap(p => Option(p.getProperty(LayerTag.Key)))
      val r = JobRec(e.jobId, e.time, spanOf(e.properties), layer, site, e.stageInfos.map(_.stageId))
      jobList += r
      jobsById(e.jobId) = r
      r.stageIds.foreach(stageOwner.getOrElseUpdate(_, r))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob) markerDone.countDown()
    else jobsById.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stageOwner.get(i.stageId).foreach { j =>
      val m = i.taskMetrics
      val (cpu, shuffle) = if (m == null) (0L, 0L) else (m.executorCpuTime, m.shuffleWriteMetrics.bytesWritten)
      j.work = j.work + Work(0, i.numTasks.toLong, cpu, shuffle)
    }
  }

  /** Wait until every event posted before this call has been delivered. */
  def drain(): Unit = {
    val latch = new CountDownLatch(1)
    markerDone = latch
    sc.setLocalProperty(MarkerKey, "1")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain within 60 s")
  }

  def jobs: Seq[JobRec] = synchronized(jobList.toSeq)

  /** Work of the jobs submitted in `[fromMs, toMs]`. */
  def workBetween(fromMs: Long, toMs: Long): Work = synchronized {
    jobList.filter(r => r.submitMs >= fromMs && r.submitMs <= toMs).map(_.work).foldLeft(Work())(_ + _)
  }
}

object Probe {
  /** Local property carrying the id of the span open on the submitting thread. */
  val SpanKey = "repro.perf.span"
  private val MarkerKey = "repro.perf.marker"
  val NoSpan: Long = -1L

  def attach(sc: SparkContext): Probe = {
    val p = new Probe(sc)
    sc.addSparkListener(p)
    p
  }
}

/** Tags each query with the engine layer that issued it, for jobs submitted
  * on a thread the benchmark cannot open spans on (the streaming thread
  * that runs MicroBatchDriver's batch callback).
  *
  * An identity optimizer rule runs synchronously on the thread that plans
  * each query; it reads that thread's stack and sets a local property, so
  * the jobs of the query (and the RDD jobs that follow it on the thread)
  * carry the layer of the outermost `Engine` call on the stack: `txn` for
  * dml/insert/createBaseTable/replaceBaseTable, `core` for the others
  * (refresh, initialization), `streaming` outside the engine. Enabled only
  * in traced runs.
  */
object LayerTag extends Rule[LogicalPlan] {
  val Key = "repro.perf.layer"
  @volatile var enabled = false

  def install(spark: SparkSession): Unit =
    spark.experimental.extraOptimizations = spark.experimental.extraOptimizations :+ this

  def apply(plan: LogicalPlan): LogicalPlan = {
    if (enabled) {
      val entry = Thread.currentThread.getStackTrace.reverseIterator.find(_.getClassName == "repro.core.Engine")
      val layer = entry.map(_.getMethodName) match {
        case Some("dml" | "insert" | "createBaseTable" | "replaceBaseTable") => "txn"
        case Some(_) => "core"
        case None => "streaming"
      }
      SparkSession.active.sparkContext.setLocalProperty(Key, layer)
    }
    plan
  }
}

/** One traced call: the benchmark opens a span around each public call it
  * makes into the engine (cycle → txn.dml, core.refresh/<dt>, core.read/<dt>).
  */
final case class Span(id: Long, name: String, parent: Long, startNs: Long, endNs: Long,
                      startMs: Long, endMs: Long, ok: Boolean) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Opens spans on the client thread and tags the Spark jobs submitted
  * under them. When tracing is off, [[apply]] only runs the body.
  */
final class Tracer(sc: SparkContext, var enabled: Boolean) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Long] = Nil
  private var nextId = 0L

  def spans: Seq[Span] = done.toSeq

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      nextId += 1
      val id = nextId
      val parent = stack.headOption.getOrElse(Probe.NoSpan)
      stack = id :: stack
      sc.setLocalProperty(Probe.SpanKey, id.toString)
      val (s0, m0) = (System.nanoTime(), System.currentTimeMillis())
      var ok = false
      try { val a = body; ok = true; a }
      finally {
        done += Span(id, name, parent, s0, System.nanoTime(), m0, System.currentTimeMillis(), ok)
        stack = stack.tail
        sc.setLocalProperty(Probe.SpanKey, stack.headOption.map(_.toString).orNull)
      }
    }
}
