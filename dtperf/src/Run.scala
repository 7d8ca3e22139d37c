package repro.perf

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.{Engine, NoData, RefreshResult}
import scala.collection.mutable

/** One attempted call into the engine, recorded whether or not it failed.
  * `cycle` is -1 outside the timed phase; `span` is the traced span id.
  */
final case class Op(kind: String, dt: String, cycle: Int, ms: Double, ok: Boolean,
                    action: String, rows: Long, span: Long)

/** One timed cycle: its freshness latency (commit start → last refresh
  * that makes the change visible in every DT due at that tick), its whole
  * wall time (every tick and read of the cycle), the base rows it changed,
  * and its span when the cycle was traced.
  */
final case class Cycle(index: Int, latencyMs: Double, wallMs: Double, changeRows: Long, span: Long, traced: Boolean,
                       stealPct: Double)

/** Failure accounting and timing for every call the benchmark makes.
  *
  * Every DML, refresh, read and micro-batch is attempted and counted; an
  * exception is recorded as a failed operation and never swallowed
  * silently. A refresh skipped because its DT auto-suspended is a failed
  * refresh.
  */
final class Run(val probe: Probe, val trace: Tracer) {
  val ops = mutable.ArrayBuffer.empty[Op]
  val cycles = mutable.ArrayBuffer.empty[Cycle]
  val errors = mutable.ArrayBuffer.empty[String]
  /** Index of the timed cycle in progress, or -1. */
  var cycle: Int = -1

  def attempted: Int = ops.size
  def failed: Int = ops.count(!_.ok)

  private def lastSpan: Long = trace.spans.lastOption.map(_.id).getOrElse(Probe.NoSpan)

  /** Run `body` as one operation of `kind` on `dt`; `None` if it failed. */
  def op[A](kind: String, dt: String)(body: => A)(describe: A => (String, Long)): Option[A] = {
    val t0 = System.nanoTime()
    val res = try Right(trace(s"$kind/$dt")(body)) catch { case e: Exception => Left(e) }
    val ms = (System.nanoTime() - t0) / 1e6
    val span = if (trace.enabled) lastSpan else Probe.NoSpan
    res match {
      case Right(a) =>
        val (action, rows) = describe(a)
        ops += Op(kind, dt, cycle, ms, ok = true, action, rows, span)
        Some(a)
      case Left(e) =>
        ops += Op(kind, dt, cycle, ms, ok = false, "FAILED", 0L, span)
        errors += s"$kind $dt: ${e.getClass.getSimpleName}: ${Option(e.getMessage).getOrElse("").take(300)}"
        None
    }
  }

  def dml(engine: Engine, table: String, inserts: DataFrame, deletes: DataFrame, rows: Long): Boolean =
    op("txn.dml", table)(engine.dml(table, inserts, deletes))(_ => ("DML", rows)).isDefined

  def refresh(engine: Engine, dt: String, ts: Long): Option[RefreshResult] =
    if (engine.dtState(dt).suspended) {
      ops += Op("core.refresh", dt, cycle, 0.0, ok = false, "SUSPENDED", 0L, Probe.NoSpan)
      errors += s"core.refresh $dt: skipped, DT is suspended"
      None
    } else op("core.refresh", dt)(engine.refresh(dt, ts))(r => (r.action.toString, r.changedRows))

  def read(engine: Engine, dt: String): Option[Array[Row]] =
    op("core.read", dt)(engine.read(dt).collect())(rows => ("READ", rows.length.toLong))

  /** Time one cycle of the timed phase. `body` returns (freshness latency
    * in ms, base change rows committed).
    */
  def timedCycle(index: Int)(body: => (Double, Long)): Unit = {
    cycle = index
    val host0 = Diagnostics.cpuTicks()
    val t0 = System.nanoTime()
    val (lat, rows) = trace("cycle")(body)
    cycles += Cycle(index, lat, (System.nanoTime() - t0) / 1e6, rows, if (trace.enabled) lastSpan else Probe.NoSpan, trace.enabled,
      Diagnostics.steal(host0, Diagnostics.cpuTicks()))
    cycle = -1
  }

  def isNoData(o: Op): Boolean = o.action == NoData.toString
}

/** Order statistics as Python's `statistics` module computes them, so the
  * medians printed here match a reader's own analysis of the raw values.
  */
object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def medianOr(xs: Seq[Double], empty: Double): Double = if (xs.isEmpty) empty else median(xs)

  /** Mean over keys of each key's median. Reads of different DTs differ
    * in size; a median over all of them would sit between two DTs' reads
    * when their count is even.
    */
  def meanOfMedians(xs: Seq[(String, Double)]): Double = {
    val per = xs.groupBy(_._1).values.map(g => median(g.map(_._2)))
    if (per.isEmpty) 0.0 else per.sum / per.size
  }
}
