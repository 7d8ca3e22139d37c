package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.core._
import repro.exp.Timing.timeMs
import repro.sched.SimClock
import repro.streaming.{MicroBatchDriver, StreamingIvm}
import scala.util.Random

/** Event record for the T6 stream (top-level for Catalyst encoding). */
final case class T6Event(k: String, v: Double, ts: java.sql.Timestamp)

/** T6 — micro-batch DT maintenance vs native Structured Streaming
  * (the repro-band mapping: Dynamic Tables ≙ Structured Streaming
  * incremental view maintenance over micro-batches; §5 cites Discretized
  * Streams as the execution model).
  *
  * The same keyed aggregation is maintained three ways:
  *   1. full recompute of the defining query (ground truth);
  *   2. our DT engine, fed one micro-batch per refresh interval;
  *   3. Spark Structured Streaming stateful aggregation with a watermark.
  * All three must agree on the final result; per-batch refresh latency of
  * the DT engine is reported.
  */
object T6StreamingParity {

  final case class BatchRow(batch: Int, rows: Long, action: String, refreshMs: Double)
  final case class Result(batches: Seq[BatchRow], engineMatchesRecompute: Boolean,
                          engineMatchesStreaming: Boolean, totalRows: Long) {
    def table: String = Tables.render(
      "T6 Streaming parity: DT engine micro-batches vs Structured Streaming",
      Seq("micro-batch", "rows", "refresh action", "refresh latency"),
      batches.map(b => Seq(b.batch.toString, b.rows.toString, b.action, Tables.ms(b.refreshMs))),
      Seq(
        s"final DT == full recompute: $engineMatchesRecompute",
        s"final DT == structured-streaming stateful aggregation: $engineMatchesStreaming",
        s"total rows ingested: $totalRows",
      ),
    )
  }

  def run(spark: SparkSession, nBatches: Int = 5, rowsPerBatch: Int = 2000, seed: Long = 11L): Result = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val rng = new Random(seed)

    def batch(i: Int): Seq[T6Event] = Seq.fill(rowsPerBatch)(
      T6Event(s"k${rng.nextInt(50)}", rng.nextInt(100).toDouble,
        new java.sql.Timestamp((i * 60L + rng.nextInt(60)) * 1000L)))

    // --- DT engine side ---
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("events", Seq.empty[T6Event].toDF())
    val q = Aggregate(Scan("events"), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    engine.createDynamicTable(DtSpec("agg", q, LagSeconds(60)))

    val stream = MemoryStream[T6Event]
    val driver = new MicroBatchDriver(engine, clock, "events")
    val engineQuery = driver.attach(stream.toDF())

    // --- native Structured Streaming side (same data, second stream) ---
    val ssStream = MemoryStream[T6Event]
    val ssAgg = StreamingIvm.keyedAggregate(ssStream.toDF(), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)"))
    val ssQuery = ssAgg.writeStream.format("memory").queryName("t6_ss_agg").outputMode("complete").start()

    val batchRows = Seq.newBuilder[BatchRow]
    var total = 0L
    try {
      for (i <- 1 to nBatches) {
        val data = batch(i)
        total += data.size
        val before = driver.refreshResults.size
        val (_, ms) = timeMs { stream.addData(data: _*); engineQuery.processAllAvailable() }
        val action = driver.refreshResults.drop(before).lastOption.map(_.action.toString).getOrElse("-")
        batchRows += BatchRow(i, data.size.toLong, action, ms)
        ssStream.addData(data: _*)
        ssQuery.processAllAvailable()
      }
    } finally { engineQuery.stop(); ssQuery.stop() }

    def diffEmpty(a: org.apache.spark.sql.DataFrame, b: org.apache.spark.sql.DataFrame): Boolean =
      Weighted.consolidate(Weighted.fromSnapshot(a).unionByName(Weighted.negate(Weighted.fromSnapshot(b)))).isEmpty

    val dt = engine.read("agg")
    val recompute = Eval.snapshot(q, _ => engine.read("events"))
    val ss = spark.table("t6_ss_agg")
    Result(batchRows.result(), diffEmpty(dt, recompute), diffEmpty(dt, ss), total)
  }
}
