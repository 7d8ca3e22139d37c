package repro.streaming

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.{Engine, RefreshResult}
import repro.sched.{EngineScheduler, RefreshFailure, SimClock}
import scala.collection.mutable

/** Bridges Spark Structured Streaming into the dynamic-table engine.
  *
  * Dynamic Tables implement micro-batch processing (§5, citing
  * Discretized Streams [33]); the repro hint maps them onto Structured
  * Streaming. This driver consumes a streaming DataFrame with
  * `foreachBatch`: every micro-batch is committed as a base-table DML
  * transaction, the (virtual) clock advances by one batch period, and the
  * DT graph is refreshed at the new data timestamp — so each micro-batch
  * is exactly one refresh interval. A DT whose refresh fails is recorded
  * in [[failures]]; the other DTs still refresh and the query keeps
  * running (§3.3.3).
  */
final class MicroBatchDriver(
    engine: Engine,
    clock: SimClock,
    targetTable: String,
    batchPeriodSeconds: Long = 48L,
) {
  private val scheduler = new EngineScheduler(engine, clock)
  private val results = mutable.ArrayBuffer.empty[RefreshResult]
  private var lastBatchId = -1L

  /** Refresh outcomes of all micro-batches processed so far. */
  def refreshResults: Seq[RefreshResult] = synchronized(results.toSeq)

  /** Refreshes that failed in the micro-batches processed so far. */
  def failures: Seq[RefreshFailure] = synchronized(scheduler.failures)

  /** Start consuming `stream` (an append-only streaming DataFrame whose
    * schema matches `targetTable`).
    */
  def attach(stream: DataFrame): StreamingQuery =
    stream.writeStream
      .outputMode("append")
      .foreachBatch((batch: DataFrame, batchId: Long) => commitBatch(batch, batchId))
      .start()

  /** Commit micro-batch `batchId`: insert its rows into `targetTable` (if
    * any), advance the clock by one batch period and refresh the DT graph
    * at the new data timestamp. A batch id at or below the last one
    * committed is a replay (`foreachBatch` delivers at least once) and
    * changes nothing.
    */
  def commitBatch(batch: DataFrame, batchId: Long): Unit = synchronized {
    if (batchId > lastBatchId) {
      // Pin the micro-batch contents: the batch plan is only valid within
      // the callback, but versions must outlive it.
      val rows: java.util.List[Row] = batch.collectAsList()
      if (!rows.isEmpty) engine.insert(targetTable, batch.sparkSession.createDataFrame(rows, batch.schema))
      clock.advance(batchPeriodSeconds)
      results ++= scheduler.refreshAllAt(clock.nowSeconds)
      lastBatchId = batchId
    }
  }
}
