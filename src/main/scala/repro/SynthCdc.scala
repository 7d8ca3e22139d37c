package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit, xxhash64}
import repro.core.Engine

/** CDC workload generation on top of [[SynthData]]: deterministic batches
  * of inserts and deletes against the TPC-H-lite tables, parameterized by
  * change fraction — the knob the paper's cost model (§3.3.2) and the
  * §6.3 changed-rows statistics are about.
  */
object SynthCdc {

  /** `n` fresh lineitem-shaped rows, deterministic in `seed`. */
  def lineitemRows(spark: SparkSession, n: Long, seed: Long): DataFrame =
    SynthData.lineitem(spark, sf = n.toDouble / 6_000_000L, seed = seed)

  /** `n` fresh orders-shaped rows with order keys offset so successive
    * batches do not collide.
    */
  def ordersRows(spark: SparkSession, n: Long, seed: Long, keyOffset: Long = 0L): DataFrame = {
    SynthData.orders(spark, sf = n.toDouble / 1_500_000L, seed = seed)
      .withColumn("o_orderkey", col("o_orderkey") + lit(keyOffset))
  }

  /** Build a change batch against the current contents of `table`:
    * `insertRows` new rows from `mkRows` plus `deleteRows` rows sampled
    * (deterministically by `seed`) from the table's current contents.
    */
  def changeBatch(
      engine: Engine,
      table: String,
      insertRows: Long,
      deleteRows: Long,
      seed: Long,
      mkRows: Long => DataFrame,
  ): (DataFrame, DataFrame) = {
    val inserts = mkRows(insertRows)
    val current = engine.read(table)
    val deletes =
      if (deleteRows <= 0) current.limit(0)
      else current.orderBy(xxhash64(lit(seed) +: current.columns.toSeq.map(current(_)): _*))
        .limit(deleteRows.toInt)
    (inserts, deletes)
  }

  /** Apply a change batch of `fraction` (inserts+deletes) of `baseRows`
    * to `table`: half inserts, half deletes.
    */
  def applyChangeFraction(
      engine: Engine,
      table: String,
      baseRows: Long,
      fraction: Double,
      seed: Long,
      mkRows: Long => DataFrame,
  ): Long = {
    val changed = math.max(1L, (baseRows * fraction).toLong)
    val ins = changed / 2 + changed % 2
    val del = changed / 2
    val (inserts, deletes) = changeBatch(engine, table, ins, del, seed, mkRows)
    engine.dml(table, inserts, deletes)
    changed
  }
}
