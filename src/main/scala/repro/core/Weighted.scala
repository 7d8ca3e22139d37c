package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Weighted multisets ("z-sets") over DataFrames.
  *
  * A weighted DataFrame carries the data columns of a relation plus a
  * [[Weighted.W]] column holding a signed multiplicity. A snapshot of a
  * relation is a weighted DataFrame with all-positive weights; a *delta*
  * (the change of a relation over a data-timestamp interval) may carry
  * negative weights for deletions. This is the internal representation
  * used by the differentiation framework (§5.5 of the paper); the
  * user-facing `$ROW_ID`/`$ACTION` change-set form is derived from it by
  * [[ChangeSet]].
  *
  * Invariants maintained by construction:
  *   - [[consolidate]] leaves at most one row per distinct data tuple,
  *     which is what guarantees the paper's "never more than 1 row for
  *     each unique ($ROW_ID, $ACTION) pair".
  *   - [[expand]] refuses negative weights — a negative weight in a
  *     stored table is exactly "delete of a row that does not exist".
  */
object Weighted {

  /** Name of the multiplicity column. Double underscore keeps it clear of
    * TPC-H-style identifiers used in defining queries.
    */
  val W = "__w"

  /** Data (non-weight) columns of a weighted DataFrame. */
  def dataCols(df: DataFrame): Seq[String] = df.columns.toSeq.filterNot(_ == W)

  /** Lift a plain relation to a weighted one (each row weight 1). */
  def fromSnapshot(df: DataFrame): DataFrame = df.withColumn(W, lit(1L))

  /** Sum weights of identical data tuples and drop zero-weight rows.
    * The result has at most one row per distinct data tuple.
    */
  def consolidate(df: DataFrame): DataFrame = {
    val cols = dataCols(df)
    df.groupBy(cols.map(col): _*)
      .agg(sum(col(W)).cast(LongType).as(W))
      .where(col(W) =!= 0L)
  }

  /** Negate all weights (set difference is `union` + [[negate]]). */
  def negate(df: DataFrame): DataFrame =
    df.withColumn(W, -col(W))

  /** Union of weighted relations with identical schemas (not consolidated). */
  def union(dfs: Seq[DataFrame]): DataFrame =
    dfs.reduceLeft(_.unionByName(_))

  /** Expand a weighted relation back into a plain multiset: a row of
    * weight `w > 0` becomes `w` identical rows. Throws at execution time
    * if any weight is negative (corrupt state / delete-of-missing-row).
    */
  def expand(df: DataFrame): DataFrame = {
    val cols = dataCols(df)
    nonNegative(df)
      .where(col(W) > 0L)
      .withColumn("__i", explode(sequence(lit(1L), col(W))))
      .select(cols.map(col): _*)
  }

  private val NegativeWeight = "negative multiplicity in weighted relation"

  /** `df` unchanged, except that evaluating it fails (`raise_error`) on the
    * first row with a negative weight. Lets a plan that is executed anyway
    * — a checkpointed merge — carry the "never delete a missing row" check
    * (§6.1) instead of a separate query over its result.
    */
  def nonNegative(df: DataFrame): DataFrame =
    df.withColumn(
      W,
      when(col(W) < 0L, raise_error(concat(lit(s"$NegativeWeight: "), col(W).cast("string"))))
        .otherwise(col(W))
    )

  /** True iff `e` (or one of its causes) is a [[nonNegative]] guard failure. */
  def isNegativeWeightFailure(e: Throwable): Boolean =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null)
      .exists(t => Option(t.getMessage).exists(_.contains(NegativeWeight)))

  /** Restrict `df` to rows whose key tuple appears in `keys` (null-safe
    * left-semi join). `keyExprs` are expressions over `df`'s columns that
    * produce the key tuple; `keys` must have columns `k0..k{n-1}`.
    */
  def semiJoinOnKeys(df: DataFrame, keyExprs: Seq[Column], keys: DataFrame): DataFrame = {
    val keyed = df.withColumns(keyExprs.zipWithIndex.map { case (e, i) => s"__sk$i" -> e }.toMap)
    // The affected-key set is small by construction (distinct keys of a
    // change interval) — broadcast it so the restriction is a single pass
    // over the snapshot, the substrate's analogue of Snowflake's runtime
    // pruning on row-id joins (§5.5.2).
    val small = broadcast(keys)
    val cond = keys.columns.toSeq.zipWithIndex
      .map { case (k, i) => keyed(s"__sk$i") <=> small(k) }
      .reduce(_ && _)
    keyed.join(small, cond, "left_semi").drop(keys.columns.toSeq.indices.map(i => s"__sk$i"): _*)
  }
}
