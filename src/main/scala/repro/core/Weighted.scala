package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, LongType}

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
    * produce the key tuple; `keys` must have columns `k0..k{n-1}`. Spark
    * picks the join strategy from the size of `keys`: nothing forces a
    * broadcast, so a large key set cannot exhaust the driver.
    */
  def semiJoinOnKeys(df: DataFrame, keyExprs: Seq[Column], keys: DataFrame): DataFrame = {
    val keyed = df.withColumns(keyExprs.zipWithIndex.map { case (e, i) => s"__sk$i" -> e }.toMap)
    val cond = keys.columns.toSeq.zipWithIndex
      .map { case (k, i) => keyed(s"__sk$i") <=> keys(k) }
      .reduce(_ && _)
    keyed.join(keys, cond, "left_semi").drop(keys.columns.toSeq.indices.map(i => s"__sk$i"): _*)
  }

  /** Null-safe membership of the key tuple `keys` in `tuples`, a filter
    * over literals: no join, so no exchange and no extra Spark job. Each
    * pattern of NULL positions in `tuples` is one arm: `IS NULL` on the
    * NULL positions and one `isin` over the rest (over a struct when more
    * than one key is left), which Catalyst turns into an `InSet` above
    * ten values.
    * Keys and values are cast to `types`, one atomic type per key.
    */
  def keyIn(keys: Seq[Column], types: Seq[DataType], tuples: Seq[Seq[Any]]): Column = {
    val typed = keys.zip(types).map { case (k, t) => k.cast(t) }
    def value(t: Seq[Any], i: Int): Column = lit(t(i)).cast(types(i))
    tuples.groupBy(_.map(_ == null)).map { case (isNull, group) =>
      val nulls = typed.indices.filter(isNull).map(typed(_).isNull)
      val members = typed.indices.filterNot(isNull) match {
        case Seq()  => None
        case Seq(i) => Some(typed(i).isin(group.map(value(_, i)): _*))
        case is     => Some(struct(is.map(i => typed(i).as(s"k$i")): _*).isin(
          group.map(t => struct(is.map(i => value(t, i).as(s"k$i")): _*)): _*))
      }
      (nulls ++ members).reduce(_ && _)
    }.foldLeft(lit(false))(_ || _)
  }
}
