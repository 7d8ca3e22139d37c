package repro.core

import org.apache.spark.SparkThrowable
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, LongType}

/** Weighted multisets ("z-sets") over DataFrames.
  *
  * A weighted DataFrame carries the data columns of a relation plus a
  * [[Weighted.W]] column holding a signed multiplicity. A snapshot of a
  * relation is a weighted DataFrame with all-positive weights; a *delta*
  * (the change of a relation over a data-timestamp interval) may carry
  * negative weights for deletions. This is the representation the engine
  * uses from differentiation (§5.5) to the merge; the user-facing
  * `$ROW_ID`/`$ACTION` change-set form ([[ChangeSet]]) is boundary code.
  *
  * Invariants:
  *   - [[consolidate]] leaves at most one row per distinct data tuple;
  *   - [[merge]] fails when a change set has more than one row per data
  *     tuple and sign, which is the paper's "never more than 1 row for
  *     each unique ($ROW_ID, $ACTION) pair", or when it leaves a negative
  *     weight, a "delete of a row that does not exist" (§6.1);
  *   - [[expand]] refuses negative weights.
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
    df.withColumn(W, when(col(W) < 0L, raise_error(lit(NegativeWeight))).otherwise(col(W)))
      .where(col(W) > 0L)
      .withColumn("__i", explode(sequence(lit(1L), col(W))))
      .select(cols.map(col): _*)
  }

  /** Merge the change set `delta` into `snapshot`: `consolidate(snapshot ∪
    * delta)` under one `raise_error` guard on the weight, which carries two
    * §6.1 checks into the job that evaluates the merge anyway:
    *   - #2: more than one row of `delta` for one data tuple and sign. Row
    *     ids are injective, so this is more than one row per (`$ROW_ID`,
    *     `$ACTION`); the message builds the row id only when it fails;
    *   - #3: a negative merged weight, a delete of a row that is not present.
    * The delta's rows are tagged before the union so the group-by counts
    * them per sign. The guard is the weight the `W ≠ 0` filter reads, so it
    * runs on groups whose weights cancel too, and no pruning drops it.
    * [[violation]] reads a guard failure back.
    */
  def merge(snapshot: DataFrame, delta: DataFrame): DataFrame = {
    val cols = dataCols(snapshot)
    val w = sum(col(W)).cast(LongType)
    def deltaRows(sign: Column): Column = count(when(col(Tag) && sign, 1))
    val action = when(deltaRows(col(W) > 0L) > 1L, lit("INSERT")).when(deltaRows(col(W) < 0L) > 1L, lit("DELETE"))
    val pair = concat(lit(s"$DuplicatePair = ("), ChangeSet.rowIdExpr(cols), lit(", "), action, lit(")"))
    val failure = when(action.isNotNull, pair).otherwise(lit(NegativeWeight))
    snapshot.withColumn(Tag, lit(false)).unionByName(delta.withColumn(Tag, lit(true)))
      .groupBy(cols.map(col): _*)
      .agg(when(action.isNotNull || w < 0L, raise_error(failure)).otherwise(w).as(W))
      .where(col(W) =!= 0L)
  }

  /** The message of the [[merge]] or [[expand]] guard that failed, if `e`
    * or one of its causes is such a failure: [[NegativeWeight]] for #3, or
    * for #2 a message that names the offending (`$ROW_ID`, `$ACTION`) pair.
    * It is read from the error parameters of the `raise_error` exception,
    * not from its text.
    */
  def violation(e: Throwable): Option[String] =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).collectFirst {
      case t: SparkThrowable if t.getCondition == "USER_RAISED_EXCEPTION" =>
        t.getMessageParameters.getOrDefault("errorMessage", "")
    }.filter(m => m == NegativeWeight || m.startsWith(DuplicatePair))

  val NegativeWeight = "negative multiplicity in weighted relation"
  private val DuplicatePair = "change set has more than one row for ($ROW_ID, $ACTION)"
  private val Tag = "__delta"

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
