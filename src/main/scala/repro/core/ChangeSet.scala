package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import Weighted.W

/** The user-facing change-set form of a weighted delta (§5.5).
  *
  * A change set has the query's output columns plus:
  *   - `$ACTION`  — "INSERT" or "DELETE";
  *   - `$ROW_ID`  — a stable identifier of the row: a plaintext prefix
  *     (first key value, §5.5.2 — improves runtime pruning of row-id
  *     joins) followed by a SHA-1 of all data columns;
  *   - `$MULT`    — multiplicity (our rows are weighted; duplicate data
  *     tuples share a row id and carry their count here, which is what
  *     makes the ≤1-row-per-($ROW_ID,$ACTION) invariant exact).
  */
object ChangeSet {
  val Action = "$ACTION"
  val RowId = "$ROW_ID"
  val Mult = "$MULT"

  /** Row id expression over `cols`: plaintext prefix from the first
    * column, then sha1 over the null-tagged concatenation of all columns.
    * Fields are joined by `\u0001` and NULL is written `\u0000`; inside a
    * value, `\u0002`, `\u0001` and `\u0000` are escaped as `\u0002`
    * followed by '2', '1' and '0', so distinct tuples never share a
    * payload, and a value without those characters keeps its bytes.
    */
  def rowIdExpr(cols: Seq[String]) = {
    def escaped(c: Column): Column =
      Seq("\u0002" -> "2", "\u0001" -> "1", "\u0000" -> "0").foldLeft(c) { case (v, (ch, tag)) =>
        replace(v, lit(ch), lit("\u0002" + tag))
      }
    val prefix = substring(coalesce(col(cols.head).cast("string"), lit("null")), 0, 8)
    val payload = concat_ws("\u0001", cols.map(c => coalesce(escaped(col(c).cast("string")), lit("\u0000"))): _*)
    concat(prefix, lit("-"), sha1(payload))
  }

  /** Convert a consolidated weighted delta to a change set. */
  def fromWeighted(delta: DataFrame): DataFrame = {
    val cols = Weighted.dataCols(delta)
    delta
      .withColumn(Action, when(col(W) > 0, lit("INSERT")).otherwise(lit("DELETE")))
      .withColumn(Mult, abs(col(W)))
      .withColumn(RowId, rowIdExpr(cols))
      .drop(W)
  }

  /** Back to weighted form. */
  def toWeighted(changes: DataFrame): DataFrame = {
    val cols = changes.columns.toSeq.filterNot(Set(Action, RowId, Mult))
    changes
      .withColumn(W, when(col(Action) === "INSERT", col(Mult)).otherwise(-col(Mult)))
      .select(cols.map(col) :+ col(W): _*)
  }

  /** §6.1 production invariant #2: never more than one row per
    * ($ROW_ID, $ACTION) pair. Returns the violating pairs; empty when the
    * invariant holds. One Spark job: a count per pair over the plan's
    * rows, reduced by key. The result is only non-empty when a delta rule
    * failed to consolidate.
    */
  def duplicateActionPairs(changes: DataFrame): Seq[(String, String)] =
    changes.select(col(RowId), col(Action)).queryExecution.toRdd
      .map(r => (r.getUTF8String(0).toString, r.getUTF8String(1).toString) -> 1L)
      .reduceByKey(_ + _).filter(_._2 > 1).keys.collect().toSeq
}
