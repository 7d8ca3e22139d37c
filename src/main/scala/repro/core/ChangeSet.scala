package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import Weighted.W

/** The user-facing change-set form of a weighted delta (§5.5). Boundary
  * code: the engine keeps deltas weighted from differentiation to the
  * merge, and only [[Weighted.merge]] builds a row id, to name the pair
  * that fails validation #2 (§6.1).
  *
  * A change set has the query's output columns plus:
  *   - `$ACTION`  — "INSERT" or "DELETE";
  *   - `$ROW_ID`  — a stable identifier of the row: a plaintext prefix
  *     (first key value, §5.5.2 — improves runtime pruning of row-id
  *     joins) followed by a SHA-1 of all data columns;
  *   - `$MULT`    — multiplicity (our rows are weighted; duplicate data
  *     tuples share a row id and carry their count here, so a consolidated
  *     delta has at most one row per ($ROW_ID, $ACTION)).
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
}
