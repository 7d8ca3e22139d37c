package repro

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.Engine
import repro.sched.SimClock

/** Shared helpers for engine-level tests: deterministic row comparison
  * (order-insensitive, numeric-tolerant, same canonicalization as the
  * DuckDB oracle) and engine construction on a virtual clock.
  */
trait ReproSpec extends SparkSpec {

  /** Engine on a fresh virtual clock starting at t=1000 s. */
  def newEngine(start: Long = 1000L): (Engine, SimClock) = {
    val clock = new SimClock(start)
    (new Engine(spark, clock), clock)
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx = order.map(cols.indexOf)
    rows.map(r => idx.map { i =>
      r.get(i) match {
        case null                     => "∅"
        case d: Double                => f"$d%.6f"
        case f: Float                 => f"${f.toDouble}%.6f"
        case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
        case x                        => x.toString
      }
    }).sortBy(_.mkString("|"))
  }

  /** Assert two DataFrames hold the same multiset of rows (schema column
    * sets must match; order-insensitive).
    */
  def assertSameRows(actual: DataFrame, expected: DataFrame, hint: String = ""): Unit = {
    val aCols = actual.columns.toSeq
    val eCols = expected.columns.toSeq
    assert(aCols.map(_.toLowerCase).sorted == eCols.map(_.toLowerCase).sorted,
      s"$hint column mismatch: ${aCols.sorted} vs ${eCols.sorted}")
    val a = canon(actual.collect().toSeq, aCols)
    val e = canon(expected.collect().toSeq, eCols)
    assert(a == e,
      s"$hint row mismatch (${a.size} vs ${e.size} rows)\n  only-actual: ${a.diff(e).take(3)}\n  only-expected: ${e.diff(a).take(3)}")
  }
}
