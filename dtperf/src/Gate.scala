package repro.perf

import org.apache.spark.sql.DataFrame
import repro.core.{DtQuery, Engine, Eval, Weighted}

/** The correctness gate, run outside the timed phase.
  *
  * Delayed view semantics (§6.1): a DT read at its data timestamp equals its
  * defining query evaluated over its sources as of that timestamp — base
  * tables at their latest version at or before it, upstream DTs at exactly
  * it. Each check is an operation of the run; a mismatch fails it.
  */
object Gate {

  /** Rows in the multiset difference of two plain relations (0 = equal). */
  def diffRows(a: DataFrame, b: DataFrame): Long =
    Weighted.consolidate(Weighted.fromSnapshot(a).unionByName(Weighted.negate(Weighted.fromSnapshot(b)))).count()

  /** Contents of source `s` visible at data timestamp `ts`. */
  def sourceAt(engine: Engine, s: String, ts: Long): DataFrame =
    if (engine.isDt(s)) engine.readAt(s, ts)
    else Weighted.expand(engine.tm.table(s).versionAtOrBefore(ts)
      .getOrElse(throw new IllegalStateException(s"base table $s has no version at or before $ts")).snapshot)

  /** §6.1 check of one DT at its current data timestamp. */
  def dvs(run: Run, engine: Engine, dt: String): Unit = check(run, s"gate.dvs", dt) {
    val ts = engine.dataTimestamp(dt)
    diffRows(engine.readAt(dt, ts), Eval.snapshot(engine.dtState(dt).spec.query, s => sourceAt(engine, s, ts)))
  }

  /** The DT's latest contents against `q` recomputed over the latest base
    * tables (the full-recompute check of a streaming pipeline).
    */
  def recompute(run: Run, engine: Engine, dt: String, q: DtQuery): Unit = check(run, "gate.recompute", dt) {
    diffRows(engine.read(dt), Eval.snapshot(q, s => engine.read(s)))
  }

  private def check(run: Run, kind: String, dt: String)(diff: => Long): Unit =
    run.op(kind, dt)(diff)(d => ("CHECK", d)).foreach { d =>
      if (d != 0L) {
        run.ops(run.ops.size - 1) = run.ops.last.copy(ok = false, action = "MISMATCH")
        run.errors += s"$kind $dt: DT differs from its defining query by $d row(s)"
      }
    }
}
