package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._
import repro.exp.Timing.timeMs
import repro.sched.SimClock

/** T4 — operator coverage and incremental speedup (§3.3.2 operator list +
  * Figure 6's operator mix): for each operator class, whether incremental
  * refresh is supported, whether the maintained result equals a full
  * recompute after a 1% change, and the measured refresh times.
  */
object T4OperatorCoverage {

  final case class Row(operator: String, supported: Boolean, action: String,
                       correct: Boolean, tIncrMs: Double, tFullMs: Double)

  final case class Result(rows: Seq[Row], baseRows: Long) {
    def table: String = Tables.render(
      s"T4 Operator coverage at 1% change (base $baseRows rows)",
      Seq("operator", "incremental supported", "action taken", "matches recompute", "t(incr)", "t(full)"),
      rows.map(r => Seq(r.operator, r.supported.toString, r.action, r.correct.toString,
        Tables.ms(r.tIncrMs), Tables.ms(r.tFullMs))),
      Seq("paper §3.3.2: supported = projections, filters, union-all, inner/outer joins, " +
        "flatten, distinct/grouped aggregation, partitioned windows; not scalar aggregates"),
    )
  }

  /** Operator test matrix; `fact` has (k, i, v), `dim` has (dk, region). */
  def operators: Seq[(String, DtQuery)] = Seq(
    "filter" -> Filter(Scan("fact"), "v >= 0.3"),
    "projection" -> Project(Scan("fact"), Seq("k" -> "k", "v2" -> "v * 2")),
    "union-all" -> UnionAll(Filter(Scan("fact"), "v < 0.6"), Filter(Scan("fact"), "v >= 0.4")),
    "inner join" -> Join(Scan("fact"), Scan("dim"), Seq("k"), Seq("dk")),
    "left outer join" -> Join(Scan("fact"), Scan("dim"), Seq("k"), Seq("dk"), "left"),
    "full outer join" -> Join(Scan("fact"), Scan("dim"), Seq("k"), Seq("dk"), "full"),
    "lateral flatten" -> LateralFlatten(Scan("fact"), "array(i, i + 1)", "e"),
    "distinct" -> Distinct(Project(Scan("fact"), Seq("k" -> "k", "i" -> "i"))),
    // Decimal sums: float aggregates are order-dependent and would break
    // the exact merge against stored rows (§3.4 FP restriction).
    "grouped aggregate" -> Aggregate(Scan("fact"), Seq("i"),
      Seq("n" -> "count(1)", "s" -> "sum(cast(v as decimal(20,10)))")),
    "window (partitioned)" -> WindowOp(Scan("fact"), Seq("i"),
      Seq("k" -> "k", "i" -> "i", "v" -> "v",
        "csum" -> "sum(cast(v as decimal(20,10))) over (partition by i order by v, k rows between unbounded preceding and current row)")),
    "scalar aggregate" -> Aggregate(Scan("fact"), Nil,
      Seq("n" -> "count(1)", "s" -> "sum(cast(v as decimal(20,10)))")),
  )

  def run(spark: SparkSession, rows: Long = 100_000L, nKeys: Long = 10_000L): Result = {
    val out = operators.map { case (name, q) =>
      Cleanup.dropCaches(spark) // previous operator's engine is dead
      val clock = new SimClock(1000)
      val e = new Engine(spark, clock)
      val fact = SynthData.uniformKeys(spark, rows, nKeys)
        .select(col("k"), (col("k") % 100).cast("int").as("i"), col("v"))
      e.createBaseTable("fact", fact)
      if (q.sources.contains("dim"))
        e.createBaseTable("dim", spark.range(1, nKeys + 1).select(col("id").as("dk"),
          concat(lit("r"), (col("id") % 7).cast("string")).as("region")))
      val supported = q.incrementallySupported
      val mode = if (supported) IncrementalMode else FullMode
      e.createDynamicTable(DtSpec("dt", q, LagSeconds(600), mode))
      e.createDynamicTable(DtSpec("dt_full_ref", q, LagSeconds(600), FullMode))

      clock.advance(10)
      val changed = math.max(1L, rows / 100)
      val inserts = SynthData.uniformKeys(spark, changed, nKeys, seed = 99)
        .select(col("k"), (col("k") % 100).cast("int").as("i"), col("v"))
      val deletes = e.read("fact").orderBy(xxhash64(col("k"), col("v"))).limit((changed / 2).toInt)
      e.dml("fact", inserts, deletes)
      clock.advance(10)
      val ts = clock.nowSeconds
      val (ri, tIncr) = timeMs(e.refresh("dt", ts))
      val (_, tFull) = timeMs(e.refresh("dt_full_ref", ts))
      // correctness: maintained contents equal a from-scratch evaluation
      val recompute = Eval.snapshot(q, s => e.read(s))
      val diff = Weighted.consolidate(
        Weighted.fromSnapshot(e.read("dt")).unionByName(Weighted.negate(Weighted.fromSnapshot(recompute))))
      val correct = diff.isEmpty
      Row(name, supported, ri.action.toString, correct, tIncr, tFull)
    }
    Result(out, rows)
  }
}
