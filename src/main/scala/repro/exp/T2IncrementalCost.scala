package repro.exp

import org.apache.spark.sql.SparkSession
import repro.{SynthCdc, SynthData}
import repro.core._
import repro.exp.Timing.timeMs
import repro.sched.SimClock

/** T2 — incremental vs full refresh cost across change fractions
  * (§3.3.2: incremental cost = fixed + variable, variable linear in the
  * amount of changed data; §6.3: 21% of refreshes change >10% of the DT,
  * motivating the ability to fall back to full refreshes).
  *
  * Three defining queries probe the cost model:
  *   - "linear": filter + projection — the delta query is proportional to
  *     the change, but the DT output is as large as the base, so applying
  *     the change set (O(|DT|) in this substrate) dominates; incremental
  *     wins modestly at best.
  *   - "aggregate": filter + grouped aggregation (small output, measured
  *     at 5× the base scale so per-row work dominates per-job overhead) —
  *     incremental wins clearly at small fractions and loses past the
  *     crossover.
  *   - "complex": join + aggregate — the affected-group recompute
  *     evaluates the join twice, a large *fixed* cost, illustrating
  *     "more complex queries have larger costs (both fixed and variable)".
  *
  * Measurement: one engine per query (setup amortized); each point is
  * measured `reps` times on fresh change intervals and the minimum is
  * kept (refresh latency noise is strictly additive).
  */
object T2IncrementalCost {

  final case class Point(fraction: Double, deltaRows: Long, tIncrMs: Double, tFullMs: Double) {
    def speedup: Double = tFullMs / math.max(tIncrMs, 1e-9)
  }
  final case class Result(query: String, baseRows: Long, points: Seq[Point]) {
    def table: String = Tables.render(
      s"T2 Incremental vs full refresh - $query (base $baseRows rows)",
      Seq("change fraction", "changed output rows", "t(INCREMENTAL)", "t(FULL)", "full/incr"),
      points.map(p => Seq(Tables.pct(p.fraction), p.deltaRows.toString,
        Tables.ms(p.tIncrMs), Tables.ms(p.tFullMs), f"${p.speedup}%.2fx")),
      Seq("paper: incremental wins when a small fraction changed; large fractions favour FULL"),
    )
  }

  /** (name, query, needs part table, scale multiplier vs `sf`). Sums use
    * DECIMAL: float aggregates are order-dependent, which interferes with
    * view maintenance — the same restriction Snowflake places on floats
    * that break IVM (§3.4).
    */
  def queries: Seq[(String, DtQuery, Boolean, Double)] = Seq(
    ("linear: filter+project(lineitem)",
      Project(Filter(Scan("lineitem"), "l_quantity > 5"),
        Seq("l_orderkey" -> "l_orderkey", "l_partkey" -> "l_partkey",
          "rev" -> "l_extendedprice * (1 - l_discount)")),
      false, 1.0),
    ("aggregate: filter+group-by-partkey (5x scale)",
      Aggregate(Filter(Scan("lineitem"), "l_quantity > 2"), Seq("l_partkey"),
        Seq("n" -> "count(1)", "qty" -> "sum(cast(l_quantity as decimal(14,6)))",
          "rev" -> "sum(cast(l_extendedprice as decimal(18,2)))")),
      false, 5.0),
    ("complex: join(lineitem,part)+agg",
      Aggregate(
        Join(Scan("lineitem"),
          Project(Scan("part"), Seq("pk" -> "p_partkey", "ptype" -> "p_type")),
          Seq("l_partkey"), Seq("pk")),
        Seq("ptype"), Seq("n" -> "count(1)", "qty" -> "sum(cast(l_quantity as decimal(14,6)))")),
      true, 1.0),
  )

  def run(spark: SparkSession, sf: Double = 0.1,
          fractions: Seq[Double] = Seq(0.0002, 0.002, 0.02, 0.1, 0.5),
          reps: Int = 2): Seq[Result] =
    queries.map { case (name, q, needsPart, mult) =>
      Result(name, (6_000_000L * sf * mult).toLong, measureQuery(spark, sf * mult, fractions, reps, q, needsPart))
    }

  def measureQuery(spark: SparkSession, sf: Double, fractions: Seq[Double], reps: Int,
                   q: DtQuery, needsPart: Boolean): Seq[Point] = {
    Cleanup.dropCaches(spark) // previous query's engine is dead
    val clock = new SimClock(1000)
    val engine = new Engine(spark, clock)
    engine.createBaseTable("lineitem", SynthData.lineitem(spark, sf))
    if (needsPart) engine.createBaseTable("part", SynthData.part(spark, math.max(sf, 0.05)))
    val baseRows = (6_000_000L * sf).toLong
    engine.createDynamicTable(DtSpec("dt_incr", q, LagSeconds(600), IncrementalMode))
    engine.createDynamicTable(DtSpec("dt_full", q, LagSeconds(600), FullMode))

    var seedTick = 0
    def oneRefreshPair(fraction: Double): Point = {
      seedTick += 1
      clock.advance(10)
      SynthCdc.applyChangeFraction(engine, "lineitem", baseRows, fraction, seed = seedTick,
        n => SynthCdc.lineitemRows(spark, n, seed = 1000 + seedTick))
      clock.advance(10)
      val ts = clock.nowSeconds
      val (ri, tIncr) = timeMs(engine.refresh("dt_incr", ts))
      val (_, tFull) = timeMs(engine.refresh("dt_full", ts))
      require(ri.action == IncrementalRefresh, s"expected INCREMENTAL, got ${ri.action}")
      Point(fraction, ri.changedRows, tIncr, tFull)
    }

    // Warm-up: two untimed rounds so codegen/JIT/shuffle are hot.
    oneRefreshPair(0.0005); oneRefreshPair(0.0005)

    fractions.map { f =>
      val ps = Seq.fill(reps)(oneRefreshPair(f))
      Point(f, ps.map(_.deltaRows).max, ps.map(_.tIncrMs).min, ps.map(_.tFullMs).min)
    }
  }
}
