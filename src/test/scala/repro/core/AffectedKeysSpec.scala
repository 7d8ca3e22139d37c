package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.LeftSemi
import org.apache.spark.sql.catalyst.plans.logical.{Join => PlanJoin}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeExec, ShuffleExchangeExec}
import repro.ReproSpec

/** The affected-key restriction of the keyed delta rules (§5.5.1) and the
  * broadcast choice of the inner-join rule, on both sides of
  * [[Differentiator.SmallChange]]: NULL keys on one and two columns, and a
  * delta just above the threshold, which takes the semi-join fallback.
  * Every refreshed DT must equal its defining query at the new data
  * timestamp (§6.1).
  */
class AffectedKeysSpec extends ReproSpec with AdaptiveSparkPlanHelper {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private val T = Differentiator.SmallChange

  private def events(rows: Seq[(Option[Int], Option[String], Long)]): DataFrame = rows.toDF("k", "k2", "v")
  private val dim = Seq[(Option[Int], String)]((Some(1), "east"), (Some(2), "west"), (None, "nowhere"))

  private val keyed: Seq[(String, DtQuery)] = Seq(
    "agg1" -> Aggregate(Scan("events"), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)")),
    "agg2" -> Aggregate(Scan("events"), Seq("k", "k2"), Seq("n" -> "count(1)", "s" -> "sum(v)")),
    "dist1" -> Distinct(Project(Scan("events"), Seq("k" -> "k"))),
    "dist2" -> Distinct(Scan("events")),
    "win1" -> WindowOp(Scan("events"), Seq("k"),
      Seq("k" -> "k", "k2" -> "k2", "v" -> "v", "s" -> "sum(v) over (partition by k)")),
    "win2" -> WindowOp(Scan("events"), Seq("k", "k2"),
      Seq("k" -> "k", "k2" -> "k2", "v" -> "v", "s" -> "sum(v) over (partition by k, k2)")),
    "left" -> Join(Scan("events"), Scan("dim"), Seq("k"), Seq("dk"), "left"),
  )
  private val inner: (String, DtQuery) = "inner" -> Join(Scan("events"), Scan("dim"), Seq("k"), Seq("dk"))

  private val initial = Seq(
    (Some(1), Some("a"), 1L), (Some(1), None, 2L), (None, Some("a"), 3L), (None, None, 4L), (Some(2), Some("b"), 5L))

  /** Refresh every DT after `change` and compare each with a recompute. */
  private def refreshAfter(change: Engine => Unit): Unit = {
    val (e, clock) = newEngine()
    e.createBaseTable("events", events(initial))
    e.createBaseTable("dim", dim.toDF("dk", "region"))
    (keyed :+ inner).foreach { case (dt, q) => e.createDynamicTable(DtSpec(dt, q, LagSeconds(600))) }
    clock.advance(10)
    change(e)
    clock.advance(10)
    val ts = clock.nowSeconds
    (keyed :+ inner).foreach { case (dt, q) =>
      assert(e.refresh(dt, ts).action == IncrementalRefresh, dt)
      assertSameRows(e.read(dt), Eval.snapshot(q, e.read), dt)
    }
  }

  test("NULL group, partition and distinct keys on one and two columns refresh equal to a recompute") {
    refreshAfter(_.dml("events",
      events(Seq((None, Some("a"), 7L), (Some(1), None, 8L), (None, None, 9L), (Some(3), None, 10L))),
      events(Seq((None, None, 4L), (Some(1), Some("a"), 1L)))))
  }

  /** `n` rows over 60 keys, with a NULL in one key column or both. */
  private def bulk(n: Int): Seq[(Option[Int], Option[String], Long)] =
    (0 until n).map(i => (if (i % 7 == 0) None else Some(i % 60), if (i % 5 == 0) None else Some(s"b${i % 3}"), i.toLong))

  test("a delta just above SmallChange takes the fallback and refreshes equal to a recompute") {
    refreshAfter(_.dml("events", events(bulk(T + 1)), events(Seq((None, Some("a"), 3L)))))
  }

  private def semiJoins(df: DataFrame): Int =
    df.queryExecution.optimizedPlan.collect { case j: PlanJoin if j.joinType == LeftSemi => j }.size

  /** Broadcast exchanges in the plan Spark ran (tests disable size-based
    * broadcasts, so each one was forced).
    */
  private def broadcasts(df: DataFrame): Int = {
    df.collect()
    collect(df.queryExecution.executedPlan) { case b: BroadcastExchangeExec => b }.size
  }

  /** Source states of `events` growing by `added` rows, with metadata
    * that says `changedRows` rows changed; `dim` is unchanged.
    */
  private def bind(added: Seq[(Option[Int], Option[String], Long)], changedRows: Long): String => SourceState = {
    val old = events(initial)
    val d = dim.toDF("dk", "region")
    val state = Map(
      "events" -> SourceState(old, old.unionByName(events(added)), Weighted.fromSnapshot(events(added)), changedRows),
      "dim" -> SourceState(d, d, Weighted.fromSnapshot(d).where("false"), 0L))
    state(_)
  }

  private def assertApplies(q: DtQuery, b: String => SourceState, delta: DataFrame, hint: String): Unit = {
    val applied = Weighted.consolidate(Weighted.fromSnapshot(Eval.snapshot(q, b(_).old)).unionByName(delta))
    assertSameRows(Weighted.expand(applied), Eval.snapshot(q, b(_).neu), hint)
  }

  test("keyed rules restrict by literals up to SmallChange delta rows and semi-join above, never broadcasting") {
    for (n <- Seq(T, T + 1)) {
      val b = bind(bulk(n), n.toLong)
      keyed.foreach { case (name, q) =>
        val d = Differentiator.delta(q, b)
        // The bound is on the rows of the child deltas whose keys are
        // collected: dist1's projected delta consolidates to a few keys.
        val childRows = q.children.map(Differentiator.delta(_, b).count()).sum
        assert(childRows == (if (name == "dist1") 61L else n.toLong), name)
        assert((semiJoins(d) > 0) == (childRows > T), s"$name with $childRows child delta rows")
        assert(broadcasts(d) == 0, s"$name with $n delta rows")
        assertApplies(q, b, d, s"$name/$n")
      }
    }
  }

  test("a projection's key delta is consolidated in one partition only when its sources changed at most SmallChange rows") {
    val proj = Project(Scan("events"), Seq("k" -> "k"))
    for ((changed, onePartition) <- Seq(3L -> true, (T + 1L) -> false)) {
      val b = bind(bulk(3), changed)
      val kd = Differentiator.keyDelta(proj, b)
      kd.collect()
      val shuffles = collect(kd.queryExecution.executedPlan) { case s: ShuffleExchangeExec => s }.size
      assert((shuffles == 0) == onePartition, s"$changed changed rows: $shuffles shuffles")
      assertSameRows(kd, Differentiator.delta(proj, b), s"$changed changed rows")
    }
  }

  test("keys of a nested type are restricted by the semi-join, not by literals") {
    val old = Seq((1, Seq("a")), (2, Seq("b", "c"))).toDF("k", "tags")
    val added = Seq((3, Seq("a")), (1, Seq("a"))).toDF("k", "tags")
    val b: String => SourceState = _ => SourceState(old, old.unionByName(added), Weighted.fromSnapshot(added), 2L)
    val q = Distinct(Scan("t"))
    val d = Differentiator.delta(q, b)
    assert(semiJoins(d) > 0)
    assertApplies(q, b, d, "nested")
  }

  test("the inner-join rule broadcasts a delta only when its sources changed at most SmallChange rows") {
    val (name, q) = inner
    for ((changed, forced) <- Seq(3L -> true, (T + 1L) -> false)) {
      val b = bind(bulk(3), changed)
      val d = Differentiator.delta(q, b)
      assert((broadcasts(d) > 0) == forced, s"$name with $changed changed rows")
      assertApplies(q, b, d, s"$name/$changed")
    }
  }

  test("keyed rules over a projection whose weights cancel refresh equal to a recompute") {
    val (e, clock) = newEngine()
    e.createBaseTable("events", events(initial))
    val proj = Project(Scan("events"), Seq("k" -> "k", "k2" -> "k2"))
    val queries = Seq(
      "dist" -> Distinct(proj),
      "agg" -> Aggregate(proj, Seq("k"), Seq("n" -> "count(1)")),
      "win" -> WindowOp(proj, Seq("k2"), Seq("k" -> "k", "k2" -> "k2", "n" -> "count(1) over (partition by k2)")),
      "left" -> Join(proj, Project(Scan("events"), Seq("dk" -> "k")), Seq("k"), Seq("dk"), "left"),
    )
    queries.foreach { case (dt, q) => e.createDynamicTable(DtSpec(dt, q, LagSeconds(600))) }
    clock.advance(10)
    // (1, a) and (NULL, NULL) only change v, so their projected weights
    // cancel; (2, b) is gone and (3, NULL) is new
    e.dml("events", events(Seq((Some(1), Some("a"), 11L), (None, None, 14L), (Some(3), None, 6L))),
      events(Seq((Some(1), Some("a"), 1L), (None, None, 4L), (Some(2), Some("b"), 5L))))
    clock.advance(10)
    queries.foreach { case (dt, q) =>
      assert(e.refresh(dt, clock.nowSeconds).action == IncrementalRefresh, dt)
      assertSameRows(e.read(dt), Eval.snapshot(q, e.read), dt)
    }
  }
}
