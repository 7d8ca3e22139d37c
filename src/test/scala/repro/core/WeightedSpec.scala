package repro.core

import org.apache.spark.sql.catalyst.plans.logical.{Join => PlanJoin}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StringType}
import repro.ReproSpec

/** Unit tests for the weighted-multiset algebra underlying change sets. */
class WeightedSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  test("fromSnapshot assigns weight 1 to every row") {
    val df = Weighted.fromSnapshot(Seq(("a", 1), ("a", 1), ("b", 2)).toDF("k", "v"))
    assert(df.columns.contains(Weighted.W))
    assert(df.select(Weighted.W).collect().forall(_.getLong(0) == 1L))
  }

  test("consolidate sums weights of identical tuples") {
    val df = Seq(("a", 1, 2L), ("a", 1, 3L), ("b", 2, 1L)).toDF("k", "v", Weighted.W)
    val c = Weighted.consolidate(df).collect().map(r => (r.getString(0), r.getInt(1), r.getLong(2))).toSet
    assert(c == Set(("a", 1, 5L), ("b", 2, 1L)))
  }

  test("consolidate drops zero-weight rows") {
    val df = Seq(("a", 1L), ("a", -1L), ("b", 2L)).toDF("k", Weighted.W)
    val c = Weighted.consolidate(df).collect().map(r => (r.getString(0), r.getLong(1))).toSet
    assert(c == Set(("b", 2L)))
  }

  test("consolidate keeps negative totals (deletions)") {
    val df = Seq(("a", -2L)).toDF("k", Weighted.W)
    assert(Weighted.consolidate(df).collect().map(_.getLong(1)).toSeq == Seq(-2L))
  }

  test("negate flips weights") {
    val df = Seq(("a", 2L), ("b", -1L)).toDF("k", Weighted.W)
    val n = Weighted.negate(df).collect().map(r => (r.getString(0), r.getLong(1))).toSet
    assert(n == Set(("a", -2L), ("b", 1L)))
  }

  test("expand repeats rows by weight") {
    val df = Seq(("a", 3L), ("b", 1L)).toDF("k", Weighted.W)
    val e = Weighted.expand(df).collect().map(_.getString(0)).toSeq.sorted
    assert(e == Seq("a", "a", "a", "b"))
  }

  test("expand drops weight-zero rows and fails on negative weights") {
    val ok = Seq(("a", 0L), ("b", 1L)).toDF("k", Weighted.W)
    assert(Weighted.expand(ok).collect().map(_.getString(0)).toSeq == Seq("b"))
    val bad = Seq(("a", -1L)).toDF("k", Weighted.W)
    intercept[Exception](Weighted.expand(bad).collect())
  }

  test("expand-of-fromSnapshot is identity on multisets") {
    val src = Seq(("a", 1), ("a", 1), ("b", 2)).toDF("k", "v")
    assertSameRows(Weighted.expand(Weighted.consolidate(Weighted.fromSnapshot(src))), src)
  }

  test("dataCols excludes the weight column") {
    val df = Seq(("a", 1, 1L)).toDF("k", "v", Weighted.W)
    assert(Weighted.dataCols(df) == Seq("k", "v"))
  }

  test("isEmpty is true when weights cancel") {
    val df = Seq(("a", 1L), ("a", -1L)).toDF("k", Weighted.W)
    assert(Weighted.consolidate(df).isEmpty)
    assert(!Weighted.consolidate(Seq(("a", 1L)).toDF("k", Weighted.W)).isEmpty)
  }

  test("semiJoinOnKeys restricts null-safely") {
    val df = Seq((Some("a"), 1), (Some("b"), 2), (None, 3)).toDF("k", "v")
    val keys = Seq(Some("a"), Option.empty[String]).toDF("k0")
    val got = Weighted.semiJoinOnKeys(df, Seq(col("k")), keys).collect().map(_.getInt(1)).toSet
    assert(got == Set(1, 3), "null key must match null key (null-safe)")
  }

  test("semiJoinOnKeys on two key columns") {
    val df = Seq(("a", 1, "x"), ("a", 2, "y"), ("b", 1, "z")).toDF("k1", "k2", "v")
    val keys = Seq(("a", 1), ("b", 1)).toDF("k0", "k1")
    val got = Weighted.semiJoinOnKeys(df, Seq(col("k1"), col("k2")), keys).collect().map(_.getString(2)).toSet
    assert(got == Set("x", "z"))
  }

  test("keyIn restricts null-safely over literals, with no join") {
    val df = Seq((Some("a"), 1), (Some("b"), 2), (None, 3)).toDF("k", "v")
    val restricted = df.where(Weighted.keyIn(Seq(col("k")), Seq(StringType), Seq(Seq("a"), Seq(null))))
    assert(restricted.collect().map(_.getInt(1)).toSet == Set(1, 3), "null key must match null key (null-safe)")
    assert(restricted.queryExecution.optimizedPlan.collect { case j: PlanJoin => j }.isEmpty)
    assert(df.where(Weighted.keyIn(Seq(col("k")), Seq(StringType), Nil)).isEmpty)
  }

  test("keyIn on two key columns, one of them NULL in some tuples") {
    val df = Seq((Some("a"), Some(1), "x"), (Some("a"), None, "y"), (Some("b"), Some(1), "z"), (None, None, "w"))
      .toDF("k1", "k2", "v")
    val tuples = Seq(Seq("a", null), Seq("b", 1), Seq(null, null))
    val got = df.where(Weighted.keyIn(Seq(col("k1"), col("k2")), Seq(StringType, IntegerType), tuples))
      .collect().map(_.getString(2)).toSet
    assert(got == Set("y", "z", "w"))
  }

  test("union + consolidate implements multiset difference") {
    val a = Weighted.fromSnapshot(Seq("x", "x", "y").toDF("k"))
    val b = Weighted.fromSnapshot(Seq("x").toDF("k"))
    val diff = Weighted.consolidate(Weighted.union(Seq(a, Weighted.negate(b))))
    val got = diff.collect().map(r => (r.getString(0), r.getLong(1))).toSet
    assert(got == Set(("x", 1L), ("y", 1L)))
  }
}
