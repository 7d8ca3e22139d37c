package repro.core

import repro.ReproSpec

/** Change-set boundary: `$ROW_ID` / `$ACTION` / `$MULT` (§5.5). */
class ChangeSetSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  test("fromWeighted labels inserts and deletes") {
    val d = Seq(("a", 1, 2L), ("b", 2, -1L)).toDF("k", "v", Weighted.W)
    val cs = ChangeSet.fromWeighted(d).collect().map(r =>
      (r.getAs[String]("k"), r.getAs[String](ChangeSet.Action), r.getAs[Long](ChangeSet.Mult))).toSet
    assert(cs == Set(("a", "INSERT", 2L), ("b", "DELETE", 1L)))
  }

  test("row ids carry a plaintext prefix of the first column (§5.5.2)") {
    val d = Seq(("alpha", 1, 1L)).toDF("k", "v", Weighted.W)
    val id = ChangeSet.fromWeighted(d).collect().head.getAs[String](ChangeSet.RowId)
    assert(id.startsWith("alpha-"), s"row id $id should start with plaintext prefix")
    assert(id.length > "alpha-".length + 30, "row id should contain a sha1 hash")
  }

  test("row id of a fixed tuple is pinned (separator and null tag bytes)") {
    // sha1("alpha" + "\u0001" + "1" + "\u0001" + "\u0000"): the separator and
    // the null tag are part of every stored row id, so they must never change.
    val d = Seq(("alpha", 1, Option.empty[String])).toDF("k", "v", "n")
    val id = d.select(ChangeSet.rowIdExpr(Seq("k", "v", "n"))).collect().head.getString(0)
    assert(id == "alpha-23956a31dfdfd30b897048327abe7537d2b7ea6f")
  }

  test("identical data tuples get identical row ids; different tuples differ") {
    val d = Seq(("a", 1, 1L), ("a", 1, 1L), ("a", 2, 1L)).toDF("k", "v", Weighted.W)
    val ids = d.select(ChangeSet.rowIdExpr(Seq("k", "v"))).collect().map(_.getString(0))
    assert(ids(0) == ids(1) && ids(0) != ids(2))
  }

  test("tuples whose fields hold the separator, the null tag or the escape get distinct row ids") {
    val pairs = Seq(
      (Some("abcdefghX\u0001Y"), Some("Z")) -> (Some("abcdefghX"), Some("Y\u0001Z")),
      (Some("k"), None) -> (Some("k"), Some("\u0000")),
      (Some("k"), Some("\u0002" + "1")) -> (Some("k"), Some("\u0001")),
    )
    pairs.foreach { case (a, b) =>
      val ids = Seq(a, b).toDF("x", "y").select(ChangeSet.rowIdExpr(Seq("x", "y"))).collect().map(_.getString(0))
      assert(ids(0) != ids(1), s"$a and $b share row id ${ids(0)}")
    }
  }

  test("null values produce a stable row id") {
    val d = Seq((Option.empty[String], 1, 1L), (None, 1, 1L)).toDF("k", "v", Weighted.W)
    val ids = ChangeSet.fromWeighted(d.select($"k", $"v", d(Weighted.W)))
    // consolidation upstream would merge these; here we only check stability
    val got = ids.collect().map(_.getAs[String](ChangeSet.RowId)).distinct
    assert(got.length == 1)
  }

  test("toWeighted inverts fromWeighted") {
    val d = Weighted.consolidate(Seq(("a", 1, 2L), ("b", 2, -1L), ("c", 3, 1L)).toDF("k", "v", Weighted.W))
    assertSameRows(ChangeSet.toWeighted(ChangeSet.fromWeighted(d)), d)
  }

  test("duplicateActionPairs is 0 on consolidated deltas") {
    val d = Weighted.consolidate(Seq(("a", 1L), ("a", 1L), ("b", -1L)).toDF("k", Weighted.W))
    assert(ChangeSet.duplicateActionPairs(ChangeSet.fromWeighted(d)).isEmpty)
  }

  test("duplicateActionPairs detects the §6.1 invariant violation") {
    // Two INSERT rows with the same data tuple (unconsolidated) share a row id.
    val d = Seq(("a", 1L), ("a", 2L), ("b", 1L)).toDF("k", Weighted.W)
    val rowIdOfA = d.select(ChangeSet.rowIdExpr(Seq("k"))).collect().head.getString(0)
    assert(ChangeSet.duplicateActionPairs(ChangeSet.fromWeighted(d)) == Seq((rowIdOfA, "INSERT")))
  }
}
