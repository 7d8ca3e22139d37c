package repro.core

import org.apache.spark.sql.DataFrame
import repro.ReproSpec
import scala.util.Random

/** Correctness of every delta rule (§5.5): applying `Δ_I Q` to the old
  * result must yield exactly the new result, for inserts-only,
  * deletes-only, and mixed change profiles, with duplicate rows and null
  * keys present. The delta must also be consolidated (the §6.1 invariant).
  */
class DifferentiatorSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  // ---- deterministic data generation (plain Scala, no Spark rand) ----
  private def factRows(n: Int, seed: Int): Seq[(Option[Int], Int, Double)] = {
    val rng = new Random(seed)
    Seq.fill(n) {
      val k = if (rng.nextInt(10) == 0) None else Some(rng.nextInt(8))
      (k, rng.nextInt(5), (rng.nextInt(50) + 1).toDouble)
    }
  }
  private def dimRows(n: Int, seed: Int): Seq[(Option[Int], String)] = {
    val rng = new Random(seed)
    Seq.tabulate(n)(i => (if (i == 0) None else Some(i - 1), s"r${rng.nextInt(3)}"))
  }

  private def evolve[A](old: Seq[A], fresh: Seq[A], profile: String, seed: Int): Seq[A] = {
    val rng = new Random(seed * 31 + profile.hashCode)
    profile match {
      case "inserts"  => old ++ fresh
      case "deletes"  => old.filter(_ => rng.nextInt(10) >= 3)
      case "mixed"    => old.filter(_ => rng.nextInt(10) >= 2) ++ fresh
      case "nochange" => old
    }
  }

  private def factDf(rows: Seq[(Option[Int], Int, Double)]): DataFrame = rows.toDF("k", "i", "v")
  private def dimDf(rows: Seq[(Option[Int], String)]): DataFrame = rows.toDF("dk", "region")

  /** Check Δ correctness for `q` over the given old/new source pairs. */
  private def checkDelta(q: DtQuery, sources: Map[String, (DataFrame, DataFrame)], hint: String): Unit = {
    val bind: String => SourceState = s => {
      val (o, n) = sources(s)
      SourceState(o, n,
        Weighted.consolidate(Weighted.fromSnapshot(n).unionByName(Weighted.negate(Weighted.fromSnapshot(o)))))
    }
    val delta = Differentiator.delta(q, bind)
    // Invariant: at most one change row per data tuple (consolidated).
    val repeated = delta.groupBy(Weighted.dataCols(delta).map(delta(_)): _*).count().where("count > 1")
    assert(repeated.isEmpty, s"$hint: unconsolidated delta")
    val oldRes = Eval.snapshot(q, s => sources(s)._1)
    val newRes = Eval.snapshot(q, s => sources(s)._2)
    val applied = Weighted.consolidate(Weighted.fromSnapshot(oldRes).unionByName(delta))
    assertSameRows(Weighted.expand(applied), newRes, hint)
  }

  private val unaryOps: Seq[(String, DtQuery)] = Seq(
    "Filter" -> Filter(Scan("f"), "i >= 2"),
    "Project" -> Project(Scan("f"), Seq("k" -> "k", "v2" -> "v * 2")),
    "Project-collapsing" -> Project(Scan("f"), Seq("k" -> "k")), // merges tuples
    "UnionAll" -> UnionAll(Filter(Scan("f"), "i <= 3"), Filter(Scan("f"), "i >= 2")),
    "Aggregate" -> Aggregate(Scan("f"), Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)", "mx" -> "max(v)")),
    "Aggregate-avg-min" -> Aggregate(Scan("f"), Seq("k", "i"), Seq("a" -> "avg(v)", "mn" -> "min(v)")),
    "Distinct" -> Distinct(Project(Scan("f"), Seq("k" -> "k", "i" -> "i"))),
    "WindowOp" -> WindowOp(Scan("f"), Seq("k"),
      Seq("k" -> "k", "i" -> "i", "v" -> "v",
        "csum" -> "sum(v) over (partition by k order by v, i rows between unbounded preceding and current row)")),
    "LateralFlatten" -> LateralFlatten(Scan("f"), "array(i, i + 1)", "e"),
  )

  private val joinOps: Seq[(String, DtQuery)] = Seq(
    "InnerJoin" -> Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk")),
    "LeftJoin" -> Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk"), "left"),
    "RightJoin" -> Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk"), "right"),
    "FullJoin" -> Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk"), "full"),
    "JoinThenAgg" -> Aggregate(Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk")),
      Seq("region"), Seq("n" -> "count(1)", "s" -> "sum(v)")),
    "FullJoinThenAgg" -> Aggregate(Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk"), "full"),
      Seq("region"), Seq("n" -> "count(1)")),
  )

  private val profiles = Seq("inserts", "deletes", "mixed")

  for ((name, q) <- unaryOps; profile <- profiles; seed <- Seq(1, 2)) {
    test(s"Δ $name under $profile changes (seed $seed)") {
      val old = factRows(40, seed)
      val neu = evolve(old, factRows(12, seed + 100), profile, seed)
      checkDelta(q, Map("f" -> (factDf(old), factDf(neu))), s"$name/$profile/$seed")
    }
  }

  for ((name, q) <- joinOps; profile <- profiles; seed <- Seq(1, 2)) {
    test(s"Δ $name with both sides changing under $profile (seed $seed)") {
      val fOld = factRows(40, seed)
      val fNew = evolve(fOld, factRows(10, seed + 100), profile, seed)
      val dOld = dimRows(6, seed)
      val dNew = evolve(dOld, dimRows(3, seed + 200).map { case (k, r) => (k.map(_ + 6), r) }, profile, seed + 1)
      checkDelta(q, Map("f" -> (factDf(fOld), factDf(fNew)), "d" -> (dimDf(dOld), dimDf(dNew))),
        s"$name/$profile/$seed")
    }
  }

  for ((name, q) <- unaryOps.take(6)) {
    test(s"Δ $name is empty when nothing changed") {
      val old = factRows(30, 7)
      val bind: String => SourceState = _ => SourceState(factDf(old), factDf(old),
        Weighted.fromSnapshot(factDf(old)).where("false"))
      assert(Differentiator.delta(q, bind).isEmpty)
    }
  }

  test("Δ of scalar aggregate is rejected (§3.3.2)") {
    val q = Aggregate(Scan("f"), Nil, Seq("n" -> "count(1)"))
    val old = factDf(factRows(5, 1))
    val bind: String => SourceState = _ => SourceState(old, old, Weighted.fromSnapshot(old).where("false"))
    intercept[IllegalArgumentException](Differentiator.delta(q, bind))
  }

  test("Δ inner join only touches affected keys' rows (bilinear rule)") {
    // one inserted fact row with k=3 must produce exactly the joined rows for k=3
    val fOld = Seq((Some(1), 1, 1.0), (Some(2), 1, 1.0))
    val fNew = fOld :+ ((Some(3), 1, 7.0))
    val d = dimRows(6, 3)
    val q = Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk"))
    val bind: String => SourceState = {
      case "f" => SourceState(factDf(fOld), factDf(fNew),
        Weighted.fromSnapshot(Seq((Some(3), 1, 7.0)).toDF("k", "i", "v")))
      case "d" => SourceState(dimDf(d), dimDf(d), Weighted.fromSnapshot(dimDf(d)).where("false"))
    }
    val delta = Differentiator.delta(q, bind).collect()
    assert(delta.forall(r => r.getAs[Int]("k") == 3 && r.getAs[Long](Weighted.W) == 1L))
    assert(delta.length == 1)
  }

  test("Δ aggregate recomputes only affected groups (§5.5.1 shape)") {
    val fOld = factRows(40, 5)
    val touched = Seq((Some(0), 9, 99.0))
    val fNew = fOld ++ touched
    val q = Aggregate(Scan("f"), Seq("k"), Seq("s" -> "sum(v)"))
    val bind: String => SourceState = _ => SourceState(factDf(fOld), factDf(fNew),
      Weighted.fromSnapshot(factDf(touched)))
    val delta = Differentiator.delta(q, bind).collect()
    // only group k=0 appears: one delete of the old row, one insert of the new
    assert(delta.forall(r => r.getAs[Int]("k") == 0))
    assert(delta.map(_.getAs[Long](Weighted.W)).sorted.toSeq == Seq(-1L, 1L))
  }

  test("Δ window recomputes only affected partitions") {
    val fOld = factRows(40, 6)
    val touched = Seq((Some(2), 1, 50.0))
    val fNew = fOld ++ touched
    val q = WindowOp(Scan("f"), Seq("k"),
      Seq("k" -> "k", "v" -> "v", "s" -> "sum(v) over (partition by k)"))
    val bind: String => SourceState = _ => SourceState(factDf(fOld), factDf(fNew),
      Weighted.fromSnapshot(factDf(touched)))
    val delta = Differentiator.delta(q, bind).collect()
    assert(delta.nonEmpty && delta.forall(r => r.getAs[Int]("k") == 2))
  }

  test("Δ with null join keys on both sides stays correct (null-safe restriction)") {
    val fOld = Seq((None: Option[Int], 1, 1.0), (Some(1), 1, 2.0))
    val fNew = fOld :+ ((None: Option[Int], 2, 3.0))
    val dOld = Seq((None: Option[Int], "nullr"), (Some(1), "east"))
    val q = Join(Scan("f"), Scan("d"), Seq("k"), Seq("dk"), "full")
    checkDelta(q, Map("f" -> (factDf(fOld), factDf(fNew)), "d" -> (dimDf(dOld), dimDf(dOld))), "nullkeys")
  }

  test("deep pipeline: filter → join → aggregate → window end-to-end delta") {
    val q = WindowOp(
      Aggregate(
        Join(Filter(Scan("f"), "i >= 1"), Scan("d"), Seq("k"), Seq("dk"), "left"),
        Seq("region"), Seq("s" -> "sum(v)", "n" -> "count(1)")),
      Seq("region"), Seq("region" -> "region", "s" -> "s", "n" -> "n",
        "share" -> "s / sum(s) over (partition by region)"))
    for (seed <- 1 to 3) {
      val fOld = factRows(50, seed)
      val fNew = evolve(fOld, factRows(15, seed + 50), "mixed", seed)
      val dOld = dimRows(7, seed)
      val dNew = evolve(dOld, Seq((Some(7), "r9")), "inserts", seed)
      checkDelta(q, Map("f" -> (factDf(fOld), factDf(fNew)), "d" -> (dimDf(dOld), dimDf(dNew))), s"deep/$seed")
    }
  }
}
