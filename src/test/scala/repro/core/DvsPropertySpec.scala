package repro.core

import org.apache.spark.sql.DataFrame
import repro.ReproSpec
import repro.sched.EngineScheduler
import scala.util.Random

/** The paper's strongest assertion (§6.1): *if you run the defining query
  * as of the data timestamp, you get the same result as in the DT* —
  * checked over randomized query trees and randomized DML sequences,
  * exactly like Snowflake's daily randomized workload test (scaled down).
  */
class DvsPropertySpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  private def rows(n: Int, rng: Random): Seq[(Int, Int, Double)] =
    Seq.fill(n)((rng.nextInt(6), rng.nextInt(4), (rng.nextInt(20) + 1).toDouble))

  private def df(rs: Seq[(Int, Int, Double)]): DataFrame = rs.toDF("k", "g", "v")

  /** A random incrementally supported query tree over table "t". */
  private def randomQuery(rng: Random): DtQuery = {
    def leaf: DtQuery = Scan("t")
    def grow(q: DtQuery, depth: Int): DtQuery =
      if (depth == 0) q
      else rng.nextInt(6) match {
        case 0 => grow(Filter(q, s"v >= ${rng.nextInt(10)}"), depth - 1)
        case 1 => grow(Project(q, Seq("k" -> "k", "g" -> "g", "v" -> s"v + ${rng.nextInt(3)}")), depth - 1)
        case 2 => grow(UnionAll(q, q), depth - 1)
        case 3 => Aggregate(q, Seq("k"), Seq("n" -> "count(1)", "s" -> "sum(v)", "m" -> "max(v)"))
        case 4 => Distinct(Project(q, Seq("k" -> "k", "g" -> "g")))
        case 5 => WindowOp(q, Seq("k"), Seq("k" -> "k", "g" -> "g", "v" -> "v",
          "r" -> "sum(v) over (partition by k order by v, g rows between unbounded preceding and current row)"))
      }
    grow(leaf, 1 + rng.nextInt(3))
  }

  for (seed <- 1 to 10) {
    test(s"randomized DVS property: query tree + DML sequence (seed $seed)") {
      val rng = new Random(seed)
      val (e, clock) = newEngine()
      var contents = rows(30, rng)
      e.createBaseTable("t", df(contents))
      val q = randomQuery(rng)
      e.createDynamicTable(DtSpec("dt", q, LagSeconds(600)))

      for (step <- 1 to 4) {
        clock.advance(10)
        val inserts = rows(rng.nextInt(8), rng)
        val deletes = rng.shuffle(contents).take(rng.nextInt(math.min(5, contents.size + 1)))
        contents = contents.diff(deletes) ++ inserts
        if (inserts.nonEmpty || deletes.nonEmpty) e.dml("t", df(inserts), df(deletes))
        clock.advance(10)
        val r = e.refresh("dt", clock.nowSeconds)
        // DVS assertion: DT contents == defining query over the source
        // snapshot at the DT's data timestamp.
        val sourceAtTs = Weighted.expand(
          e.tm.table("t").versionAtOrBefore(e.dataTimestamp("dt")).get.snapshot)
        assertSameRows(e.read("dt"), Eval.snapshot(q, _ => sourceAtTs), s"seed $seed step $step action ${r.action}")
      }
    }
  }

  test("DVS holds across a diamond graph under randomized DML") {
    val rng = new Random(42)
    val (e, clock) = newEngine()
    var contents = rows(40, rng)
    e.createBaseTable("t", df(contents))
    e.createDynamicTable(DtSpec("l", Filter(Scan("t"), "v >= 3"), LagSeconds(600)))
    e.createDynamicTable(DtSpec("r", Aggregate(Scan("t"), Seq("k"), Seq("s" -> "sum(v)")), LagSeconds(600)))
    val joined = Join(
      Project(Scan("l"), Seq("lk" -> "k", "lv" -> "v")),
      Project(Scan("r"), Seq("rk" -> "k", "rs" -> "s")),
      Seq("lk"), Seq("rk"), "left")
    e.createDynamicTable(DtSpec("j", joined, LagSeconds(600)))

    for (_ <- 1 to 3) {
      clock.advance(10)
      val inserts = rows(6, rng)
      val deletes = rng.shuffle(contents).take(3)
      contents = contents.diff(deletes) ++ inserts
      e.dml("t", df(inserts), df(deletes))
      clock.advance(10)
      new EngineScheduler(e, clock).refreshAllAt(clock.nowSeconds)
      val src = Weighted.expand(e.tm.table("t").versionAtOrBefore(e.dataTimestamp("j")).get.snapshot)
      val expect = Eval.snapshot(joined, name => Eval.snapshot(
        if (name == "l") Filter(Scan("t"), "v >= 3")
        else Aggregate(Scan("t"), Seq("k"), Seq("s" -> "sum(v)")), _ => src))
      assertSameRows(e.read("j"), expect, "diamond DVS")
    }
  }
}
