package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** IR structure, support flags, and DAG/lag resolution — no Spark needed. */
class DtQuerySpec extends AnyFunSuite {

  private val q1 = Filter(Scan("t1"), "x > 0")
  private val q2 = Join(Scan("t1"), Scan("t2"), Seq("a"), Seq("b"))

  test("sources collects all scanned tables") {
    assert(q1.sources == Set("t1"))
    assert(q2.sources == Set("t1", "t2"))
    assert(UnionAll(q1, Project(Scan("t3"), Seq("x" -> "x"))).sources == Set("t1", "t3"))
  }

  test("scalar aggregates are not incrementally supported (§3.3.2)") {
    assert(!Aggregate(Scan("t"), Nil, Seq("n" -> "count(1)")).incrementallySupported)
    assert(Aggregate(Scan("t"), Seq("k"), Seq("n" -> "count(1)")).incrementallySupported)
  }

  test("all listed operators are incrementally supported") {
    val q = WindowOp(
      Distinct(Aggregate(
        LateralFlatten(Join(Filter(Scan("a"), "x>0"), Project(Scan("b"), Seq("y" -> "y")), Seq("x"), Seq("y"), "full"),
        "array(x)", "e"),
        Seq("x"), Seq("n" -> "count(1)"))),
      Seq("x"), Seq("x" -> "x", "r" -> "rank() over (partition by x order by n)"))
    assert(q.incrementallySupported)
  }

  test("DtSpec rejects incremental mode on unsupported queries") {
    val scalar = Aggregate(Scan("t"), Nil, Seq("n" -> "count(1)"))
    intercept[IllegalArgumentException](DtSpec("bad", scalar, LagSeconds(60), IncrementalMode))
    DtSpec("ok", scalar, LagSeconds(60), FullMode) // fine
  }

  test("Project rejects duplicate aliases; joins reject bad types") {
    intercept[IllegalArgumentException](Project(Scan("t"), Seq("a" -> "x", "a" -> "y")))
    intercept[IllegalArgumentException](Join(Scan("a"), Scan("b"), Seq("x"), Seq("y"), "cross"))
    intercept[IllegalArgumentException](Join(Scan("a"), Scan("b"), Nil, Nil))
  }

  private def specs3 = {
    // base -> a -> b -> c, with lags 600 / DOWNSTREAM / 3600
    val a = DtSpec("a", Filter(Scan("base"), "x > 0"), LagSeconds(600))
    val b = DtSpec("b", Filter(Scan("a"), "x > 1"), DownstreamLag)
    val c = DtSpec("c", Filter(Scan("b"), "x > 2"), LagSeconds(3600))
    Seq(c, a, b) // deliberately out of order
  }
  private def graph3 = DtGraph.fromSpecs(specs3)

  test("topoOrder puts upstream before downstream") {
    val order = graph3.topoOrder
    assert(order.indexOf("a") < order.indexOf("b"))
    assert(order.indexOf("b") < order.indexOf("c"))
  }

  test("upstream/downstream edges ignore base tables") {
    val g = graph3
    assert(g.upstream("a") == Nil)
    assert(g.upstream("b") == Seq("a"))
    assert(g.downstream("a") == Seq("b"))
  }

  test("cycles are rejected (§3.1.1)") {
    val x = DtSpec("x", Filter(Scan("y"), "true"), LagSeconds(60))
    val y = DtSpec("y", Filter(Scan("x"), "true"), LagSeconds(60))
    intercept[IllegalArgumentException](DtGraph.fromSpecs(Seq(x, y)).topoOrder)
  }

  test("DOWNSTREAM lag resolves to the minimum downstream lag (§3.2)") {
    val g = graph3
    assert(g.resolvedLag("a") == Some(600L))
    assert(g.resolvedLag("b") == Some(3600L)) // only downstream is c
    assert(g.resolvedLag("c") == Some(3600L))
  }

  test("DOWNSTREAM with no consumers refreshes only on demand") {
    val lone = DtSpec("lone", Filter(Scan("base"), "true"), DownstreamLag)
    assert(DtGraph.fromSpecs(Seq(lone)).resolvedLag("lone").isEmpty)
  }

  test("effective lag propagates the tightest downstream requirement upstream (§5.2)") {
    // c(3600) reads b reads a(600): a's period must not exceed b's/c's needs,
    // but b must refresh at least as often as c needs AND as often as any
    // downstream of its own; a's own 600 dominates everything upstream of it.
    val g = graph3
    assert(g.effectiveLag("c") == Some(3600L))
    assert(g.effectiveLag("b") == Some(3600L))
    assert(g.effectiveLag("a") == Some(600L))
    // now add a tight consumer on b: everything upstream tightens
    val d = DtSpec("d", Filter(Scan("b"), "x > 3"), LagSeconds(96))
    val g2 = DtGraph.fromSpecs(specs3 :+ d)
    assert(g2.effectiveLag("b") == Some(96L))
    assert(g2.effectiveLag("a") == Some(96L))
  }

  test("upstreamClosure is transitive and topologically ordered") {
    val g = graph3
    assert(g.upstreamClosure("c") == Seq("a", "b"))
    assert(g.upstreamClosure("a") == Nil)
  }
}
