package repro.sched

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DownstreamLag, DtGraph, LagSeconds, TargetLag}

/** §5.2: canonical periods 48·2^n and their alignment property. */
class CanonicalPeriodsSpec extends AnyFunSuite {

  /** The period the graph policy gives a lone DT with target lag `lag`. */
  private def periodOf(lag: TargetLag): Option[Long] =
    new DtGraph(Seq(DtGraph.Node("x", Nil, lag))).periods("x")

  test("canonical set is 48·2^n") {
    assert(CanonicalPeriods.upTo(400) == Seq(48L, 96L, 192L, 384L))
  }

  test("periodFor picks the largest canonical period ≤ lag") {
    assert(CanonicalPeriods.periodFor(60L) == 48L) // 1-minute lag → 48 s period
    assert(CanonicalPeriods.periodFor(48L) == 48L)
    assert(CanonicalPeriods.periodFor(600L) == 384L)
    assert(CanonicalPeriods.periodFor(3600L) == 3072L)
    assert(CanonicalPeriods.periodFor(86400L) == 49152L)
  }

  test("lag below the base still maps to the base period (min target lag)") {
    assert(CanonicalPeriods.periodFor(10L) == 48L)
  }

  test("periods are pairwise divisible, so data timestamps align") {
    val ps = Seq(60L, 300L, 3600L, 57600L).map(CanonicalPeriods.periodFor)
    for (a <- ps; b <- ps if a <= b) assert(b % a == 0, s"$b not a multiple of $a")
  }

  test("the chosen period can be substantially smaller than the lag (§5.2 confusion)") {
    // a 16-hour lag maps to ~13.7 hours; a 1-hour to ~51 min
    assert(CanonicalPeriods.periodFor(57600L) == 49152L)
    assert(periodOf(DownstreamLag).isEmpty)
    assert(periodOf(LagSeconds(3600L)) == Some(3072L))
  }
}
