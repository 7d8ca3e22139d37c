package repro.sched

import org.scalatest.funsuite.AnyFunSuite

/** Sawtooth lag arithmetic of §5.2 / Figure 4. */
class LagTrackerSpec extends AnyFunSuite {

  // Refreshes: v0=0 ends at 10; v1=48 starts 50 ends 60; v2=96 starts 100 ends 112
  private val recs = Seq(
    RefreshRecord(0, 5, 10, "INCREMENTAL", 10),
    RefreshRecord(48, 50, 60, "INCREMENTAL", 5),
    RefreshRecord(96, 100, 112, "INCREMENTAL", 7),
  )

  test("trough lag is e_i - v_i") {
    val s = LagTracker.sawtooth(recs)
    assert(s.troughLags == Seq(10L, 12L, 16L))
  }

  test("peak lag is e_i - v_{i-1} (depends on the preceding data timestamp)") {
    val s = LagTracker.sawtooth(recs)
    assert(s.peakLags == Seq(60L - 0L, 112L - 48L))
  }

  test("max/mean summaries") {
    val s = LagTracker.sawtooth(recs)
    assert(s.maxPeak == 64L && s.maxTrough == 16L)
    assert(math.abs(s.meanPeak - 62.0) < 1e-9)
  }

  test("empty and singleton inputs") {
    assert(LagTracker.sawtooth(Nil).peakLags.isEmpty)
    assert(LagTracker.sawtooth(Seq(recs.head)).peakLags.isEmpty)
    assert(LagTracker.sawtooth(Seq(recs.head)).troughLags == Seq(10L))
  }
}
