package repro.sched

import org.scalatest.funsuite.AnyFunSuite

/** Scheduler behaviour (§5.2, §3.3.3) on the discrete-event simulator. */
class SimSchedulerSpec extends AnyFunSuite {

  /** Source that changes `rows` rows every second. */
  private def steady(rows: Long): (String, Long, Long) => Long = (_, t0, t1) => (t1 - t0) * rows
  private val silent: (String, Long, Long) => Long = (_, _, _) => 0L

  test("a lone DT refreshes on its canonical period") {
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(600L), fixedCost = 5)
    val r = new SimScheduler(Seq(n), steady(10)).run(3900)
    val recs = r("a").records
    assert(r("a").period == Some(384L))
    assert(recs.map(_.dataTs) == (384L to 3840L by 384L).toSeq)
  }

  test("no source changes → NO_DATA refreshes with zero duration (§3.3.2)") {
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(600L))
    val r = new SimScheduler(Seq(n), silent).run(2000)
    assert(r("a").records.nonEmpty)
    assert(r("a").records.forall(rec => rec.action == "NO_DATA" && rec.duration == 0))
  }

  test("lag stays below target when resources suffice (p + w + d < t)") {
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(600L), fixedCost = 20)
    val r = new SimScheduler(Seq(n), steady(5)).run(38400)
    val saw = r("a").sawtooth
    assert(saw.maxPeak <= 600L, s"peak lag ${saw.maxPeak} exceeded target 600")
  }

  test("data timestamps align across a chain with different target lags (§5.2)") {
    val up = SimNode("up", baseSources = Seq("src"), targetLag = Some(120L), fixedCost = 3)
    val down = SimNode("down", upstream = Seq("up"), targetLag = Some(3600L), fixedCost = 3, warehouse = "wh2")
    val r = new SimScheduler(Seq(up, down), steady(2)).run(30720)
    val upTs = r("up").records.map(_.dataTs).toSet
    val downTs = r("down").records.map(_.dataTs)
    assert(downTs.nonEmpty)
    assert(downTs.forall(upTs.contains), "every downstream data timestamp must exist upstream")
    assert(r("up").period == Some(96L) && r("down").period == Some(3072L))
  }

  test("downstream waits for upstream completion at the same data timestamp (w)") {
    val up = SimNode("up", baseSources = Seq("src"), targetLag = Some(600L), fixedCost = 30)
    val down = SimNode("down", upstream = Seq("up"), targetLag = Some(600L), fixedCost = 2, warehouse = "wh2")
    val r = new SimScheduler(Seq(up, down), steady(2)).run(3840)
    for (rec <- r("down").records if rec.action != "NO_DATA") {
      val upRec = r("up").records.find(_.dataTs == rec.dataTs).get
      assert(rec.startTime >= upRec.endTime, s"down started ${rec.startTime} before up finished ${upRec.endTime}")
    }
  }

  test("overload causes skips, and skips shed fixed cost (§3.3.3)") {
    // refresh takes longer than the period → later ticks are skipped
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(96L), fixedCost = 150)
    val r = new SimScheduler(Seq(n), steady(1)).run(9600)
    assert(r("a").skippedDataTs.nonEmpty, "expected skips under overload")
    // progress continues: data timestamps still advance to near the horizon
    assert(r("a").records.last.dataTs >= 9600 - 4 * 96)
    // total work is less than if every tick had run
    val ticks = 9600 / 96
    assert(r("a").records.size < ticks)
  }

  test("a skipped refresh's interval is covered by the next refresh (DVS preserved)") {
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(96L), fixedCost = 150, varCostPerRow = 0.001)
    val r = new SimScheduler(Seq(n), steady(1)).run(2000)
    // consecutive records with a skip between them: changed rows spans the gap
    val recs = r("a").records.filter(_.action != "NO_DATA")
    recs.sliding(2).foreach {
      case Seq(a, b) =>
        assert(b.changedRows >= (b.dataTs - a.dataTs), "skipped interval's changes are included")
      case _ =>
    }
  }

  test("warehouse executes refreshes serially (co-located DTs queue)") {
    val a = SimNode("a", baseSources = Seq("s1"), targetLag = Some(96L), fixedCost = 30, warehouse = "shared")
    val b = SimNode("b", baseSources = Seq("s2"), targetLag = Some(96L), fixedCost = 30, warehouse = "shared")
    val r = new SimScheduler(Seq(a, b), steady(1)).run(960)
    val intervals = (r("a").records ++ r("b").records).filter(_.action != "NO_DATA")
      .map(x => (x.startTime, x.endTime)).sortBy(_._1)
    intervals.sliding(2).foreach {
      case Seq((_, e1), (s2, _)) => assert(s2 >= e1, "two refreshes overlapped on one warehouse")
      case _ =>
    }
  }

  test("separate warehouses run concurrently") {
    val a = SimNode("a", baseSources = Seq("s1"), targetLag = Some(96L), fixedCost = 40, warehouse = "wh_a")
    val b = SimNode("b", baseSources = Seq("s2"), targetLag = Some(96L), fixedCost = 40, warehouse = "wh_b")
    val r = new SimScheduler(Seq(a, b), steady(1)).run(480)
    val ra = r("a").records.head; val rb = r("b").records.head
    assert(ra.startTime < rb.endTime && rb.startTime < ra.endTime, "expected overlap across warehouses")
  }

  test("consecutive failures suspend the DT (§3.3.3)") {
    val fails = (1 to 5).map(i => i * 96L).toSet
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(96L), fixedCost = 5, failAtDataTs = fails)
    val r = new SimScheduler(Seq(n), steady(1)).run(2000)
    assert(r("a").failedDataTs.size == 5)
    assert(r("a").suspendedAt.isDefined)
    // nothing runs after suspension
    val sAt = r("a").suspendedAt.get
    assert(r("a").records.forall(_.endTime <= sAt))
  }

  test("a failure burst below the threshold recovers") {
    val fails = Set(96L, 192L)
    val n = SimNode("a", baseSources = Seq("src"), targetLag = Some(96L), fixedCost = 5, failAtDataTs = fails)
    val r = new SimScheduler(Seq(n), steady(1)).run(1000)
    assert(r("a").suspendedAt.isEmpty)
    assert(r("a").records.exists(_.dataTs > 192L), "resumes after failures")
  }

  test("DOWNSTREAM-style node (no own lag) inherits the downstream period") {
    val up = SimNode("up", baseSources = Seq("src"), targetLag = None)
    val down = SimNode("down", upstream = Seq("up"), targetLag = Some(600L), warehouse = "w2")
    val s = new SimScheduler(Seq(up, down), steady(1))
    assert(s.periods("up") == Some(384L) && s.periods("down") == Some(384L))
  }

  test("upstream period divides downstream period across a diamond") {
    val src = SimNode("s", baseSources = Seq("raw"), targetLag = Some(7200L))
    val l = SimNode("l", upstream = Seq("s"), targetLag = Some(300L))
    val r0 = SimNode("r", upstream = Seq("s"), targetLag = Some(3600L))
    val sink = SimNode("sink", upstream = Seq("l", "r"), targetLag = Some(3600L))
    val s2 = new SimScheduler(Seq(src, l, r0, sink), steady(1))
    val ps = s2.periods.view.mapValues(_.get).toMap
    assert(ps("s") <= ps("l") && ps("s") <= ps("r"), "source must refresh at least as often as consumers")
    for (d <- Seq("l", "r", "sink")) assert(ps(d) % ps("s") == 0)
  }
}
