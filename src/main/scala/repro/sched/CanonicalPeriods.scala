package repro.sched

/** The refresh-period heuristic of §5.2.
  *
  * Periods are drawn from the canonical set `48·2^n` seconds (n ≥ 0).
  * Because powers of two are multiples of each other and every DT in an
  * account shares phase 0, the scheduled data timestamps of DTs with
  * different target lags always align — which is what lets a downstream
  * refresh find an upstream version at exactly its own data timestamp.
  */
object CanonicalPeriods {
  val BaseSeconds: Long = 48L

  /** All canonical periods up to `limit`. */
  def upTo(limit: Long): Seq[Long] =
    Iterator.iterate(BaseSeconds)(_ * 2).takeWhile(_ <= math.max(BaseSeconds, limit)).toSeq

  /** Largest canonical period ≤ the target lag (floor: 48 s — the paper's
    * 1-minute minimum target lag maps to a 48 s period, which is why users
    * observe refresh periods "substantially smaller" than their lag).
    */
  def periodFor(targetLagSeconds: Long): Long = {
    require(targetLagSeconds > 0, "target lag must be positive")
    upTo(targetLagSeconds).last
  }
}
