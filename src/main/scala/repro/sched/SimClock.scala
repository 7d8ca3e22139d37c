package repro.sched

/** A virtual clock in whole seconds. The scheduler simulations (§5.2) and
  * the transaction substrate both read time through this interface so that
  * tests and benches are deterministic and fast.
  */
trait Clock {
  /** Current time in seconds since the (virtual) epoch. */
  def nowSeconds: Long
}

/** Manually advanced virtual clock for deterministic simulation. */
final class SimClock(start: Long = 0L) extends Clock {
  private var t: Long = start
  override def nowSeconds: Long = t

  /** Advance by `seconds` (must be non-negative). */
  def advance(seconds: Long): Unit = {
    require(seconds >= 0, s"cannot go back in time by $seconds")
    t += seconds
  }

  /** Jump to an absolute time (must not regress). */
  def set(seconds: Long): Unit = {
    require(seconds >= t, s"cannot rewind clock from $t to $seconds")
    t = seconds
  }
}
