package repro.sched

/** One completed refresh in a lag time line (§5.2, Figure 4). */
final case class RefreshRecord(
    dataTs: Long,
    startTime: Long,
    endTime: Long,
    action: String,
    changedRows: Long,
) {
  require(endTime >= startTime && startTime >= 0)
  /** d — refresh duration. */
  def duration: Long = endTime - startTime
}

/** Sawtooth lag analysis over a sequence of refreshes of one DT.
  *
  * Lag rises at 1 s/s and drops when a refresh commits. For refresh i:
  * trough lag = `e_i − v_i`; peak lag = `e_i − v_{i−1}`, because until
  * refresh i commits the table is only as fresh as the preceding data
  * timestamp. Staying within target lag t requires `p + w + d < t` where
  * p is the period between data timestamps, w the wait before the refresh
  * starts, and d its duration.
  */
object LagTracker {

  final case class Sawtooth(peakLags: Seq[Long], troughLags: Seq[Long]) {
    def maxPeak: Long = if (peakLags.isEmpty) 0L else peakLags.max
    def maxTrough: Long = if (troughLags.isEmpty) 0L else troughLags.max
    def meanPeak: Double = if (peakLags.isEmpty) 0.0 else peakLags.sum.toDouble / peakLags.size
  }

  /** Peak/trough lags for consecutive refreshes (records must be in
    * commit order; the first record seeds `v_0` and yields no peak).
    */
  def sawtooth(records: Seq[RefreshRecord]): Sawtooth = {
    val sorted = records.sortBy(_.endTime)
    val peaks = sorted.sliding(2).collect {
      case Seq(prev, cur) => cur.endTime - prev.dataTs
    }.toSeq
    val troughs = sorted.map(r => r.endTime - r.dataTs)
    Sawtooth(peaks, troughs)
  }
}
