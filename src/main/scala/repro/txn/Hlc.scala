package repro.txn

/** Hybrid Logical Clock (Kulkarni et al., OPODIS 2014), as referenced in
  * §5.3 of the paper: commit timestamps of all transactions in an account
  * are totally ordered by HLC time.
  *
  * A timestamp is `(l, c)` where `l` tracks the maximum physical time
  * observed and `c` is a logical counter breaking ties among events with
  * the same `l`.
  */
object Hlc {

  /** A totally ordered HLC timestamp. */
  final case class Timestamp(l: Long, c: Int) extends Ordered[Timestamp] {
    override def compare(that: Timestamp): Int = {
      val byL = java.lang.Long.compare(l, that.l)
      if (byL != 0) byL else Integer.compare(c, that.c)
    }
    override def toString: String = s"$l.$c"
  }

  val Zero: Timestamp = Timestamp(0L, 0)
}

/** A mutable HLC driven by a physical-time source (seconds, monotone or
  * not — HLC tolerates regressions). Thread-safe via synchronization;
  * refresh commits in the engine are serialized anyway.
  */
final class HlcClock(physical: () => Long) {
  private var last: Hlc.Timestamp = Hlc.Zero

  /** Timestamp a local event (e.g. a commit). Strictly increases. */
  def now(): Hlc.Timestamp = synchronized {
    val pt = physical()
    last =
      if (pt > last.l) Hlc.Timestamp(pt, 0)
      else Hlc.Timestamp(last.l, last.c + 1)
    last
  }

  /** Merge a remote timestamp (message receipt). Strictly increases past
    * both the local clock and the remote timestamp.
    */
  def update(remote: Hlc.Timestamp): Hlc.Timestamp = synchronized {
    val pt = physical()
    val l1 = math.max(math.max(last.l, remote.l), pt)
    val c1 =
      if (l1 == last.l && l1 == remote.l) math.max(last.c, remote.c) + 1
      else if (l1 == last.l) last.c + 1
      else if (l1 == remote.l) remote.c + 1
      else 0
    last = Hlc.Timestamp(l1, c1)
    last
  }
}
