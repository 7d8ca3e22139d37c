package repro.txn

/** The progress marker of a dynamic table (§5.3).
  *
  * The user-visible *data timestamp* is an abstraction over this richer
  * object: the data timestamp every source was consumed at, plus the
  * lineage epochs observed (used to detect upstream replacements that
  * force REINITIALIZE).
  */
final case class Frontier(dataTs: Long, epochs: Map[String, Long]) {

  /** Advance to a new data timestamp, observing `newEpochs`. */
  def advance(newTs: Long, newEpochs: Map[String, Long]): Frontier = {
    require(newTs > dataTs, s"frontier must advance: $dataTs -> $newTs")
    Frontier(newTs, epochs ++ newEpochs)
  }
}
