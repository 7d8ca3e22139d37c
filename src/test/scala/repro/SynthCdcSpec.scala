package repro

/** Change-batch generation: deletes are sampled deterministically by seed. */
class SynthCdcSpec extends ReproSpec {
  private lazy val testImplicits = spark.implicits
  import testImplicits._

  test("changeBatch samples deletes by seed: one seed repeats, two seeds differ") {
    val (e, _) = newEngine()
    e.createBaseTable("t", (1 to 50).map(i => (i, s"r$i")).toDF("k", "s"))
    def deletes(seed: Long): Set[Int] = {
      val (ins, del) = SynthCdc.changeBatch(e, "t", 0, 5, seed, _ => Seq.empty[(Int, String)].toDF("k", "s"))
      assert(ins.isEmpty)
      del.collect().map(_.getInt(0)).toSet
    }
    val first = deletes(1)
    assert(first.size == 5)
    assert(deletes(1) == first)
    assert(deletes(2) != first)
  }
}
