package repro.exp

/** Plain-text table rendering for experiment output (one harness per
  * evaluation table; see EXPERIMENTS.md for the paper-vs-measured diff).
  */
object Tables {
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]], notes: Seq[String] = Nil): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val body = (Seq(line(header), sep) ++ rows.map(line)).mkString("\n")
    val noteStr = if (notes.isEmpty) "" else notes.map("  note: " + _).mkString("\n", "\n", "")
    s"== $title ==\n$body$noteStr\n"
  }

  def pct(x: Double): String = f"${x * 100}%.1f%%"
  def ms(x: Double): String = f"$x%.0f ms"
}

/** The one stopwatch of the harnesses. */
object Timing {
  /** Run `body`; return its value and its wall time in milliseconds. */
  def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }
}

/** Measurement hygiene for the Spark-backed harnesses. */
object Cleanup {
  /** Unpersist every cached/localCheckpointed RDD left by previously
    * discarded engines. Each measurement builds a fresh [[repro.core.Engine]]
    * whose versions pin blocks in the block manager; without this the
    * accumulated blocks churn the GC and distort later timings.
    * Only call between measurements, when no live engine is in use.
    */
  def dropCaches(spark: org.apache.spark.sql.SparkSession): Unit = {
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = false))
    spark.sqlContext.clearCache()
  }
}
