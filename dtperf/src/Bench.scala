package repro.perf

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.SparkSession
import repro.exp.Cleanup
import scala.jdk.CollectionConverters._

/** Command-line entry point: one run of one workload.
  *
  * {{{
  * Bench --workload graph_trickle --seed 1 --seconds 10 --trace 0 --out DIR
  * }}}
  *
  * Phases: set up `Setups` times (median = setup_s), pin the inputs, the
  * workload's warm-up cycles, the timed phase (whole rounds filling `--seconds` at the
  * workload's nominal pace), then the correctness gate. The last stdout
  * line is the JSON result; the exit code is 1 when the gate fails.
  */
object Bench {
  /** Two task threads: at these sizes a refresh is fixed driver-side work,
    * and leaving cores to the JIT and GC threads keeps the VM's CPU demand
    * under its vCPUs, where host steal hurts least.
    */
  val Master = "local[2]"
  /** Enough for four cores; the default 200 (64 in the tests) only adds
    * empty tasks at these table sizes.
    */
  val ShufflePartitions = 8
  /** Spark's generated-class cache holds 100 classes by default, fewer than
    * the distinct classes one cycle uses. At 100 it thrashes: the number of
    * classes compiled per run then varied 2x between runs of one seed
    * (437–907 in stream_append), and cycle time with it. At 2000 every run
    * compiles the same classes (133 in stream_append, 228 in graph_trickle).
    */
  val CodegenCacheEntries = 2000
  val Setups = 3

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1", m.getOrElse("out", "."))
  }

  def session(out: String): SparkSession = {
    val s = SparkSession.builder
      .master(Master)
      .appName("dtperf")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.codegen.cache.maxEntries", CodegenCacheEntries.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$out/spark-local")
      .config("spark.sql.warehouse.dir", s"$out/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    require(Workload.names.contains(o.workload), s"unknown workload ${o.workload} (one of ${Workload.names.mkString(", ")})")
    require(o.seconds > 0, "--seconds must be positive")
    val spark = session(o.out)
    val code =
      try run(spark, o)
      finally spark.stop()
    sys.exit(code)
  }

  def run(spark: SparkSession, o: Opts): Int = {
    val host0 = Diagnostics.cpuTicks()
    val marks = Seq.newBuilder[(String, String)]
    var mark = System.nanoTime()
    def phase(name: String): Unit = {
      val now = System.nanoTime(); marks += (s"phase.$name" -> f"${(now - mark) / 1e9}%.2f s"); mark = now
    }
    val sc = spark.sparkContext
    val probe = Probe.attach(sc)
    val tracer = new Tracer(sc, enabled = false)
    val run = new Run(probe, tracer)
    if (o.trace) LayerTag.install(spark)
    val w = Workload(o.workload, spark, o.seed)

    val setups = (1 to Setups).map { k =>
      if (k > 1) { w.close(); Cleanup.dropCaches(spark) }
      val from = run.ops.size
      val t0 = System.nanoTime()
      w.setup(run)
      val s = (System.nanoTime() - t0) / 1e9
      (s, run.ops.drop(from).filter(_.kind == "core.init").map(op => op.dt -> op.ms).toMap)
    }
    if (run.failed > 0) return finish(run, Map.empty, Nil)
    phase("setup")

    val rounds = math.max(2, math.ceil(o.seconds / (w.nominalCycleSeconds * w.roundCycles)).toInt)
    val warm = w.warmupCycles
    w.prepare(run, warm + rounds * w.roundCycles)
    phase("prepare")
    (0 until warm).foreach(w.cycle(run, _))
    phase("warmup")

    probe.drain()
    val storedBefore = Diagnostics.storedBytes(spark)
    val fromMs = System.currentTimeMillis()
    val compiled0 = Diagnostics.codegenCompiles
    for (r <- 0 until rounds; k <- 0 until w.roundCycles) {
      // A traced run traces every other round; the rounds in between are
      // its untraced baseline, which gives the tracing overhead.
      tracer.enabled = o.trace && r % 2 == 0
      LayerTag.enabled = tracer.enabled
      val c = r * w.roundCycles + k
      run.timedCycle(c)(w.cycle(run, warm + c))
    }
    tracer.enabled = false
    LayerTag.enabled = false
    probe.drain()
    val toMs = System.currentTimeMillis()
    val compiled = Diagnostics.codegenCompiles - compiled0
    val storedAfter = Diagnostics.storedBytes(spark)
    val versions = w.tables.map(t => w.engine.tm.table(t).versionCount).sum
    val cachedRdds = sc.getPersistentRDDs.size

    phase("timed")
    w.gate(run)
    w.close()
    phase("gate")

    val n = run.cycles.size
    val work = probe.workBetween(fromMs, toMs)
    val e2e = Map(
      "setup_s" -> (Stats.median(setups.map(_._1)), "s"),
      "cycle_ms.p50" -> (Stats.median(run.cycles.map(_.latencyMs).toSeq), "ms"),
      // Median over rounds: a burst of host steal in one round moves a
      // total-over-the-phase rate, not a median. Per round, not per cycle,
      // because cycles within a round differ in work (graph_trickle's
      // `chain` refreshes every other cycle), and a median over two modes
      // falls between them.
      "change_rows_per_s" -> (Stats.median(run.cycles.groupBy(_.index / w.roundCycles).values.map { cs =>
        cs.map(_.changeRows).sum / (cs.map(_.wallMs).sum / 1e3)
      }.toSeq), "rows/s"),
      "jobs_per_cycle" -> (work.jobs.toDouble / n, "count"),
      "stored_mb" -> (storedAfter / 1048576.0, "MB"),
    )
    val steal = Diagnostics.steal(host0, Diagnostics.cpuTicks())
    val diag = Diagnostics.describe(spark) ++ Seq(
      "workload" -> o.workload, "seed" -> o.seed.toString, "timed_cycles" -> n.toString,
      "host.steal_pct" -> f"$steal%.2f",
      "cycle_ms.all" -> run.cycles.map(c => f"${c.latencyMs}%.0f").mkString(" "),
      "cycle_steal_pct.all" -> run.cycles.map(c => f"${c.stealPct}%.1f").mkString(" "),
      "error_rate" -> f"${run.failed.toDouble / math.max(1, run.attempted)}%.6f") ++ marks.result()
    if (o.trace) {
      val layers = Layers.compute(run, w, setups.map(_._2), work, compiled, storedAfter - storedBefore, versions,
        cachedRdds, steal)
      Layers.writeTrace(run, w, o, layers, diag)
      finish(run, layers.metrics, diag, layers.detail)
    } else finish(run, e2e, diag)
  }

  private def finish(run: Run, metrics: Map[String, (Double, String)], diag: Seq[(String, String)],
                     detail: Seq[(String, Double, String)] = Nil): Int = {
    val correct = run.failed == 0 && run.ops.exists(_.kind.startsWith("gate."))
    run.errors.foreach(e => println(s"error: $e"))
    diag.foreach { case (k, v) => println(f"diag  $k%-28s $v") }
    detail.foreach { case (k, v, u) => println(f"trace $k%-40s ${fmt(v)} $u") }
    metrics.toSeq.sortBy(_._1).foreach { case (k, (v, u)) => println(f"metric $k%-34s ${fmt(v)} $u") }
    val ms = metrics.toSeq.sortBy(_._1)
      .map { case (k, (v, u)) => s""""$k": {"value": ${fmt(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": ${run.attempted}, "failed": ${run.failed}, "metrics": {$ms}}""")
    if (correct) 0 else 1
  }

  /** A JSON number with every digit the double carries. */
  def fmt(v: Double): String = if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v) match {
    case s if s.contains("E") => BigDecimal(v).bigDecimal.toPlainString
    case s => s
  }
}

/** Run diagnostics: recorded to explain a slow run, never gated. */
object Diagnostics {
  /** Storage memory and disk held by cached and checkpointed RDDs that are
    * still reachable. Blocks of unreachable RDDs stay until a GC lets
    * Spark's ContextCleaner drop them, so collect first and give the
    * cleaner time to finish; otherwise the figure depends on GC timing.
    */
  def storedBytes(spark: SparkSession): Long = {
    for (_ <- 1 to 2) { System.gc(); Thread.sleep(500) }
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum
  }

  /** (steal, total) CPU ticks of the host from /proc/stat, if readable. */
  def cpuTicks(): Option[(Long, Long)] = scala.util.Try {
    val f = Files.readAllLines(Paths.get("/proc/stat")).asScala.head.trim.split("\\s+").drop(1).map(_.toLong)
    (if (f.length > 7) f(7) else 0L, f.take(8).sum)
  }.toOption

  def steal(a: Option[(Long, Long)], b: Option[(Long, Long)]): Double = (a, b) match {
    case (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) / (t1 - t0)
    case _ => 0.0
  }

  def codegenCompiles: Long = CodegenMetrics.METRIC_COMPILATION_TIME.getCount

  def gcMs: Double = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble
  def jitMs: Double = Option(ManagementFactory.getCompilationMXBean).map(_.getTotalCompilationTime.toDouble).getOrElse(0.0)

  def describe(spark: SparkSession): Seq[(String, String)] = Seq(
    "spark.master" -> spark.sparkContext.master,
    "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "spark.sql.codegen.cache.maxEntries" -> spark.conf.get("spark.sql.codegen.cache.maxEntries"),
    "jvm.options" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filterNot(_.startsWith("--add-opens")).mkString(" "),
    "jvm.gc_ms" -> f"$gcMs%.0f",
    "jvm.jit_ms" -> f"$jitMs%.0f",
    // Generated classes Spark compiled in this JVM; each new one is more
    // work for Janino and the JIT.
    "spark.codegen_compiles" -> codegenCompiles.toString,
  )
}
