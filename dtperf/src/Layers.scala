package repro.perf

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Per-layer metrics of a traced run, plus the per-DT breakdown.
  *
  * `metrics` hold the names every workload reports; `detail` holds the
  * per-DT and workload-specific figures (their names depend on the
  * workload's DTs), printed and written to the trace file.
  */
final case class LayerResult(metrics: Map[String, (Double, String)], detail: Seq[(String, Double, String)])

/** One layer's share of a traced cycle: wall time and Spark work. */
final case class Part(ms: Double, work: Work)

object Layers {

  /** Split a micro-batch span into its txn and core phases.
    *
    * Jobs inside a batch run on the streaming thread, which carries no
    * span, so they are placed by submission time and carry the layer
    * [[LayerTag]] set. The batch runs streaming → txn → core, so each
    * phase ends with the end of its last job.
    */
  private def batchPhases(b: Span, jobs: Seq[JobRec]): (Part, Part, Work) = {
    val tagged = jobs.sortBy(j => (j.submitMs, j.id)).map(j => (j.layer.getOrElse("streaming"), j))
    def of(l: String) = tagged.collect { case (`l`, j) => j }
    val firstTxn = tagged.indexWhere(_._1 == "txn")
    val pre = if (firstTxn < 0) tagged else tagged.take(firstTxn)
    val txnStart = (b.startMs +: pre.map(_._2.endMs)).max
    val txnEnd = (txnStart +: of("txn").map(_.endMs)).max
    val coreEnd = (txnEnd +: of("core").map(_.endMs)).max
    def sum(js: Seq[JobRec]) = js.map(_.work).foldLeft(Work())(_ + _)
    (Part((txnEnd - txnStart).toDouble, sum(of("txn"))), Part((coreEnd - txnEnd).toDouble, sum(of("core"))), sum(of("streaming")))
  }

  def compute(run: Run, w: Workload, setupInits: Seq[Map[String, Double]], window: Work, compiled: Long,
              storedGrowth: Long, versions: Int, cachedRdds: Int, stealPct: Double): LayerResult = {
    val spans = run.trace.spans
    val opBySpan = run.ops.filter(_.span >= 0).map(o => o.span -> o).toMap
    val batches = spans.filter(_.name.startsWith("streaming.batch/"))
    def owner(j: JobRec): Long =
      if (j.span >= 0) j.span
      else batches.find(b => b.startMs <= j.submitMs && j.submitMs <= b.endMs).map(_.id).getOrElse(Probe.NoSpan)
    val jobsBySpan = run.probe.jobs.groupBy(owner).withDefaultValue(Nil)
    def workOf(id: Long): Work = jobsBySpan(id).map(_.work).foldLeft(Work())(_ + _)
    val children = spans.groupBy(_.parent).withDefaultValue(Nil)
    def kids(id: Long, prefix: String) = children(id).filter(_.name.startsWith(prefix))

    val traced = run.cycles.filter(_.traced).toSeq
    val untraced = run.cycles.filterNot(_.traced).toSeq
    val spanById = spans.map(s => s.id -> s).toMap
    final case class C(total: Part, dml: Part, refresh: Seq[(Span, Part)], core: Part, reads: Seq[(Span, Part)])
    val cs = traced.map { c =>
      val s = spanById(c.span)
      val reads = kids(s.id, "core.read/").map(r => r -> Part(r.ms, workOf(r.id)))
      val refresh = kids(s.id, "core.refresh/").map(r => r -> Part(r.ms, workOf(r.id)))
      val (dml, core) = kids(s.id, "streaming.batch/").headOption match {
        case Some(b) => val (t, k, _) = batchPhases(b, jobsBySpan(b.id)); (t, k)
        case None =>
          val d = kids(s.id, "txn.dml/").map(d => Part(d.ms, workOf(d.id)))
          (Part(d.map(_.ms).sum, d.map(_.work).foldLeft(Work())(_ + _)),
            Part(refresh.map(_._2.ms).sum, refresh.map(_._2.work).foldLeft(Work())(_ + _)))
      }
      val total = Part(s.ms, (s.id +: kids(s.id, "").flatMap(k => k.id +: kids(k.id, "").map(_.id))).map(workOf).foldLeft(Work())(_ + _))
      C(total, dml, refresh, core, reads)
    }
    val nt = math.max(1, cs.size).toDouble
    val n = math.max(1, run.cycles.size).toDouble
    def med(xs: Seq[Double]) = Stats.medianOr(xs, 0.0)
    def noData(sp: Span) = opBySpan.get(sp.id).exists(run.isNoData)
    val timedRefreshes = run.ops.filter(o => o.cycle >= 0 && o.kind == "core.refresh")
    val reads = cs.flatMap(_.reads)
    val selfMs = cs.map(c => c.total.ms - c.dml.ms - c.core.ms - c.reads.map(_._2.ms).sum)
    val selfJobs = cs.map(c => c.total.work.jobs - c.dml.work.jobs - c.core.work.jobs - c.reads.map(_._2.work.jobs).sum)

    val metrics = Map[String, (Double, String)](
      "txn.dml_ms.p50" -> (med(cs.map(_.dml.ms)), "ms"),
      "txn.dml_jobs" -> (cs.map(_.dml.work.jobs).sum / nt, "count"),
      "txn.dml_shuffle_kb" -> (cs.map(_.dml.work.shuffleKb).sum / nt, "KiB"),
      "core.refresh_ms.p50" -> (med(cs.map(_.core.ms)), "ms"),
      "core.refresh_jobs" -> (cs.map(_.core.work.jobs).sum / nt, "count"),
      "core.refresh_tasks" -> (cs.map(_.core.work.tasks).sum / nt, "count"),
      "core.refresh_shuffle_kb" -> (cs.map(_.core.work.shuffleKb).sum / nt, "KiB"),
      "core.refresh_exec_cpu_ms" -> (cs.map(_.core.work.cpuMs).sum / nt, "ms"),
      "core.no_data_jobs" -> (cs.flatMap(_.refresh).filter(r => noData(r._1)).map(_._2.work.jobs).sum / nt, "count"),
      "core.delta_rows" -> (timedRefreshes.filter(_.ok).map(_.rows).sum / n, "rows"),
      "core.read_ms.p50" -> (Stats.meanOfMedians(reads.map { case (sp, p) => sp.name -> p.ms }), "ms"),
      "core.read_jobs" -> (reads.map(_._2.work.jobs).sum.toDouble / math.max(1, reads.size), "count"),
      "core.init_ms" -> (med(setupInits.map(_.values.sum)), "ms"),
      "sched.refreshes" -> (timedRefreshes.size / n, "count"),
      "sched.no_data_share" -> (timedRefreshes.count(run.isNoData).toDouble / math.max(1, timedRefreshes.size), "ratio"),
      "sched.failed_refreshes" -> (run.ops.count(o => o.kind == "core.refresh" && !o.ok).toDouble, "count"),
      "driver.self_ms.p50" -> (med(selfMs), "ms"),
      "driver.jobs_per_cycle" -> (selfJobs.sum / nt, "count"),
      "store.versions" -> (versions.toDouble, "count"),
      "store.cached_rdds" -> (cachedRdds.toDouble, "count"),
      "store.mb_per_cycle" -> (storedGrowth / 1048576.0 / n, "MB"),
      "spark.tasks_per_cycle" -> (window.tasks / n, "count"),
      "spark.shuffle_mb_per_cycle" -> (window.shuffleBytes / 1048576.0 / n, "MB"),
      "spark.exec_cpu_ms_per_cycle" -> (window.cpuMs / n, "ms"),
      "spark.codegen_compiles_per_cycle" -> (compiled / n, "count"),
      "jvm.gc_ms" -> (Diagnostics.gcMs, "ms"),
      "jvm.jit_ms" -> (Diagnostics.jitMs, "ms"),
      "host.steal_pct" -> (stealPct, "%"),
      "trace.cycle_ms.p50" -> (med(traced.map(_.latencyMs)), "ms"),
      "trace.overhead_ms" -> (med(traced.map(_.latencyMs)) - med(untraced.map(_.latencyMs)), "ms"),
    )

    val detail = Seq.newBuilder[(String, Double, String)]
    for (dt <- w.dts) {
      val rs = cs.flatMap(_.refresh).filter { case (sp, _) => sp.name == s"core.refresh/$dt" && !noData(sp) }
      if (rs.nonEmpty) {
        val k = rs.size.toDouble
        detail += ((s"core.refresh_ms.$dt.p50", med(rs.map(_._2.ms)), "ms"))
        detail += ((s"core.refresh_jobs.$dt", rs.map(_._2.work.jobs).sum / k, "count"))
        detail += ((s"core.refresh_tasks.$dt", rs.map(_._2.work.tasks).sum / k, "count"))
        detail += ((s"core.refresh_shuffle_kb.$dt", rs.map(_._2.work.shuffleKb).sum / k, "KiB"))
        detail += ((s"core.refresh_exec_cpu_ms.$dt", rs.map(_._2.work.cpuMs).sum / k, "ms"))
      }
      detail += ((s"core.delta_rows.$dt", timedRefreshes.filter(o => o.ok && o.dt == dt).map(_.rows).sum / n, "rows"))
      detail += ((s"core.read_ms.$dt.p50", med(reads.filter(_._1.name == s"core.read/$dt").map(_._2.ms)), "ms"))
      detail += ((s"core.init_ms.$dt", med(setupInits.flatMap(_.get(dt))), "ms"))
    }
    val noDataSpans = cs.flatMap(_.refresh).filter(r => noData(r._1))
    if (noDataSpans.nonEmpty) detail += (("core.no_data_ms.p50", med(noDataSpans.map(_._2.ms)), "ms"))
    if (batches.nonEmpty) {
      detail += (("streaming.batch_ms.p50", med(batches.map(_.ms)), "ms"))
      detail += (("streaming.jobs_per_batch", batches.map(b => jobsBySpan(b.id).size).sum.toDouble / batches.size, "count"))
    }
    LayerResult(metrics, detail.result())
  }

  /** Write every span with its self time and Spark work, the metrics and
    * the run diagnostics to `<out>/traces/<workload>-seed<seed>.json`.
    */
  def writeTrace(run: Run, w: Workload, o: Bench.Opts, r: LayerResult, diag: Seq[(String, String)]): Unit = {
    val spans = run.trace.spans
    val jobsBySpan = run.probe.jobs.filter(_.span >= 0).groupBy(_.span).withDefaultValue(Nil)
    val covered = spans.groupBy(_.parent).map { case (p, ks) => p -> ks.map(_.ms).sum }.withDefaultValue(0.0)
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    def q(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    val f = Bench.fmt _
    val spanJson = spans.map { s =>
      val wk = jobsBySpan(s.id).map(_.work).foldLeft(Work())(_ + _)
      s"""{"id": ${s.id}, "name": ${q(s.name)}, "parent": ${s.parent}, "start_ms": ${f((s.startNs - t0) / 1e6)}, """ +
        s""""dur_ms": ${f(s.ms)}, "self_ms": ${f(s.ms - covered(s.id))}, "ok": ${s.ok}, "jobs": ${wk.jobs}, """ +
        s""""tasks": ${wk.tasks}, "exec_cpu_ms": ${f(wk.cpuMs)}, "shuffle_kb": ${f(wk.shuffleKb)}}"""
    }
    val jobJson = run.probe.jobs.map(j =>
      s"""{"id": ${j.id}, "span": ${j.span}, "submit_ms": ${j.submitMs}, "end_ms": ${j.endMs}, "call_site": ${q(j.callSite)}, """ +
        s""""tasks": ${j.work.tasks}, "exec_cpu_ms": ${f(j.work.cpuMs)}, "shuffle_kb": ${f(j.work.shuffleKb)}}""")
    val metricJson = (r.metrics.toSeq.map { case (k, (v, u)) => (k, v, u) } ++ r.detail).sortBy(_._1)
      .map { case (k, v, u) => s"""${q(k)}: {"value": ${f(v)}, "unit": ${q(u)}}""" }
    val json =
      s"""{"workload": ${q(w.name)}, "seed": ${o.seed},
         |"diagnostics": {${diag.map { case (k, v) => s"${q(k)}: ${q(v)}" }.mkString(", ")}},
         |"metrics": {${metricJson.mkString(",\n")}},
         |"spans": [${spanJson.mkString(",\n")}],
         |"jobs": [${jobJson.mkString(",\n")}]}
         |""".stripMargin
    val dir = Paths.get(o.out, "traces")
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"${w.name}-seed${o.seed}.json"), json.getBytes(StandardCharsets.UTF_8))
  }
}
