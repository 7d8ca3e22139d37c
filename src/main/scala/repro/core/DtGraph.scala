package repro.core

import repro.sched.CanonicalPeriods

/** The DAG induced by read dependencies between dynamic tables (§3.1.2):
  * vertices are DTs, edges point from upstream to downstream. Base tables
  * are leaves and are not vertices here.
  *
  * This is the one place that knows graph order and lags, so the §5.2
  * policy (canonical periods from effective lag, upstream before downstream
  * at one data timestamp) is shared by the scheduling simulator and the
  * engine's scheduler.
  */
final class DtGraph(nodes: Seq[DtGraph.Node]) {
  private val byName: Map[String, DtGraph.Node] = nodes.map(n => n.name -> n).toMap
  require(byName.size == nodes.size, "duplicate DT names")
  nodes.foreach(n => n.upstream.foreach(u => require(byName.contains(u), s"unknown upstream $u of ${n.name}")))

  private val downstreamOf: Map[String, Seq[String]] =
    nodes.map(n => n.name -> nodes.filter(_.upstream.contains(n.name)).map(_.name)).toMap

  /** Upstream DTs of a DT, in the order its node lists them. */
  def upstream(name: String): Seq[String] = byName(name).upstream

  /** Direct downstream DTs. */
  def downstream(name: String): Seq[String] = downstreamOf(name)

  /** All DTs in a topological order (upstream before downstream).
    * Throws on cycles — cycles are not allowed (§3.1.1).
    */
  lazy val topoOrder: Seq[String] = {
    val visiting = scala.collection.mutable.Set.empty[String]
    val done = scala.collection.mutable.LinkedHashSet.empty[String]
    def visit(n: String): Unit = {
      if (!done.contains(n)) {
        require(visiting.add(n), s"cycle through dynamic table $n")
        upstream(n).foreach(visit)
        visiting.remove(n)
        done += n
      }
    }
    nodes.map(_.name).foreach(visit)
    done.toSeq
  }

  /** Transitive upstream closure, in topological order. */
  def upstreamClosure(name: String): Seq[String] = {
    val seen = scala.collection.mutable.LinkedHashSet.empty[String]
    def walk(n: String): Unit = upstream(n).foreach { u =>
      if (!seen.contains(u)) { walk(u); seen += u }
    }
    walk(name)
    topoOrder.filter(seen.contains)
  }

  /** Resolve target lags (§3.2): a duration resolves to itself; DOWNSTREAM
    * resolves to the minimum resolved lag of direct downstream DTs, or
    * `None` (refresh only on demand) if there are none.
    */
  lazy val resolvedLag: Map[String, Option[Long]] = sinksFirst { (n, resolved) =>
    byName(n).targetLag match {
      case LagSeconds(s) => Some(s)
      case DownstreamLag => downstream(n).flatMap(resolved).minOption
    }
  }

  /** The lag that drives a DT's refresh *period* (§5.2): a DT must refresh
    * at least as often as every downstream consumer, so its effective lag
    * is the min of its own resolved lag and all downstream effective lags.
    */
  lazy val effectiveLag: Map[String, Option[Long]] = sinksFirst { (n, eff) =>
    (resolvedLag(n).toSeq ++ downstream(n).flatMap(eff)).minOption
  }

  /** A value per DT computed from the values of its downstream DTs, which
    * reverse topological order computes first.
    */
  private def sinksFirst(f: (String, Map[String, Option[Long]]) => Option[Long]): Map[String, Option[Long]] =
    topoOrder.reverse.foldLeft(Map.empty[String, Option[Long]])((m, n) => m + (n -> f(n, m)))

  /** Canonical refresh period of each DT (§5.2), from its effective lag;
    * `None` for a DT that refreshes only on demand.
    */
  lazy val periods: Map[String, Option[Long]] =
    effectiveLag.map { case (n, lag) => n -> lag.map(CanonicalPeriods.periodFor) }

  /** The DTs scheduled at data timestamp `t` (their period divides `t`),
    * in topological order.
    */
  def dueAt(t: Long): Seq[String] = topoOrder.filter(n => periods(n).exists(t % _ == 0))
}

object DtGraph {
  /** A vertex: a DT's name, its upstream DT names and its target lag. */
  final case class Node(name: String, upstream: Seq[String], targetLag: TargetLag)

  /** The graph of DT definitions: a DT's upstream DTs are the sources of
    * its defining query that are themselves DTs, in name order.
    */
  def fromSpecs(specs: Seq[DtSpec]): DtGraph = {
    val names = specs.map(_.name).toSet
    new DtGraph(specs.map(s => Node(s.name, s.query.sources.toSeq.sorted.filter(names.contains), s.targetLag)))
  }
}
