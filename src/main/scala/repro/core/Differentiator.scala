package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, MapType, StructType}
import Weighted.W

/** The per-source state a delta query reads (§5.4): the source's contents
  * at the refresh interval's two endpoints, plus the weighted change.
  * `old`/`neu` are plain (expanded) DataFrames; `delta` is weighted.
  * `changedRows` is the change's row count from version metadata;
  * `Long.MaxValue` when it is not known.
  */
final case class SourceState(old: DataFrame, neu: DataFrame, delta: DataFrame, changedRows: Long = Long.MaxValue)

/** Query differentiation (§5.5): rewrite a defining query `Q` into `Δ_I Q`,
  * the weighted change of its result over a data-timestamp interval `I`.
  *
  * Rule classes:
  *   - *Linear* operators (scan, filter, project, union-all, flatten)
  *     commute with deltas and simply map over the child delta.
  *   - *Inner join* is bilinear: `Δ(Q ⋈ R) = ΔQ ⋈ R₀ + Q₁ ⋈ ΔR` (weights
  *     multiply; `R₀` is the old snapshot, `Q₁` the new one).
  *   - *Outer joins, aggregates, distinct, windows* use affected-key
  *     recomputation — the paper's window-function rule (§5.5.1),
  *       `Δ(ξ_k(Q)) = π₋(ξ_k(Q|I₀ ⋉_k ΔQ)) + π₊(ξ_k(Q|I₁ ⋉_k ΔQ))`,
  *     generalized: recompute the operator over only the partitions whose
  *     key appears in the child delta, emitting old rows with weight −1
  *     and new rows with weight +1. Cost is linear in changed partitions,
  *     matching the paper's fixed+variable cost model (§3.3.2); it does
  *     not reuse prior per-partition state, which the paper lists as open
  *     future work (§5.5.3).
  *
  * Every rule consolidates its output, which guarantees the production
  * invariant that a change set never contains more than one row per
  * ($ROW_ID, $ACTION) pair (§6.1).
  */
object Differentiator {

  /** Weighted change of `q` over the interval described by `bind`. */
  def delta(q: DtQuery, bind: String => SourceState): DataFrame = q match {
    case Scan(t) => bind(t).delta

    case Filter(c, p) => delta(c, bind).where(expr(p))

    case Project(c, exprs) =>
      Weighted.consolidate(
        delta(c, bind).select(exprs.map { case (a, e) => expr(e).as(a) } :+ col(W): _*)
      )

    case UnionAll(l, r) =>
      Weighted.consolidate(delta(l, bind).unionByName(delta(r, bind)))

    case LateralFlatten(c, arrayExpr, as) =>
      val d = delta(c, bind)
      val cols = Weighted.dataCols(d).map(col) :+ explode(expr(arrayExpr)).as(as) :+ col(W)
      Weighted.consolidate(d.select(cols: _*))

    case Join(l, r, lk, rk, "inner") =>
      // A delta whose sources changed at most `SmallChange` rows is
      // broadcast, so each bilinear term is one pass over the snapshot
      // side; a larger one joins plainly, and Spark sizes the join.
      def broadcastIfSmall(side: DtQuery, d: DataFrame): DataFrame = {
        val changed = side.sources.toSeq.map(bind(_).changedRows)
        if (changed.forall(_ <= SmallChange) && changed.sum <= SmallChange) broadcast(d) else d
      }
      val dl = broadcastIfSmall(l, delta(l, bind))
      val dr = broadcastIfSmall(r, delta(r, bind))
      val rOld = oldSnap(r, bind)
      val lNew = newSnap(l, bind)
      // ΔL ⋈ R₀ : weights come from ΔL (R₀ rows each count once).
      val part1 = dl.join(rOld, lk.zip(rk).map { case (a, b) => dl(a) === rOld(b) }.reduce(_ && _), "inner")
      // L₁ ⋈ ΔR : weights come from ΔR.
      val part2 = lNew.join(dr, lk.zip(rk).map { case (a, b) => lNew(a) === dr(b) }.reduce(_ && _), "inner")
      Weighted.consolidate(part1.unionByName(part2))

    case Join(l, r, lk, rk, joinType) => // left / right / full outer
      // An output row for key tuple k depends only on input rows with key
      // k on either side, so restricting both *inputs* to the affected
      // keys and re-joining equals restricting the output.
      val restrict = affectedKeys(Seq(delta(l, bind).select(lk.map(col): _*), delta(r, bind).select(rk.map(col): _*)))
      def joined(snap: DtQuery => DataFrame): DataFrame = {
        val (a, b) = (restrict(snap(l), lk), restrict(snap(r), rk))
        a.join(b, lk.zip(rk).map { case (x, y) => a(x) === b(y) }.reduce(_ && _), joinType)
      }
      recomputed(joined(oldSnap(_, bind)), joined(newSnap(_, bind)))

    case Aggregate(c, groupBy, aggs) =>
      require(groupBy.nonEmpty,
        "scalar aggregates are not incrementally supported (§3.3.2); use FULL refresh mode")
      recomputeAffected(c, bind, delta(c, bind), groupBy) { in =>
        val aggCols = aggs.map { case (a, e) => expr(e).as(a) }
        in.groupBy(groupBy.map(col): _*).agg(aggCols.head, aggCols.tail: _*)
      }

    case Distinct(c) =>
      val dc = delta(c, bind)
      recomputeAffected(c, bind, dc, Weighted.dataCols(dc))(_.distinct())

    case WindowOp(c, partitionBy, selects) =>
      recomputeAffected(c, bind, delta(c, bind), partitionBy)(
        _.selectExpr(selects.map { case (a, e) => s"$e AS $a" }: _*))
  }

  /** Evaluate `q` against the old / new endpoint of the interval. */
  def oldSnap(q: DtQuery, bind: String => SourceState): DataFrame =
    Eval.snapshot(q, bind(_).old)
  def newSnap(q: DtQuery, bind: String => SourceState): DataFrame =
    Eval.snapshot(q, bind(_).neu)

  /** T: the most delta key rows [[affectedKeys]] restricts with literals,
    * and the most changed source rows whose deltas the inner-join rule
    * broadcasts. Sized from the T2 sweep (EXPERIMENTS.md). Above it a
    * restriction is a plain semi-join and a join delta is not broadcast.
    */
  val SmallChange = 10000

  /** The affected-key restriction of one refresh: `restrict(df, keyCols)`
    * keeps the rows of `df` whose tuple in `keyCols` is the key of some
    * row of `deltaKeys` (key projections of deltas, aligned by position).
    * The keys are collected once, bounded by `SmallChange + 1` rows (one
    * job for a pinned delta). Up to `SmallChange` rows, the restriction is
    * a null-safe filter over literals ([[Weighted.keyIn]]): no join, no
    * broadcast, no checkpoint. Above it, or for keys of nested types, it
    * is a semi-join against the distinct delta keys, which Spark plans by
    * their size.
    */
  private def affectedKeys(deltaKeys: Seq[DataFrame]): (DataFrame, Seq[String]) => DataFrame = {
    val keys = deltaKeys.map(df => df.toDF(df.columns.indices.map(i => s"k$i"): _*)).reduceLeft(_.unionByName(_))
    val types = keys.schema.map(_.dataType)
    val atomic = types.forall {
      case _: ArrayType | _: MapType | _: StructType => false
      case _                                         => true
    }
    val rows = if (atomic) keys.coalesce(1).limit(SmallChange + 1).collect() else Array.empty[Row]
    if (atomic && rows.length <= SmallChange) {
      val tuples = rows.toSeq.map(_.toSeq).distinct
      (df, keyCols) => df.where(Weighted.keyIn(keyCols.map(df(_)), types, tuples))
    } else
      (df, keyCols) => Weighted.semiJoinOnKeys(df, keyCols.map(col), keys.distinct())
  }

  /** Affected-key recomputation of the keyed operator `op` (aggregate,
    * distinct, window) over child `c` with delta `dc`: `op` over the old and
    * the new child rows of the keys in `dc`, as `−op(old) + op(new)`. Both
    * sides are evaluated from the interval's own source snapshots, never
    * from the DT's stored state.
    */
  private def recomputeAffected(c: DtQuery, bind: String => SourceState, dc: DataFrame, keyCols: Seq[String])(
      op: DataFrame => DataFrame): DataFrame = {
    val restrict = affectedKeys(Seq(dc.select(keyCols.map(col): _*)))
    recomputed(op(restrict(oldSnap(c, bind), keyCols)), op(restrict(newSnap(c, bind), keyCols)))
  }

  /** `−old + new`, consolidated. */
  private def recomputed(old: DataFrame, neu: DataFrame): DataFrame =
    Weighted.consolidate(Weighted.negate(Weighted.fromSnapshot(old)).unionByName(Weighted.fromSnapshot(neu)))
}
