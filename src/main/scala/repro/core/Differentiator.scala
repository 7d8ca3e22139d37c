package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import Weighted.W

/** The per-source state a delta query reads (§5.4): the source's contents
  * at the refresh interval's two endpoints, plus the weighted change.
  * `old`/`neu` are plain (expanded) DataFrames; `delta` is weighted.
  */
final case class SourceState(old: DataFrame, neu: DataFrame, delta: DataFrame)

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
      val dl = delta(l, bind)
      val dr = delta(r, bind)
      val rOld = oldSnap(r, bind)
      val lNew = newSnap(l, bind)
      // Deltas are small relative to snapshots: broadcast them so each
      // bilinear term is one pass over the snapshot side, not a shuffle.
      // ΔL ⋈ R₀ : weights come from ΔL (R₀ rows each count once).
      val part1 = {
        val dlB = broadcast(dl)
        val cond = lk.zip(rk).map { case (a, b) => dlB(a) === rOld(b) }.reduce(_ && _)
        dlB.join(rOld, cond, "inner")
      }
      // L₁ ⋈ ΔR : weights come from ΔR.
      val part2 = {
        val drB = broadcast(dr)
        val cond = lk.zip(rk).map { case (a, b) => lNew(a) === drB(b) }.reduce(_ && _)
        lNew.join(drB, cond, "inner")
      }
      Weighted.consolidate(part1.unionByName(part2))

    case Join(l, r, lk, rk, joinType) => // left / right / full outer
      val dl = delta(l, bind)
      val dr = delta(r, bind)
      val keys = affectedKeys(Seq(dl.select(lk.map(col): _*), dr.select(rk.map(col): _*)))
      // An output row for key tuple k depends only on input rows with key
      // k on either side, so restricting both *inputs* to the affected
      // keys and re-joining equals restricting the output — and is far
      // cheaper: each side is one pass with a broadcast semi-join.
      val (lOld, lNew) = restrictedPair(l, bind, lk, keys, dl)
      val (rOld, rNew) = restrictedPair(r, bind, rk, keys, dr)
      def joined(a: DataFrame, b: DataFrame): DataFrame = {
        val cond = lk.zip(rk).map { case (x, y) => a(x) === b(y) }.reduce(_ && _)
        a.join(b, cond, joinType)
      }
      Weighted.consolidate(
        Weighted.negate(Weighted.fromSnapshot(joined(lOld, rOld)))
          .unionByName(Weighted.fromSnapshot(joined(lNew, rNew))))

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

  /** Distinct key tuples present in any of `deltaKeyProjections`,
    * canonically named k0..k{n-1}.
    */
  private def affectedKeys(deltaKeyProjections: Seq[DataFrame]): DataFrame = {
    val renamed = deltaKeyProjections.map { df =>
      df.toDF(df.columns.indices.map(i => s"k$i"): _*)
    }
    renamed.reduceLeft(_.unionByName(_)).distinct().localCheckpoint(true)
  }

  /** Affected-key recomputation of the keyed operator `op` (aggregate,
    * distinct, window) over child `c` with delta `dc`: `op` over the old and
    * the new child rows of the keys in `dc`, as `−op(old) + op(new)`.
    */
  private def recomputeAffected(c: DtQuery, bind: String => SourceState, dc: DataFrame, keyCols: Seq[String])(
      op: DataFrame => DataFrame): DataFrame = {
    val keys = affectedKeys(Seq(dc.select(keyCols.map(col): _*)))
    val (oldR, newR) = restrictedPair(c, bind, keyCols, keys, dc)
    Weighted.consolidate(
      Weighted.negate(Weighted.fromSnapshot(op(oldR))).unionByName(Weighted.fromSnapshot(op(newR))))
  }

  /** Restricted (old, new) plain snapshots of `c` for the affected keys.
    * The new snapshot is evaluated ONCE and semi-join-restricted (Catalyst
    * pushes the semi-join through joins beneath); the old restricted
    * snapshot is reconstructed algebraically as `new|K − Δ|K`, avoiding a
    * second full evaluation. The paper's constraint — changes computed
    * purely from the sources, no reuse of the DT's stored state — still
    * holds: only the change interval's own inputs are used.
    */
  private def restrictedPair(
      c: DtQuery,
      bind: String => SourceState,
      keyCols: Seq[String],
      keys: DataFrame,
      dc: DataFrame,
  ): (DataFrame, DataFrame) = {
    val newR = Weighted.semiJoinOnKeys(newSnap(c, bind), keyCols.map(col), keys)
      .localCheckpoint(true)
    val dR = Weighted.semiJoinOnKeys(dc, keyCols.map(col), keys)
    val oldRW = Weighted.consolidate(Weighted.fromSnapshot(newR).unionByName(Weighted.negate(dR)))
    (Weighted.expand(oldRW), newR)
  }
}
