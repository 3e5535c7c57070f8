package perfbench

import scala.collection.mutable
import org.apache.spark.sql.functions.col
import repro.core.{PropertyGraph, Schema}
import repro.core.query._

/** Expected result counts, computed without Spark, indexes or the
  * optimizer: the graph is collected into this JVM once and each query is
  * matched by backtracking over plain adjacency arrays, with the same
  * homomorphism semantics as [[repro.core.NaiveEvaluator]] (no
  * distinctness, every predicate of the query). */
final class Reference(g: PropertyGraph) {

  private val vRows = g.vertices.select((Schema.VertexId +: Schema.VertexProps).map(col): _*).collect()
  private val maxV = vRows.map(_.getLong(0)).max.toInt
  /** vertex property -> value by vertex ID */
  private val vProp: Map[String, Array[Int]] = Schema.VertexProps.zipWithIndex.map { case (p, i) =>
    val a = new Array[Int](maxV + 1)
    vRows.foreach(r => a(r.getLong(0).toInt) = r.getInt(i + 1))
    p -> a
  }.toMap

  private val eRows =
    g.edges.select((Seq(Schema.EdgeId, Schema.Src, Schema.Dst) ++ Schema.EdgeProps).map(col): _*).collect()
  private val eId  = eRows.map(_.getLong(0))
  private val eSrc = eRows.map(_.getLong(1).toInt)
  private val eDst = eRows.map(_.getLong(2).toInt)
  /** edge property -> value by edge index, as a double (Spark compares int
    * columns with double literals and sums in double as well) */
  private val eProp: Map[String, Array[Double]] = Schema.EdgeProps.zipWithIndex.map { case (p, i) =>
    p -> eRows.map(r => r.get(i + 3) match {
      case x: java.lang.Integer => x.doubleValue
      case x: java.lang.Double  => x.doubleValue
      case x: java.lang.Long    => x.doubleValue
    })
  }.toMap
  private def adjacency(end: Array[Int]): Array[Array[Int]] = {
    val b = Array.fill(maxV + 1)(mutable.ArrayBuilder.make[Int])
    end.indices.foreach(i => b(end(i)) += i)
    b.map(_.result())
  }
  private val out = adjacency(eSrc)
  private val in  = adjacency(eDst)
  /** edges from `s` to `d`, keyed by `s * (maxV + 1) + d` */
  private val between: mutable.LongMap[Array[Int]] = {
    val m = mutable.LongMap.empty[List[Int]]
    eSrc.indices.reverse.foreach { i =>
      val k = eSrc(i).toLong * (maxV + 1) + eDst(i)
      m(k) = i :: m.getOrElse(k, Nil)
    }
    m.map { case (k, v) => k -> v.toArray }
  }

  private def cmp(l: Double, op: CmpOp, r: Double): Boolean = op match {
    case Lt => l < r
    case Le => l <= r
    case Gt => l > r
    case Ge => l >= r
    case EqOp => l == r
  }

  def count(q: QueryGraph): Long = {
    // Edges in a connected order that prunes early: an edge closing a
    // cycle first, then one whose new vertex is tied to a matched one by a
    // property equality, then one whose new vertex has local predicates.
    def local(v: QVertex) = v.label.nonEmpty || v.propEq.nonEmpty || v.idEq.nonEmpty || v.idLt.nonEmpty
    val order = mutable.ArrayBuffer(q.edges.head)
    val rest  = mutable.ArrayBuffer(q.edges.tail: _*)
    while (rest.nonEmpty) {
      val seen = order.flatMap(e => Seq(e.from, e.to)).toSet
      def score(e: QEdge): Int =
        if (!seen(e.from) && !seen(e.to)) -1
        else if (seen(e.from) && seen(e.to)) 3
        else {
          val nv = if (seen(e.from)) e.to else e.from
          if (q.vertexEqs.exists(p => p.vars.contains(nv) && p.vars.exists(seen))) 2
          else if (local(q.vertex(nv))) 1
          else 0
        }
      order += rest.remove(rest.indices.maxBy(i => score(rest(i))))
    }
    val vIdx = q.vertices.map(_.name).zipWithIndex.toMap
    val eIdx = order.map(_.name).zipWithIndex.toMap
    val vAt  = Array.fill(q.vertices.size)(-1)
    val eAt  = Array.fill(order.size)(-1)

    val eqsOf   = q.vertices.map(v => v.name -> q.vertexEqs.filter(_.vars.contains(v.name))).toMap
    val pairsOf = q.edges.map(e => e.name -> q.edgePairs.filter(p => p.e1 == e.name || p.e2 == e.name)).toMap

    def vertexOk(v: QVertex, id: Int): Boolean =
      v.label.forall(_ == vProp("vLabel")(id)) &&
        v.propEq.forall { case (p, x) => vProp(p)(id) == x } &&
        v.idEq.forall(_ == id) && v.idLt.forall(id < _) &&
        eqsOf(v.name).forall { p =>
          p.vars.map(vIdx).filter(vAt(_) >= 0).forall(o => vProp(p.prop)(vAt(o)) == vProp(p.prop)(id))
        }

    /** Local predicates of `e` on edge `i`, and its pair predicates with
      * query edges already matched. */
    def edgeOk(e: QEdge, i: Int): Boolean =
      e.label.forall(_ == eProp("eLabel")(i).toInt) && e.idEq.forall(_ == eId(i)) &&
        e.scalarPreds.forall(sp => cmp(eProp(sp.prop)(i), sp.op, sp.value)) &&
        pairsOf(e.name).forall { p =>
          val ia = if (p.e1 == e.name) i else eAt(eIdx(p.e1))
          val ib = if (p.e2 == e.name) i else eAt(eIdx(p.e2))
          ia < 0 || ib < 0 || cmp(eProp(p.p1)(ia), p.op, eProp(p.p2)(ib) + p.delta)
        }

    /** Bind `v` to `id` if allowed, run `k`, then unbind. */
    def bind(v: String, id: Int)(k: => Long): Long = {
      val x = vIdx(v)
      if (vAt(x) >= 0) { if (vAt(x) == id) k else 0L }
      else if (!vertexOk(q.vertex(v), id)) 0L
      else { vAt(x) = id; try k finally vAt(x) = -1 }
    }

    def step(s: Int): Long =
      if (s == order.size) 1L
      else {
        val e = order(s)
        val (f, t) = (vAt(vIdx(e.from)), vAt(vIdx(e.to)))
        val cands: Iterator[Int] =
          if (f >= 0 && t >= 0) between.getOrElse(f.toLong * (maxV + 1) + t, Array.emptyIntArray).iterator
          else if (f >= 0) out(f).iterator
          else if (t >= 0) in(t).iterator
          else eId.indices.iterator
        var n = 0L
        cands.foreach { i =>
          if (edgeOk(e, i)) {
            eAt(s) = i
            n += bind(e.from, eSrc(i))(bind(e.to, eDst(i))(step(s + 1)))
            eAt(s) = -1
          }
        }
        n
      }

    step(0)
  }
}
