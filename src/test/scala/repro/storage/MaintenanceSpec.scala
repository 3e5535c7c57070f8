package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MaintenanceSpec extends AnyFunSuite {
  import Maintenance._

  private def randomEdges(n: Int, nV: Int, seed: Long): Seq[Edge] = {
    val r = new Random(seed)
    (1 to n).map { i =>
      val s = r.nextInt(nV)
      var d = r.nextInt(nV); if (d == s) d = (d + 1) % nV
      Edge(i.toLong, s, d, r.nextInt(3) + 1, r.nextInt(1000))
    }
  }

  private val nV = 50
  private val edges = randomEdges(600, nV, 17L)

  private def checkAdjacency(st: Store): Unit = {
    val bySrc = edges.groupBy(_.src).view.mapValues(_.map(_.eId).toSet).toMap
    val byDst = edges.groupBy(_.dst).view.mapValues(_.map(_.eId).toSet).toMap
    (0 until nV).foreach { v =>
      assert(st.outEdges(v).map(_.eId).toSet == bySrc.getOrElse(v, Set.empty), s"fwd v=$v")
      assert(st.inEdges(v).map(_.eId).toSet == byDst.getOrElse(v, Set.empty), s"bwd v=$v")
    }
  }

  for (cfg <- Seq(Ds, Dp, Dps, VBt, EBt(10.0))) {
    test(s"incremental inserts preserve the adjacency under ${cfg.name}") {
      val st = new Store(nV, cfg)
      edges.foreach(st.insert)
      checkAdjacency(st)
      st.compact()
      checkAdjacency(st)
    }
  }

  test("D_s compaction sorts forward lists by neighbour ID") {
    val st = new Store(nV, Ds)
    edges.foreach(st.insert)
    st.compact()
    (0 until nV).foreach { v =>
      val ns = st.outEdges(v).map(_.dst)
      assert(ns == ns.sorted, s"v=$v not nbr-sorted: $ns")
    }
  }

  test("D_ps compaction sorts by (label, neighbour ID)") {
    val st = new Store(nV, Dps)
    edges.foreach(st.insert)
    st.compact()
    (0 until nV).foreach { v =>
      val ks = st.outEdges(v).map(e => (e.label, e.dst))
      assert(ks == ks.sorted, s"v=$v not (label,nbr)-sorted")
    }
  }

  test("D_p compaction orders lists by (label, edge ID)") {
    val st = new Store(nV, Dp)
    edges.foreach(st.insert)
    st.compact()
    (0 until nV).foreach { v =>
      val fs = st.outEdges(v).map(e => (e.label, e.eId))
      val bs = st.inEdges(v).map(e => (e.label, e.eId))
      assert(fs == fs.sorted, s"v=$v forward list not (label,eId)-ordered")
      assert(bs == bs.sorted, s"v=$v backward list not (label,eId)-ordered")
    }
  }

  private def checkTimeSorted(st: Store, inserted: Seq[Edge]): Unit =
    (0 until nV).foreach { v =>
      val ts = st.timeSortedOut(v)
      assert(ts.map(_.time) == ts.map(_.time).sorted, s"v=$v times unsorted")
      assert(ts.map(_.eId).sorted == inserted.filter(_.src == v).map(_.eId).sorted, s"v=$v incomplete")
    }

  test("VB_t keeps a complete time-sorted secondary view") {
    val st = new Store(nV, VBt)
    edges.grouped(150).foldLeft(Seq.empty[Edge]) { (done, batch) =>
      batch.foreach(st.insert)
      val inserted = done ++ batch
      checkTimeSorted(st, inserted)
      inserted
    }
    st.compact()
    checkTimeSorted(st, edges)
  }

  private def bruteForceEb(alpha: Double): Map[Long, Seq[Long]] = edges.map { eb =>
    eb.eId -> edges.filter(a =>
      a.eId != eb.eId && a.src == eb.src && eb.time < a.time + alpha).map(_.eId).sorted
  }.toMap

  private def ebList(st: Store, eId: Long): Seq[Long] =
    st.ebt.get(eId).map(_.toSeq.sorted).getOrElse(Seq.empty)

  test("EB_t lists equal the bulk-computed 2-path view") {
    val alpha = 100.0
    val st = new Store(nV, EBt(alpha))
    edges.foreach(st.insert)
    val expected = bruteForceEb(alpha)
    edges.foreach(eb => assert(ebList(st, eb.eId) == expected(eb.eId), s"EB list of edge ${eb.eId}"))
    st.compact()
    edges.foreach(eb => assert(ebList(st, eb.eId) == expected(eb.eId), s"EB list of edge ${eb.eId} after compact()"))
  }

  test("EB_t lists reject edge IDs outside [0, Int.MaxValue)") {
    val st = new Store(nV, EBt(10.0))
    intercept[IllegalArgumentException](st.insert(Edge(-1L, 0, 1, 1, 0)))
    intercept[IllegalArgumentException](st.insert(Edge(Int.MaxValue.toLong, 0, 1, 1, 0)))
    intercept[IllegalArgumentException](st.ebt.get(1L << 40))
  }

  test("returned lists are snapshots: later inserts and compact() do not change them") {
    val st = new Store(nV, VBt)
    val eb = new Store(nV, EBt(100.0))
    val (first, rest) = edges.splitAt(200)
    first.foreach { e => st.insert(e); eb.insert(e) }
    val v = first.head.src
    val out = st.outEdges(v); val in = st.inEdges(first.head.dst); val ts = st.timeSortedOut(v)
    val lst = eb.ebt.get(first.head.eId).get
    val (out0, in0, ts0, lst0) = (out.toList, in.toList, ts.toList, lst.toList)
    rest.foreach { e => st.insert(e); eb.insert(e) }
    st.compact(); eb.compact()
    assert(st.outEdges(v).size > out0.size && eb.ebt.get(first.head.eId).get.size > lst0.size,
      "the later inserts should have grown the lists")
    assert(out.toList == out0 && in.toList == in0 && ts.toList == ts0 && lst.toList == lst0)
  }

  test("throughput runs D_s and EB_t over one stream to the same adjacency") {
    val init   = edges.take(300)
    val stream = edges.drop(300)
    val (ds, tDs)   = throughput(nV, Ds, init, stream)
    val (ebt, tEbt) = throughput(nV, EBt(10.0), init, stream)
    assert(tDs > 0 && tEbt > 0)
    (0 until nV).foreach { v =>
      assert(ebt.outEdges(v).map(_.eId).sorted == ds.outEdges(v).map(_.eId).sorted, s"fwd v=$v")
      assert(ebt.inEdges(v).map(_.eId).sorted == ds.inEdges(v).map(_.eId).sorted, s"bwd v=$v")
    }
    assert(edges.map(e => ebt.ebt.get(e.eId).map(_.size).getOrElse(0)).sum > 0, "EB_t built no list entries")
  }
}
