package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

/** Deterministic sampling bridge (no scalatestplus jar offline): draw `n`
  * samples from a ScalaCheck generator with fixed seeds. */
object GenSamples {
  def samples[A](g: Gen[A], n: Int = 50): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(i.toLong)))
}

class OffsetListCodecSpec extends AnyFunSuite {
  import GenSamples.samples

  test("width boundaries") {
    assert(OffsetListCodec.widthFor(0) == 1)
    assert(OffsetListCodec.widthFor(255) == 1)
    assert(OffsetListCodec.widthFor(256) == 2)
    assert(OffsetListCodec.widthFor(65535) == 2)
    assert(OffsetListCodec.widthFor(65536) == 3)
    assert(OffsetListCodec.widthFor((1 << 24) - 1) == 3)
    assert(OffsetListCodec.widthFor(1 << 24) == 4)
  }

  test("empty list encodes to a lone header byte") {
    val enc = OffsetListCodec.encode(Array.empty)
    assert(enc.length == 1 && OffsetListCodec.length(enc) == 0)
  }

  test("encode/decode round-trips (property)") {
    samples(Gen.listOf(Gen.chooseNum(0, 1 << 25))).foreach { xs =>
      val a = xs.toArray
      assert(OffsetListCodec.decode(OffsetListCodec.encode(a)).toSeq == a.toSeq)
    }
  }

  test("random access get matches decode (property)") {
    samples(Gen.nonEmptyListOf(Gen.chooseNum(0, 70000))).foreach { xs =>
      val enc = OffsetListCodec.encode(xs.toArray)
      xs.zipWithIndex.foreach { case (x, i) => assert(OffsetListCodec.get(enc, i) == x) }
    }
  }

  test("decodeInto round-trips at widths 1-4") {
    val r = new scala.util.Random(9L)
    for ((max, w) <- Seq(255 -> 1, 65535 -> 2, (1 << 24) - 1 -> 3, Int.MaxValue -> 4); n <- Seq(1, 2, 37)) {
      val xs = Array.tabulate(n)(i => if (i == n / 2) max else r.nextInt(max))
      val enc = OffsetListCodec.encode(xs)
      assert(OffsetListCodec.width(enc) == w)
      val out = Array.fill(n + 3)(-1)
      assert(OffsetListCodec.decodeInto(enc, out) == n)
      assert(out.take(n).toSeq == xs.toSeq, s"width $w, $n offsets")
      assert(out.drop(n).forall(_ == -1), s"width $w wrote past the list")
    }
  }

  test("one byte per offset for short lists (the paper's common case)") {
    val enc = OffsetListCodec.encode((0 until 200).toArray)
    assert(enc.length == 1 + 200)
  }
}

class CSRGraphSpec extends AnyFunSuite {

  private val csr = CSRGraph.random(nV = 500, nE = 5000, seed = 3L)

  test("CSR partitions all edges by source") {
    assert(csr.offsets(0) == 0 && csr.offsets(csr.nV) == csr.nE)
    (0 until csr.nV).foreach(v => assert(csr.listStart(v) <= csr.listEnd(v)))
    assert((0 until csr.nV).map(csr.degree).sum == csr.nE)
  }

  test("CSR adjacency equals a naive grouping") {
    val src = Array(0, 0, 1, 3, 3, 3)
    val dst = Array(1, 2, 2, 0, 1, 4)
    val ids = Array(10L, 11L, 12L, 13L, 14L, 15L)
    val g = CSRGraph.build(5, src, dst, ids)
    assert((g.listStart(0) until g.listEnd(0)).map(g.nbrs).sorted == Seq(1, 2))
    assert(g.degree(1) == 1 && g.degree(2) == 0 && g.degree(3) == 3 && g.degree(4) == 0)
    assert((g.listStart(3) until g.listEnd(3)).map(g.eIds).sorted == Seq(13L, 14L, 15L))
  }

  test("offset index lists are per-vertex permutations") {
    val idx = OffsetIndex.shuffled(csr)
    (0 until csr.nV).foreach { v =>
      val lst = OffsetListCodec.decode(idx.lists(v))
      assert(lst.sorted.toSeq == (0 until csr.degree(v)))
    }
  }

  test("graph indirection preserves entries") {
    val gi = GraphIndirection.shuffled(csr)
    (0 until csr.nE).foreach { i =>
      assert(gi.poolE(gi.perm(i)) == csr.eIds(i))
      assert(gi.poolN(gi.perm(i)) == csr.nbrs(i))
    }
  }

  test("offset-index model bytes ≈ 1 byte/entry + header for small degrees") {
    val idx = OffsetIndex.shuffled(csr)
    assert(idx.offsetBytes >= csr.nE + 0L)
    assert(idx.offsetBytes <= csr.nE * 2L + csr.nV.toLong)
    assert(idx.offsetBytes < csr.idListBytes / 2)
  }
}

class IndirectionBenchSpec extends AnyFunSuite {

  private val csr = CSRGraph.random(nV = 300, nE = 3000, seed = 5L)
  private val sources = Array(0, 1, 2, 3, 4)

  test("all three modes visit the same paths (count + checksum agree)") {
    val seq  = IndirectionBench.kHop(csr, IndirectionBench.Sequential, sources, 3)
    val lst  = IndirectionBench.kHop(csr,
      IndirectionBench.ListIndirection(OffsetIndex.shuffled(csr)), sources, 3)
    val glb  = IndirectionBench.kHop(csr,
      IndirectionBench.GraphLevel(GraphIndirection.shuffled(csr)), sources, 3)
    assert(seq._1 == lst._1 && lst._1 == glb._1)
    assert(seq._2 == lst._2 && lst._2 == glb._2)
    assert(seq._1 > 0)
  }

  test("list mode equals sequential mode on hub lists of 2- and 3-byte offsets") {
    // vertex 0 has 70,000 out-edges (3-byte offsets), vertex 1 has 300
    // (2-byte offsets), the other vertices 1.5 on average
    val r = new scala.util.Random(4L)
    val nV = 1000
    val srcs = Array.fill(70000)(0) ++ Array.fill(300)(1) ++ Array.fill(1500)(2 + r.nextInt(nV - 2))
    val dsts = srcs.map(s => (s + 1 + r.nextInt(nV - 1)) % nV)
    val hub = CSRGraph.build(nV, srcs, dsts, Array.tabulate(srcs.length)(_ + 1L))
    val idx = OffsetIndex.shuffled(hub)
    assert(OffsetListCodec.width(idx.lists(0)) == 3 && OffsetListCodec.width(idx.lists(1)) == 2)
    for (k <- 1 to 3) {
      val seq = IndirectionBench.kHop(hub, IndirectionBench.Sequential, Array(0, 1, 2, 3), k)
      val lst = IndirectionBench.kHop(hub, IndirectionBench.ListIndirection(idx), Array(0, 1, 2, 3), k)
      assert(lst == seq, s"$k hops")
      assert(seq._1 >= 70300L)
    }
  }

  test("path budget caps the per-source work") {
    val (c, _) = IndirectionBench.kHop(csr, IndirectionBench.Sequential, sources, 3,
      maxPathsPerSource = 10L)
    assert(c <= 10L * sources.length)
  }

  test("1-hop count equals summed degrees of the sources") {
    val (c, _) = IndirectionBench.kHop(csr, IndirectionBench.Sequential, sources, 1)
    assert(c == sources.map(csr.degree).sum)
  }
}
