package perfbench

import scala.collection.mutable
import scala.util.Random
import repro.bench.Bench
import repro.storage.{CSRGraph, GraphIndirection, IndirectionBench, Maintenance, OffsetIndex, OffsetListCodec}
import repro.storage.Maintenance.Edge

/** `storage-rw`: the in-process `repro.storage` layer alone, no Spark.
  *
  * One client in a closed loop runs blocks. One block is one operation and
  * holds three parts in fixed order:
  *  - writes: the next `blockWrites` edges of an LJ_{2,4}-sized stream (half
  *    bulk-loaded and compacted in set-up), inserted one at a time into a
  *    D_ps+VB_t store and then into a D_ps+EB_t store;
  *  - reads: `blockReads` seeded vertices, each read as its neighbour list
  *    (`outEdges`) and then as its time-sorted list (`timeSortedOut`);
  *  - k-hop: one 5-hop enumeration from a seeded source over §3's CSR
  *    through the list-level offset index.
  *
  * The part sizes are set so that each part takes about a third of a block
  * on a 4-core x86 host; the traced run reports the measured shares
  * (`op.maint_pct`, `op.read_pct`, `op.khop_pct`). A 2x slowdown of any one
  * part then moves the block latency by about a third. It is the repo's only
  * write path, and reads are served beside the writes, so a buffer policy
  * that speeds inserts but slows `outEdges` shows here.
  */
object StorageWorkload {

  val Name = "storage-rw"

  private final case class Sizes(nV: Int, nE: Int, labels: Int, csrV: Int, csrE: Int, khopCap: Long,
                                 blockWrites: Int, blockReads: Int)
  private val Full = Sizes(24000, 342500, 4, 480000, 6850000, 2000000L, 2800, 26000)
  private val Tiny = Sizes(2400, 34250, 4, 48000, 685000, 20000L, 280, 2600)

  private val TimeMax   = 1000000
  /** EB_t's band α at ~1 % of the time range, as in §5.5's runner. */
  private val Alpha     = 10000.0
  private val Hops      = 5
  /** Bound edges whose EB_t list is recomputed by brute force per round. */
  private val EbSamples = 200
  /** k-hop sources re-enumerated at every hop count whose enumeration is
    * not capped, in list and sequential mode, to compare checksums. */
  private val UncappedChecks = 16
  /** k-hop sources also enumerated through the graph-level indirection. */
  private val GraphModeChecks = 2
  /** Set-ups per run; `setup_s` is their median. Each leaves fresh stores
    * for one round of the timed loop. */
  private val Setups = 3

  /** Stores bulk-loaded with the first half of the stream. */
  private final class Stores(val vbt: Maintenance.Store, val ebt: Maintenance.Store)

  private final class Setup(val stream: Array[Edge], val stores: Stores,
                            val csr: CSRGraph, val off: OffsetIndex, val bytes: Long)

  def run(o: Opts): Outcome = new Run(o).apply()

  private final class Run(o: Opts) {
    private val sz = if (o.tiny) Tiny else Full
    private val tr = new Tracer(o.trace)
    private var opId = 0L

    /** Seeded skewed edge stream, as `Section5Runner` draws it. */
    private def genStream(r: Random): Array[Edge] = {
      def skewed(): Int = (math.pow(r.nextDouble(), 2.0) * sz.nV).toInt.min(sz.nV - 1)
      Array.tabulate(sz.nE) { i =>
        val s = skewed(); var d = skewed(); if (d == s) d = (d + 1) % sz.nV
        Edge(i + 1L, s, d, r.nextInt(sz.labels) + 1, r.nextInt(TimeMax))
      }
    }

    /** Seeded skewed multigraph for §3's k-hop, as `CSRGraph.random` draws it. */
    private def genCsrEdges(r: Random): (Array[Int], Array[Int], Array[Long]) = {
      val src = new Array[Int](sz.csrE)
      val dst = new Array[Int](sz.csrE)
      val ids = Array.tabulate(sz.csrE)(_ + 1L)
      var i = 0
      while (i < sz.csrE) {
        src(i) = (math.pow(r.nextDouble(), 2.0) * sz.csrV).toInt.min(sz.csrV - 1)
        val d = (math.pow(r.nextDouble(), 2.0) * sz.csrV).toInt.min(sz.csrV - 1)
        dst(i) = if (d == src(i)) (d + 1) % sz.csrV else d
        i += 1
      }
      (src, dst, ids)
    }

    private def bulkLoad(stream: Array[Edge]): Stores = {
      val half = stream.length / 2
      val st = tr.span("maint.bulk_load") {
        val vbt = new Maintenance.Store(sz.nV, Maintenance.VBt)
        val ebt = new Maintenance.Store(sz.nV, Maintenance.EBt(Alpha))
        var i = 0
        while (i < half) { vbt.insert(stream(i)); ebt.insert(stream(i)); i += 1 }
        new Stores(vbt, ebt)
      }
      tr.span("maint.compact") { st.vbt.compact(); st.ebt.compact() }
      st
    }

    private def setup(): Setup = tr.span("setup") {
      val r = new Random(o.seed)
      val (stream, (src, dst, ids)) = tr.span("gen")((genStream(r), genCsrEdges(r)))
      val (stores, csr, off) = tr.span("index") {
        val stores = bulkLoad(stream)
        val csr = tr.span("csr.build")(CSRGraph.build(sz.csrV, src, dst, ids))
        val off = tr.span("offset.build")(OffsetIndex.shuffled(csr, o.seed))
        (stores, csr, off)
      }
      val bytes = tr.span("memmodel")(csr.idListBytes + off.offsetBytes)
      new Setup(stream, stores, csr, off, bytes)
    }

    def apply(): Outcome = {
      val setupTimes = mutable.ArrayBuffer[Double]()
      val fresh = mutable.Queue[Stores]()
      var s: Setup = null
      for (_ <- 1 to Setups) {
        s = null
        opId += 1; tr.op = opId
        val t0 = System.nanoTime()
        s = setup()
        setupTimes += (System.nanoTime() - t0) / 1e9
        Progress(f"set-up ${setupTimes.size}: ${setupTimes.last}%.2f s")
        fresh += s.stores
      }
      val stream = s.stream
      val half = stream.length / 2
      val rnd = new Random(o.seed * 31 + 7)

      var attempted = 0L
      var failed = 0L
      def fail(msg: String): Unit = { failed += 1; Console.err.println(s"[perfbench] WRONG $msg") }

      // ---- per-call times of one block, kept for the untraced blocks
      val W = sz.blockWrites
      val R = sz.blockReads
      val vbtNs, ebtNs = new Array[Long](W)
      val outNs, tsNs = new Array[Long](R)
      val readV = new Array[Int](R)
      val readOut, readTs = new Array[Seq[Edge]](R)
      val insertLat = new mutable.ArrayBuilder.ofLong
      val readOutLat, readTsLat = new mutable.ArrayBuilder.ofLong
      val khopLat = mutable.ArrayBuffer[Double]()

      def insertAll(store: Maintenance.Store, from: Int, ns: Array[Long]): Unit = {
        var i = 0
        while (i < W) {
          val t = System.nanoTime()
          store.insert(stream(from + i))
          ns(i) = System.nanoTime() - t
          i += 1
        }
      }
      def readAll(f: Int => Seq[Edge], into: Array[Seq[Edge]], ns: Array[Long]): Unit = {
        var i = 0
        while (i < R) {
          val t = System.nanoTime()
          into(i) = f(readV(i))
          ns(i) = System.nanoTime() - t
          i += 1
        }
      }
      def sortedByTime(xs: Seq[Edge]): Boolean = {
        val it = xs.iterator
        var prev = Int.MinValue
        var ok = true
        while (it.hasNext) { val t = it.next().time; if (t < prev) ok = false; prev = t }
        ok
      }

      // ---- timed closed loop of blocks. Each round inserts the second half
      // of the stream into freshly bulk-loaded stores; re-loading and the
      // checks pause the clock. In a traced run every other block is traced.
      val plain    = mutable.ArrayBuffer[Double]()
      val traced   = mutable.ArrayBuffer[Double]()
      val khops    = mutable.ArrayBuffer[(Int, Long, Long)]()
      var ebEntries = 0L
      var blocks = 0L
      var rounds = 0
      val gcBefore = Jvm.gcMillis()
      Jvm.resetHeapPeaks()
      val budget = o.seconds * 1000000000L
      var active = 0L
      var segStart = System.nanoTime()
      def pause[A](f: => A): A = {
        active += System.nanoTime() - segStart
        try f finally segStart = System.nanoTime()
      }
      def elapsed: Long = active + System.nanoTime() - segStart

      val minBlocks = if (o.trace) 2 else 1
      def more: Boolean = elapsed < budget || blocks < minBlocks
      tr.on = false
      while (more) {
        val st = pause(if (fresh.nonEmpty) fresh.dequeue() else bulkLoad(stream))
        rounds += 1
        val deg = new Array[Int](sz.nV)
        var i = 0
        while (i < half) { deg(stream(i).src) += 1; i += 1 }
        var j = half
        while (j + W <= stream.length && more) {
          var r = 0
          while (r < R) { readV(r) = rnd.nextInt(sz.nV); r += 1 }
          val src = rnd.nextInt(sz.csrV)
          val traceThis = o.trace && blocks % 2 == 1
          tr.on = traceThis
          opId += 1; tr.op = opId
          val t0 = System.nanoTime()
          val (c, k) = tr.span("op") {
            tr.span("maint.insert.vbt")(insertAll(st.vbt, j, vbtNs))
            tr.span("maint.insert.ebt")(insertAll(st.ebt, j, ebtNs))
            tr.span("maint.read.out")(readAll(st.vbt.outEdges, readOut, outNs))
            tr.span("maint.read.time_sorted")(readAll(st.vbt.timeSortedOut, readTs, tsNs))
            val t = System.nanoTime()
            val ck = tr.span("khop.list")(kHop(s, IndirectionBench.ListIndirection(s.off), src))
            if (!traceThis) khopLat += (System.nanoTime() - t) / 1e6
            ck
          }
          val dt = (System.nanoTime() - t0) / 1e6
          tr.on = false
          (if (traceThis) traced else plain) += dt
          blocks += 1
          attempted += W + R + 1
          khops += ((src, c, k))
          pause {
            var n = 0
            while (n < W) {
              val e = stream(j + n)
              deg(e.src) += 1
              if (traceThis) ebEntries += ebEntriesOf(st, e)
              else insertLat += vbtNs(n) + ebtNs(n)
              n += 1
            }
            n = 0
            while (n < R) {
              val v = readV(n)
              if (readOut(n).size != deg(v) || readTs(n).size != deg(v) || !sortedByTime(readTs(n)))
                fail(s"read of vertex $v: ${readOut(n).size}/${readTs(n).size} edges, expected ${deg(v)}")
              if (!traceThis) { readOutLat += outNs(n); readTsLat += tsNs(n) }
              readOut(n) = null; readTs(n) = null
              n += 1
            }
          }
          j += W
        }
        pause(failed += checkContents(st, stream, j))
      }
      val wallS = elapsed / 1e9
      Progress(s"timed loop done: $rounds rounds, $blocks blocks")
      val gcS = (Jvm.gcMillis() - gcBefore) / 1e3

      // ---- k-hop checks, outside the timed region. A timed enumeration is
      // capped, and the offset lists hold a permuted list order, so a capped
      // enumeration through them visits another subset of paths than the
      // sequential one: the counts agree but the checksums need not. So every
      // offset list must decode to a permutation of its list's positions;
      // some sources are re-enumerated at each hop count below the cap in
      // list and sequential mode, where the checksums must agree; and a few
      // go through the graph-level indirection too.
      failed += checkOffsets(s)
      val seqNs = mutable.ArrayBuffer[Double]()
      val listNs = mutable.ArrayBuffer[Double]()
      val graphNs = mutable.ArrayBuffer[Double]()
      var uncappedLevels = 0
      val gi = GraphIndirection.shuffled(s.csr, o.seed)
      Progress("graph-level indirection built")
      val list = IndirectionBench.ListIndirection(s.off)
      khops.zipWithIndex.foreach { case ((src, c, k), n) =>
        val ((c1, k1), t1) = timed(kHop(s, IndirectionBench.Sequential, src))
        if (c1 != c || (c < sz.khopCap && k1 != k))
          fail(s"k-hop from $src: sequential ($c1, $k1) vs list ($c, $k)")
        if (c > 0) seqNs += t1 / c
        if (n < UncappedChecks) {
          var h = 1
          var capped = false
          while (h < Hops && !capped) {
            val seq = kHop(s, IndirectionBench.Sequential, src, h)
            capped = seq._1 >= sz.khopCap
            if (!capped) {
              val lst = kHop(s, list, src, h)
              if (lst != seq) fail(s"$h-hop from $src: list $lst vs sequential $seq")
              uncappedLevels += 1
            }
            h += 1
          }
        }
        if (n < GraphModeChecks) {
          val ((c2, k2), t2) = timed(kHop(s, IndirectionBench.GraphLevel(gi), src))
          if ((c2, k2) != ((c1, k1))) fail(s"k-hop from $src: graph ($c2, $k2) vs sequential ($c1, $k1)")
          val ((c3, k3), t3) = timed(kHop(s, list, src))
          if (c3 != c || (c < sz.khopCap && k3 != k)) fail(s"k-hop from $src: list ($c3, $k3) vs ($c, $k)")
          if (c > 0) { graphNs += t2 / c; listNs += t3 / c }
        }
      }
      val cappedSources = khops.count(_._2 >= sz.khopCap)
      Progress(s"k-hop checks done: ${khops.size} sources, $cappedSources capped, " +
        s"$uncappedLevels uncapped enumerations compared")
      if (khops.isEmpty && !o.tiny) fail("no k-hop ran")

      val endToEnd = Seq(
        Metric("setup_s", Stats.median(setupTimes.toSeq), "s"),
        Metric("op_p50_ms", Stats.median(plain.toSeq), "ms"),
        Metric("op_p90_ms", Stats.quantile(plain.toSeq, 0.9), "ms"),
        Metric("ops_per_s", blocks / wallS, "1/s"),
        Metric("model_bytes_per_edge", s.bytes.toDouble / s.csr.nE, "B/edge"),
      )
      val inputs = Seq(
        "stream_V" -> sz.nV.toString, "stream_E" -> sz.nE.toString, "labels" -> sz.labels.toString,
        "V" -> sz.csrV.toString, "E" -> sz.csrE.toString, "seed" -> o.seed.toString,
        "alpha" -> Alpha.toString, "hops" -> Hops.toString, "khop_cap" -> sz.khopCap.toString,
        "block" -> s"${W} writes + $R reads + 1 k-hop",
        "rounds" -> rounds.toString, "blocks" -> blocks.toString, "ops" -> attempted.toString,
        "khop_sources" -> khops.size.toString, "khop_capped" -> cappedSources.toString,
        "setups" -> Setups.toString)

      val (perLayer, report) =
        if (!o.trace) (Nil, Nil)
        else {
          val k = Setups.toDouble
          val setupSelf = tr.selfByName("setup")
          val opSelf = tr.selfByName("op")
          val opTotalNs = opSelf.values.sum.toDouble
          def setupS(p: String) = setupSelf.collect { case (n, v) if n.startsWith(p) => v }.sum / k / 1e9
          def opPct(p: String) = 100.0 * opSelf.collect { case (n, v) if n.startsWith(p) => v }.sum / opTotalNs
          val tracedInserts = W.toDouble * traced.size
          val tracedP50 = Stats.median(traced.toSeq)
          val plainP50 = Stats.median(plain.toSeq)
          val seqMed = Stats.median(seqNs.toSeq)
          def us(xs: Array[Long], p: Double) = Stats.quantile(xs.toSeq.map(_.toDouble), p) / 1e3
          val ins = insertLat.result()
          val common = Seq(
            Metric("setup.gen_s", setupS("gen"), "s"),
            Metric("setup.index_s", setupS("index") + setupS("maint") + setupS("csr") + setupS("offset"), "s"),
            Metric("setup.memmodel_s", setupS("memmodel"), "s"),
            Metric("setup.catalogue_pct", 0.0, "%"),
            Metric("op.traced_p50_ms", tracedP50, "ms"),
            Metric("trace.overhead_pct", 100.0 * (tracedP50 - plainP50) / plainP50, "%"),
            Metric("trace.unattributed_pct", 100.0 * opSelf.getOrElse("op", 0L) / opTotalNs, "%"),
            Metric("op.optimizer_pct", 0.0, "%"),
            Metric("op.executor_pct", 0.0, "%"),
            Metric("op.catalyst_pct", 0.0, "%"),
            Metric("op.spark_exec_pct", 0.0, "%"),
            Metric("op.maint_pct", opPct("maint.insert"), "%"),
            Metric("op.read_pct", opPct("maint.read"), "%"),
            Metric("op.khop_pct", opPct("khop"), "%"),
            Metric("spark.jobs_per_op", 0.0, "count"),
            Metric("spark.tasks_per_op", 0.0, "count"),
            Metric("spark.shuffle_write_mb_per_op", 0.0, "MB"),
            Metric("spark.shuffle_records_per_row", 0.0, "count"),
            Metric("spark.busy_pct", 0.0, "%"),
            Metric("spark.task_gc_pct", 0.0, "%"),
            Metric("executor.joins_per_op", 0.0, "count"),
            Metric("executor.prop_store_scans_per_op", 0.0, "count"),
            Metric("optimizer.est_icost_sum", 0.0, "count"),
            Metric("index.entries", s.csr.nE.toDouble, "count"),
            Metric("index.lists", s.csr.nV.toDouble, "count"),
            Metric("jvm.gc_pct", 100.0 * gcS / wallS, "%"),
            Metric("jvm.heap_peak_mb", Jvm.heapPeakMb(), "MB"),
            Metric("maint.vbt.inserts_per_s", tracedInserts / (opSelf.getOrElse("maint.insert.vbt", 0L) / 1e9), "1/s"),
            Metric("maint.ebt.inserts_per_s", tracedInserts / (opSelf.getOrElse("maint.insert.ebt", 0L) / 1e9), "1/s"),
            Metric("maint.ebt.entries_per_insert", ebEntries / tracedInserts, "count"),
            Metric("khop.list_vs_seq", Stats.median(listNs.toSeq) / seqMed, "x"),
            Metric("khop.graph_vs_seq", Stats.median(graphNs.toSeq) / seqMed, "x"),
            Metric("offset.bytes_per_entry", s.off.offsetBytes.toDouble / s.csr.nE, "B"),
          )
          val report = Seq(
            Metric("maint.bulk_load_s", setupS("maint.bulk_load"), "s"),
            Metric("maint.compact_s", setupS("maint.compact"), "s"),
            Metric("csr.build_s", setupS("csr.build"), "s"),
            Metric("offset.build_s", setupS("offset.build"), "s"),
            Metric("khop.ns_per_path.sequential", seqMed, "ns"),
            Metric("khop.ns_per_path.list", Stats.median(listNs.toSeq), "ns"),
            Metric("khop.ns_per_path.graph", Stats.median(graphNs.toSeq), "ns"),
            Metric("khop.paths", khops.map(_._2).sum.toDouble / math.max(1, khops.size), "count"),
            Metric("khop.capped_sources", cappedSources.toDouble, "count"),
            Metric("jvm.gc_s", gcS, "s"),
            Metric("inserts_per_s", 2.0 * ins.length / (ins.sum / 1e9), "1/s"),
            Metric("insert_p99_us", us(ins, 0.99), "us"),
            Metric("read_p50_us", us(readOutLat.result().zip(readTsLat.result()).map(p => p._1 + p._2), 0.5), "us"),
            Metric("maint.read.out_us", us(readOutLat.result(), 0.5), "us"),
            Metric("maint.read.time_sorted_us", us(readTsLat.result(), 0.5), "us"),
            Metric("khop_p50_ms", Stats.median(khopLat.toSeq), "ms"),
            Metric("trace.overhead_ms", tracedP50 - plainP50, "ms"),
            Metric("trace.op_total_s", traced.sum / 1e3, "s"),
            Metric("trace.self_total_s", opTotalNs / 1e9, "s"),
          )
          (common, report)
        }
      if (o.trace) tr.write(new java.io.File(o.outDir, s"${o.workload}-seed${o.seed}-spans.jsonl"))
      Outcome(attempted, failed, endToEnd, perLayer, report, inputs)
    }

    private def kHop(s: Setup, mode: IndirectionBench.Mode, src: Int, hops: Int = Hops): (Long, Long) =
      IndirectionBench.kHop(s.csr, mode, Array(src), hops, sz.khopCap)

    private def timed[A](f: => A): (A, Double) = {
      val (a, secs) = Bench.time(f)
      (a, secs * 1e9)
    }

    /** Every offset list holds one offset per position of its vertex's ID
      * list, each position once. Returns the number of lists that do not. */
    private def checkOffsets(s: Setup): Int = {
      var bad = 0
      val seen = new java.util.BitSet()
      var v = 0
      while (v < s.csr.nV) {
        val d = s.csr.degree(v)
        val lst = s.off.lists(v)
        seen.clear()
        var ok = OffsetListCodec.length(lst) == d
        var i = 0
        while (ok && i < d) {
          val p = OffsetListCodec.get(lst, i)
          ok = p >= 0 && p < d && !seen.get(p)
          seen.set(math.max(p, 0))
          i += 1
        }
        if (o.injectWrongCount && v == 0) ok = false
        if (!ok) {
          bad += 1
          Console.err.println(s"[perfbench] WRONG offset list of vertex $v")
        }
        v += 1
      }
      bad
    }

    /** EB_t entries the insert of `e` added: its own list plus one entry in
      * the list of every qualifying bound edge that shares its source. */
    private def ebEntriesOf(st: Stores, e: Edge): Long =
      st.ebt.ebt.get(e.eId).map(_.size).getOrElse(0).toLong +
        st.ebt.outEdges(e.src).count(b => b.eId != e.eId && b.time < e.time + Alpha)

    /** Store contents equal the edges inserted so far (`stream(0 until upTo)`),
      * and sampled EB_t lists equal a brute-force recompute. Returns the
      * number of mismatching lists. */
    private def checkContents(st: Stores, stream: Array[Edge], upTo: Int): Int = {
      val outs = Array.fill(sz.nV)(mutable.ArrayBuffer[Long]())
      val ins  = Array.fill(sz.nV)(mutable.ArrayBuffer[Long]())
      var i = 0
      while (i < upTo) { outs(stream(i).src) += stream(i).eId; ins(stream(i).dst) += stream(i).eId; i += 1 }
      if (o.injectWrongCount) outs(stream(0).src) += -1L
      var bad = 0
      for (store <- Seq(st.vbt, st.ebt); v <- 0 until sz.nV) {
        val want = outs(v).sorted
        if (store.outEdges(v).map(_.eId).sorted != want ||
            store.inEdges(v).map(_.eId).sorted != ins(v).sorted) {
          bad += 1
          Console.err.println(s"[perfbench] WRONG ${store.cfg.name} lists of vertex $v")
        }
      }
      for (v <- 0 until sz.nV) {
        val ts = st.vbt.timeSortedOut(v)
        if (ts.map(_.eId).sorted != outs(v).sorted ||
            ts.iterator.sliding(2).exists(p => p.size == 2 && p(0).time > p(1).time)) {
          bad += 1
          Console.err.println(s"[perfbench] WRONG VB_t list of vertex $v")
        }
      }
      val bySrc = stream.iterator.take(upTo).toSeq.groupBy(_.src)
      val r = new Random(o.seed + upTo)
      for (_ <- 1 to EbSamples) {
        val eb = stream(r.nextInt(upTo))
        val want = bySrc(eb.src).filter(a => a.eId != eb.eId && eb.time < a.time + Alpha).map(_.eId).sorted
        val got = st.ebt.ebt.get(eb.eId).map(_.toSeq.sorted).getOrElse(Seq.empty)
        if (got != want) {
          bad += 1
          Console.err.println(s"[perfbench] WRONG EB_t list of bound edge ${eb.eId}")
        }
      }
      bad
    }
  }
}
