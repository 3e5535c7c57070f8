package repro.storage

import java.util.{Arrays, Comparator}
import scala.collection.immutable.ArraySeq

/** §5.5 maintenance micro-benchmark substrate: a single-threaded in-memory
  * adjacency store with per-vertex update buffers (20 % of the data size,
  * merged when full — §4.4) under progressively richer index configurations:
  *
  *  - D_s   — no secondary partitioning, lists sorted by neighbour ID
  *  - D_p   — partitioned by adjacent-edge label, unsorted
  *  - D_ps  — partitioned by label and sorted by neighbour ID
  *  - D_ps+VB_t — adds a secondary vertex-bound offset index sorted on time
  *  - D_ps+EB_t — adds an edge-bound index over the 2-path
  *    ``v_nbr ←[e_adj]− v_s −[e_b]→ v_d`` with predicate
  *    ``e_b.time < e_adj.time + α`` (α at ~1 % selectivity): each insert
  *    runs the two delta-queries of §4.4 (update the lists of bound edges
  *    sharing the source, then build the new edge's own list).
  *
  * Page layout: each vertex has one flat `Array[Edge]` page per direction.
  * The page's sorted prefix (in the configuration's list order) comes first
  * and its unsorted update buffer after it. A flush sorts only the buffer
  * and merges it into the prefix in one linear pass. VB_t keeps a separate
  * per-vertex array in time order by binary insertion, so it is never
  * rebuilt. EB_t lists are growable primitive `Long` arrays indexed directly
  * by bound-edge ID, like the paper's edge-ID-partitioned pages. Reads return
  * a snapshot copy that later inserts do not change.
  */
object Maintenance {

  sealed trait Config { def name: String }
  case object Ds   extends Config { val name = "D_s"      }
  case object Dp   extends Config { val name = "D_p"      }
  case object Dps  extends Config { val name = "D_ps"     }
  case object VBt  extends Config { val name = "D_ps+VB_t" }
  final case class EBt(alpha: Double) extends Config { val name = "D_ps+EB_t" }

  final case class Edge(eId: Long, src: Int, dst: Int, label: Int, time: Int)

  /** A growable edge array: for an adjacency page, `arr(0 until sorted)` is
    * the merged list and `arr(sorted until size)` the update buffer. */
  private final class Page {
    var arr: Array[Edge] = Page.Empty
    var size = 0
    var sorted = 0
    def bufCap: Int = math.max(4, sorted / 5)

    def insert(at: Int, e: Edge): Unit = {
      if (size == arr.length) arr = Arrays.copyOf(arr, math.max(4, 2 * size))
      System.arraycopy(arr, at, arr, at + 1, size - at)
      arr(at) = e
      size += 1
    }

    /** Sort the buffer, then merge it into the sorted prefix from the back. */
    def flush(ord: Comparator[Edge]): Unit = if (size > sorted) {
      Arrays.sort(arr, sorted, size, ord)
      val buf = Arrays.copyOfRange(arr, sorted, size)
      var i = sorted - 1
      var j = buf.length - 1
      var k = size - 1
      while (j >= 0) {
        if (i >= 0 && ord.compare(arr(i), buf(j)) > 0) { arr(k) = arr(i); i -= 1 }
        else { arr(k) = buf(j); j -= 1 }
        k -= 1
      }
      sorted = size
    }

    def snapshot: Seq[Edge] = ArraySeq.unsafeWrapArray(Arrays.copyOf(arr, size))
  }

  private object Page { val Empty = new Array[Edge](0) }

  /** Edge-bound lists indexed directly by bound-edge ID: list `i` is
    * `lists(i)(0 until sizes(i))`, and `lists(i) == null` when edge `i` has
    * no list. */
  final class EdgeLists {
    private var lists = new Array[Array[Long]](16)
    private var sizes = new Array[Int](16)

    private def slot(eId: Long): Int = {
      require(eId >= 0 && eId < Int.MaxValue, s"edge ID $eId outside [0, Int.MaxValue)")
      eId.toInt
    }

    /** Give `eId` an empty list unless it has one; returns its slot. */
    private[Maintenance] def open(eId: Long): Int = {
      val i = slot(eId)
      if (i >= lists.length) {
        val n = math.max(i + 1, 2 * lists.length)
        lists = Arrays.copyOf(lists, n)
        sizes = Arrays.copyOf(sizes, n)
      }
      if (lists(i) == null) lists(i) = new Array[Long](4)
      i
    }

    private[Maintenance] def append(i: Int, x: Long): Unit = {
      val n = sizes(i)
      if (n == lists(i).length) lists(i) = Arrays.copyOf(lists(i), 2 * n)
      lists(i)(n) = x
      sizes(i) = n + 1
    }

    /** A snapshot of edge `eId`'s list, if it has one. */
    def get(eId: Long): Option[ArraySeq[Long]] = {
      val i = slot(eId)
      if (i >= lists.length || lists(i) == null) None
      else Some(ArraySeq.unsafeWrapArray(Arrays.copyOf(lists(i), sizes(i))))
    }
  }

  final class Store(val nV: Int, val cfg: Config) {
    private val fwd = Array.fill(nV)(new Page)
    private val bwd = Array.fill(nV)(new Page)
    /** VB_t: per-vertex forward offset view sorted on time. */
    private val vbt = Array.fill(nV)(new Page)
    /** EB_t: per-bound-edge adjacency (edge IDs of qualifying adjacent edges). */
    val ebt = new EdgeLists

    private def order(dirFwd: Boolean): Comparator[Edge] = {
      def nbr(e: Edge): Int = if (dirFwd) e.dst else e.src
      cfg match {
        case Ds => (a, b) => {
          val c = Integer.compare(nbr(a), nbr(b))
          if (c != 0) c else java.lang.Long.compare(a.eId, b.eId)
        }
        case Dp => (a, b) => {
          val c = Integer.compare(a.label, b.label)
          if (c != 0) c else java.lang.Long.compare(a.eId, b.eId)
        }
        case _ => (a, b) => {
          var c = Integer.compare(a.label, b.label)
          if (c == 0) c = Integer.compare(nbr(a), nbr(b))
          if (c != 0) c else java.lang.Long.compare(a.eId, b.eId)
        }
      }
    }
    private val fwdOrder = order(dirFwd = true)
    private val bwdOrder = order(dirFwd = false)

    private def add(p: Page, e: Edge, ord: Comparator[Edge]): Unit = {
      p.insert(p.size, e)
      if (p.size - p.sorted >= p.bufCap) p.flush(ord)
    }

    def insert(e: Edge): Unit = {
      if (cfg == VBt) {
        val p = vbt(e.src)
        var lo = 0; var hi = p.size
        while (lo < hi) {
          val mid = (lo + hi) >>> 1
          if (p.arr(mid).time <= e.time) lo = mid + 1 else hi = mid
        }
        p.insert(lo, e)
      }
      add(fwd(e.src), e, fwdOrder)
      add(bwd(e.dst), e, bwdOrder)

      cfg match {
        case EBt(alpha) =>
          // One pass over the source's page runs both delta queries: the new
          // edge joins the list of every bound edge sharing its source that
          // passes the predicate (1), and gets its own list (2).
          val own = ebt.open(e.eId)
          val p = fwd(e.src)
          var i = 0
          while (i < p.size) {
            val a = p.arr(i)
            if (a.eId != e.eId) {
              if (a.time < e.time + alpha) ebt.append(ebt.open(a.eId), e.eId)
              if (e.time < a.time + alpha) ebt.append(own, a.eId)
            }
            i += 1
          }
        case _ => ()
      }
    }

    def outEdges(v: Int): Seq[Edge] = fwd(v).snapshot

    def inEdges(v: Int): Seq[Edge] = bwd(v).snapshot

    /** Force-merge every page (end-of-ingest compaction). */
    def compact(): Unit = {
      var v = 0
      while (v < nV) {
        fwd(v).flush(fwdOrder)
        bwd(v).flush(bwdOrder)
        v += 1
      }
    }

    def timeSortedOut(v: Int): Seq[Edge] = vbt(v).snapshot
  }

  /** Load `initial` in bulk, then insert `stream` one edge at a time;
    * returns single-threaded sustained inserts/second over the stream. */
  def throughput(nV: Int, cfg: Config, initial: Seq[Edge], stream: Seq[Edge]): (Store, Double) = {
    val st = new Store(nV, cfg)
    initial.foreach(st.insert)
    st.compact()
    val t0 = System.nanoTime()
    stream.foreach(st.insert)
    val dt = (System.nanoTime() - t0) / 1e9
    (st, stream.size / math.max(dt, 1e-9))
  }
}
