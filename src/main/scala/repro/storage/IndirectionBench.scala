package repro.storage

/** The §3 demonstrative experiment: k-hop enumeration from a set of source
  * vertices, reading adjacency lists (i) sequentially from the ID lists,
  * (ii) through list-level offset indirections, and (iii) through a
  * graph-level indirection. The traversal copies every matched (edge ID,
  * neighbour ID) into a tuple buffer, mimicking an operator pipeline's
  * tuple copies, and returns (pathCount, checksum) so the JIT cannot
  * eliminate the reads.
  */
object IndirectionBench {

  sealed trait Mode
  case object Sequential extends Mode
  final case class ListIndirection(idx: OffsetIndex) extends Mode
  final case class GraphLevel(gi: GraphIndirection) extends Mode

  def kHop(csr: CSRGraph, mode: Mode, sources: Array[Int], k: Int,
           maxPathsPerSource: Long = Long.MaxValue): (Long, Long) = {
    val tupleE = new Array[Long](k)
    val tupleN = new Array[Int](k)
    /** List mode: the decoded offset list being read at each depth. */
    val offs   = Array.fill(k)(new Array[Int](0))
    var count  = 0L
    var check  = 0L
    var budget = 0L

    def recurse(v: Int, depth: Int): Unit = {
      if (budget >= maxPathsPerSource) return
      val start = csr.listStart(v)
      val d     = csr.degree(v)
      mode match {
        case Sequential =>
          var i = start
          val end = csr.listEnd(v)
          while (i < end && budget < maxPathsPerSource) {
            val e = csr.eIds(i); val n = csr.nbrs(i)
            tupleE(depth) = e; tupleN(depth) = n
            if (depth == k - 1) { count += 1; budget += 1; check += e + n }
            else recurse(n, depth + 1)
            i += 1
          }
        case ListIndirection(idx) =>
          val lst = idx.lists(v)
          if (offs(depth).length < d) offs(depth) = new Array[Int](d)
          val off = offs(depth)
          OffsetListCodec.decodeInto(lst, off)
          var i = 0
          while (i < d && budget < maxPathsPerSource) {
            val p = start + off(i)
            val e = csr.eIds(p); val n = csr.nbrs(p)
            tupleE(depth) = e; tupleN(depth) = n
            if (depth == k - 1) { count += 1; budget += 1; check += e + n }
            else recurse(n, depth + 1)
            i += 1
          }
        case GraphLevel(gi) =>
          var i = start
          val end = csr.listEnd(v)
          while (i < end && budget < maxPathsPerSource) {
            val p = gi.perm(i)
            val e = gi.poolE(p); val n = gi.poolN(p)
            tupleE(depth) = e; tupleN(depth) = n
            if (depth == k - 1) { count += 1; budget += 1; check += e + n }
            else recurse(n, depth + 1)
            i += 1
          }
      }
    }

    sources.foreach { s => budget = 0L; recurse(s, 0) }
    (count, check)
  }
}
