package repro.storage

/** Variable-width offset-list encoding (§4.3): every offset in a list is
  * encoded with the maximum byte-width any offset in that list needs, and
  * that width is stored as a single-byte header at the start of the list.
  */
object OffsetListCodec {

  def widthFor(maxOffset: Int): Int = {
    require(maxOffset >= 0)
    if (maxOffset < (1 << 8)) 1
    else if (maxOffset < (1 << 16)) 2
    else if (maxOffset < (1 << 24)) 3
    else 4
  }

  /** Encode `offsets` as [width: 1 byte][offset: width bytes]... (little endian). */
  def encode(offsets: Array[Int]): Array[Byte] = {
    val w = if (offsets.isEmpty) 1 else widthFor(offsets.max)
    val out = new Array[Byte](1 + w * offsets.length)
    out(0) = w.toByte
    var i = 0
    while (i < offsets.length) {
      var v = offsets(i)
      var b = 0
      while (b < w) {
        out(1 + i * w + b) = (v & 0xff).toByte
        v >>>= 8
        b += 1
      }
      i += 1
    }
    out
  }

  def width(encoded: Array[Byte]): Int = encoded(0).toInt

  def length(encoded: Array[Byte]): Int = (encoded.length - 1) / width(encoded)

  /** Read the i-th offset without materializing the whole list. */
  def get(encoded: Array[Byte], i: Int): Int = {
    val w = encoded(0).toInt
    var v = 0
    var b = 0
    while (b < w) {
      v |= (encoded(1 + i * w + b) & 0xff) << (8 * b)
      b += 1
    }
    v
  }

  /** Decode the whole list into `out`, which must hold at least
    * `length(encoded)` entries, and return its length. The width is read
    * once per list, and widths 1 and 2 take their own loops. */
  def decodeInto(encoded: Array[Byte], out: Array[Int]): Int = {
    val w = encoded(0).toInt
    val n = (encoded.length - 1) / w
    var i = 0
    w match {
      case 1 =>
        while (i < n) { out(i) = encoded(1 + i) & 0xff; i += 1 }
      case 2 =>
        while (i < n) {
          out(i) = (encoded(1 + 2 * i) & 0xff) | (encoded(2 + 2 * i) & 0xff) << 8
          i += 1
        }
      case _ =>
        while (i < n) {
          var v = 0
          var b = 0
          while (b < w) { v |= (encoded(1 + i * w + b) & 0xff) << (8 * b); b += 1 }
          out(i) = v
          i += 1
        }
    }
    n
  }

  def decode(encoded: Array[Byte]): Array[Int] = {
    val out = new Array[Int](length(encoded))
    decodeInto(encoded, out)
    out
  }
}
