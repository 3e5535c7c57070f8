package perfbench

/** One reported number. */
final case class Metric(name: String, value: Double, unit: String)

/** What a workload run hands back to [[Main]].
  *
  * @param endToEnd  the metrics of the untraced run (BENCHMARK.json `end_to_end`)
  * @param perLayer  the metrics of the traced run (BENCHMARK.json `per_layer`);
  *                  the same names on every workload
  * @param report    the traced run's full layer report, named per layer, per
  *                  index and per query; printed and written beside the spans
  * @param inputs    provenance of the generated inputs (sizes, scale, seed)
  */
final case class Outcome(
    attempted: Long,
    failed: Long,
    endToEnd: Seq[Metric],
    perLayer: Seq[Metric],
    report: Seq[Metric],
    inputs: Seq[(String, String)],
)

/** Command-line options of one run. */
final case class Opts(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    /** `tiny` shrinks every input for smoke tests. */
    tiny: Boolean,
    /** Adds one to the first expected count, to prove a wrong count fails the run. */
    injectWrongCount: Boolean,
) {
  /** Directory that receives spans and the layer report of a traced run. */
  def outDir: String = ".bench_build/perfbench/trace"
}

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val known = Set("workload", "seed", "seconds", "trace", "size", "inject-wrong-count")
    require(kv.keySet.subsetOf(known), s"unknown options: ${(kv.keySet -- known).mkString(", ")}")
    Opts(
      workload = get("workload"),
      seed = get("seed").toLong,
      seconds = get("seconds").toInt,
      trace = get("trace") == "1",
      tiny = kv.getOrElse("size", "full") == "tiny",
      injectWrongCount = kv.getOrElse("inject-wrong-count", "0") == "1",
    )
  }
}
