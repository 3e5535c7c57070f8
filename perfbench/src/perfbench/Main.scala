package perfbench

import java.io.{File, PrintWriter}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * (plus `--size tiny` and `--inject-wrong-count 1` for the benchmark's own
  * tests).
  *
  * Prints the inputs' provenance, then, as the last line of standard output,
  * one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
  * the end-to-end metrics (untraced run) or the per-layer metrics (traced
  * run). Exits 1 when any result was wrong.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    Progress(s"start ${args.mkString(" ")}")
    val out =
      if (o.workload == SparkWorkload.Name) SparkWorkload.run(o)
      else if (o.workload == StorageWorkload.Name) StorageWorkload.run(o)
      else throw new IllegalArgumentException(s"unknown workload ${o.workload}")

    Progress("done")
    val provenance = Seq(
      "workload" -> o.workload,
      "trace" -> (if (o.trace) "1" else "0"),
      "host_cores" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "revision" -> sys.props.getOrElse("perfbench.revision", "unknown"),
    ) ++ out.inputs
    println("provenance " + obj(provenance.map { case (k, v) => k -> str(v) }))

    if (o.trace) {
      val f = new File(o.outDir, s"${o.workload}-seed${o.seed}-layers.json")
      f.getParentFile.mkdirs()
      val w = new PrintWriter(f)
      try w.println(metrics(out.report)) finally w.close()
      out.report.foreach(m => Console.err.println(f"[perfbench] layer ${m.name}%-40s ${m.value}%14.6f ${m.unit}"))
      Console.err.println(s"[perfbench] layer report: $f")
    }

    val correct = out.failed == 0 && out.attempted > 0
    println(obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> metrics(if (o.trace) out.perLayer else out.endToEnd))))
    System.out.flush()
    // exit at once: lingering Spark pool threads would otherwise hold the JVM
    sys.exit(if (correct) 0 else 1)
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric is not a number: $x")
    x.toString
  }

  private def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  private def metrics(ms: Seq[Metric]): String =
    obj(ms.map(m => m.name -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit)))))
}
