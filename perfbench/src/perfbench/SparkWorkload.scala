package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{SparkSession, classic}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.joins.BaseJoinExec
import repro.core.{GraphGen, PropertyGraph, SystemConfig}
import repro.core.index.{APlusIndex, Catalogue, IndexStore, MemoryModel}
import repro.core.plan.Executor
import repro.core.query.QueryGraph
import repro.workloads.{Datasets, IndexConfigs, MoneyFlow}

/** The Spark workload: one client runs a fixed query cycle in a closed loop
  * against one index configuration, and every count is checked against
  * [[Reference]].
  *
  * `mf-vbeb`: MF1–MF5 on LJ under D+VB_c+EB_c (α at 5 %). It reads vertex-
  * and edge-bound views (MULTI-EXTEND on city, EB-EXTEND), still joins the
  * property store for the predicates no index covers, and has the heaviest
  * set-up (the EB view is a 2-path self-join).
  */
object SparkWorkload {

  val Name = "mf-vbeb"

  /** MoneyFlow's α band at 5 % selectivity of amt ∈ [1, 1000]. */
  private val Alpha = 50.0
  /** Fixed Spark parallelism: `spark.range` (and so `GraphGen`'s per-partition
    * `rand`) splits by `spark.default.parallelism`, so the generated graph is
    * the same on every host whatever the number of local cores. */
  private val DefaultParallelism = 4
  /** One partition per core for every built index and shuffle, and no
    * adaptive re-planning: on a graph this small Spark's cost is per stage
    * and per task, not per row. Whole-stage code generation is off for the
    * same reason: compiling generated code costs more than it saves, most of
    * all on the first (warm-up) pass over each plan. */
  private val IndexPartitions = DefaultParallelism
  private val ShufflePartitions = DefaultParallelism

  private val Config = "D+VB_c+EB_c"
  private val Defns = IndexConfigs.D ++ IndexConfigs.VBc :+ IndexConfigs.EBc(Alpha)
  private val Scale = 0.25
  private val TinyScale = 0.01
  /** Set-ups per run, each on another graph of the same size; `setup_s` is
    * their median, and the queries cycle over all the graphs. */
  private val Setups = 2

  def run(o: Opts): Outcome = {
    val cores = math.min(DefaultParallelism, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.default.parallelism", DefaultParallelism.toLong)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", ".bench_build/perfbench/spark-local")
      .config("spark.sql.warehouse.dir", ".bench_build/perfbench/spark-warehouse")
      .getOrCreate()
    try new Run(spark, o, cores).apply()
    finally spark.stop()
  }

  private final case class Built(g: PropertyGraph, cfg: SystemConfig, bytes: Long)

  private final class Run(spark: SparkSession, o: Opts, cores: Int) {
    private val tr = new Tracer(o.trace)
    private val sc = spark.sparkContext
    private val scale = if (o.tiny) TinyScale else Scale
    private val spec = Datasets.LJ.spec(scale = scale)
    /** Seed of the `k`-th graph of the run. `GraphGen` draws with
      * `rand(seed + j)` for j < 100, so graphs 100 apart share no stream. */
    private def graphSeed(k: Int): Long = o.seed * 1000 + 100 * k
    private var opId = 0L

    private def setup(k: Int): Built = tr.span("setup") {
      val g   = tr.span("gen")(GraphGen.generate(spark, spec.copy(seed = graphSeed(k))).cache())
      val cat = tr.span("catalogue")(Catalogue.build(g))
      val idx = tr.span("index")(Defns.map(x =>
        tr.span(s"index.build.${x.name}")(APlusIndex.build(g, x, IndexPartitions))))
      val bytes = tr.span("memmodel")(MemoryModel.configBytes(g, idx))
      Built(g, SystemConfig(Config, g, cat, new IndexStore(idx)), bytes)
    }

    /** The traced split of `SystemConfig.count`: the same work, one span per
      * layer. Returns the count, the plan's estimated i-cost and the
      * executed physical plan. */
    private def tracedCount(b: Built, q: QueryGraph): (Long, Double, SparkPlan) = {
      sc.setJobGroup(s"op$opId", q.name, interruptOnCancel = false)
      try tr.span("query") {
        val plan = tr.span("optimizer.plan")(b.cfg.plan(q))
        val agg  = tr.span("executor.compile")(new Executor(b.g, q).execute(plan).groupBy().count())
        tr.span("catalyst.plan")(agg.queryExecution.executedPlan)
        val rows = tr.span("spark.exec")(agg.collect())
        (rows.head.getLong(0), plan.estCost, agg.queryExecution.executedPlan)
      } finally sc.clearJobGroup()
    }

    def apply(): Outcome = {
      // ---- set-up, repeated, each time on another graph of the same size;
      // the queries then cycle over all of them, so one run averages over
      // several graphs and a seed's luck in heavy hubs weighs less
      val setupTimes = mutable.ArrayBuffer[Double]()
      val built = (0 until Setups).map { k =>
        opId += 1; tr.op = opId
        val t0 = System.nanoTime()
        val b = setup(k)
        setupTimes += (System.nanoTime() - t0) / 1e9
        Progress(f"set-up ${k + 1}: ${setupTimes.last}%.2f s")
        b
      }
      val queries = MoneyFlow.queries(Alpha, built.head.g.numVertices)

      // ---- expected counts, from an evaluation that shares no code with the
      // system under test; one thread per graph
      val expected = Await.result(Future.traverse(built) { b =>
        Future {
          val ref = new Reference(b.g)
          mutable.LinkedHashMap(queries.map(q => q.name -> ref.count(q)): _*)
        }
      }, Duration.Inf)
      expected.foreach(e => Progress("expected counts: " + e.map { case (k, v) => s"$k=$v" }.mkString(" ")))
      if (o.injectWrongCount) expected.head(queries.head.name) += 1

      var attempted = 0L
      var failed = 0L
      def check(k: Int, q: QueryGraph, c: Long): Unit = {
        attempted += 1
        if (c != expected(k)(q.name)) {
          failed += 1
          Console.err.println(s"[perfbench] WRONG ${q.name} on graph $k: got $c, expected ${expected(k)(q.name)}")
        }
      }

      // ---- warm-up: every query on every graph once, checked, not timed
      for ((b, k) <- built.zipWithIndex; q <- queries) check(k, q, b.cfg.count(q))
      Progress("warm-up done")

      // ---- timed closed loop over whole query cycles, so every run weighs
      // the queries alike; in a traced run every other query is traced, and
      // the parity flips each cycle, so the overhead is measured in the same
      // run on the same queries
      val counters = new Counters
      if (o.trace) sc.addSparkListener(counters)
      val gcBefore = Jvm.gcMillis()
      Jvm.resetHeapPeaks()
      val plain  = mutable.ArrayBuffer[Double]()
      val traced = mutable.ArrayBuffer[Double]()
      val perQuery = mutable.LinkedHashMap(queries.map(_.name -> mutable.ArrayBuffer[Double]()): _*)
      val countPlan = built.map(b => new PlanCounts(spark, b.g))
      val planCounts = mutable.ArrayBuffer[(Int, Int)]()
      val estCost = mutable.LinkedHashMap[String, Double]()
      var resultRows = 0L
      val t0 = System.nanoTime()
      val deadline = t0 + o.seconds * 1000000000L
      var i = 0L
      val cycle = queries.size * built.size
      val minOps = if (o.trace) 2 * cycle else 0
      while (System.nanoTime() < deadline || i % cycle != 0 || i < minOps) {
        val q = queries((i % queries.size).toInt)
        val k = ((i / queries.size) % built.size).toInt
        val traceThis = o.trace && (i + i / cycle) % 2 == 1
        opId += 1; tr.op = opId
        val s = System.nanoTime()
        val (c, est, phys) =
          if (traceThis) tracedCount(built(k), q) else (built(k).cfg.count(q), 0.0, null)
        val dt = (System.nanoTime() - s) / 1e6
        if (traceThis) {
          planCounts += countPlan(k)(phys)
          estCost(s"${q.name}.g$k") = est
          resultRows += c
        }
        (if (traceThis) traced else plain) += dt
        perQuery(q.name) += dt
        check(k, q, c)
        i += 1
      }
      val wallS = (System.nanoTime() - t0) / 1e9
      Progress(s"timed loop done: $i queries")
      val gcS = (Jvm.gcMillis() - gcBefore) / 1e3

      val nE = built.head.g.numEdges
      val endToEnd = Seq(
        Metric("setup_s", Stats.median(setupTimes.toSeq), "s"),
        Metric("op_p50_ms", Stats.median(plain.toSeq), "ms"),
        Metric("op_p90_ms", Stats.quantile(plain.toSeq, 0.9), "ms"),
        Metric("ops_per_s", i / wallS, "1/s"),
        Metric("model_bytes_per_edge", built.map(_.bytes).sum.toDouble / (nE * built.size), "B/edge"),
      )
      val inputs = Seq(
        "dataset" -> spec.name, "V" -> built.head.g.numVertices.toString, "E" -> nE.toString,
        "scale" -> scale.toString, "seed" -> o.seed.toString,
        "graph_seeds" -> built.indices.map(graphSeed).mkString(","), "config" -> Config,
        "master" -> sc.master,
        "default_parallelism" -> DefaultParallelism.toString,
        "shuffle_partitions" -> ShufflePartitions.toString, "spark" -> spark.version,
        "ops" -> i.toString, "setups" -> Setups.toString,
        "expected_counts" -> expected.map(_.map { case (k, v) => s"$k=$v" }.mkString(",")).mkString(";"))

      val (perLayer, report) =
        if (!o.trace) (Nil, Nil)
        else {
          counters.drain()
          val c = counters.total
          val nOps = math.max(1, traced.size).toDouble
          val setupSelf = tr.selfByName("setup")
          val opSelf    = tr.selfByName("query")
          val opTotalNs = opSelf.values.sum.toDouble
          def setupS(p: String) = setupSelf.collect { case (n, v) if n.startsWith(p) => v }.sum / Setups / 1e9
          def opPct(n: String)  = 100.0 * opSelf.getOrElse(n, 0L) / opTotalNs
          def opMs(n: String)   = opSelf.getOrElse(n, 0L) / nOps / 1e6
          val setupTotal = setupSelf.values.sum / Setups / 1e9
          val tracedP50 = Stats.median(traced.toSeq)
          val plainP50  = Stats.median(plain.toSeq)
          val idx = built.flatMap(_.cfg.store.indexes)
          def perGraph(f: APlusIndex => Long) = idx.map(f).sum.toDouble / built.size
          val common = Seq(
            Metric("setup.gen_s", setupS("gen"), "s"),
            Metric("setup.index_s", setupS("index"), "s"),
            Metric("setup.memmodel_s", setupS("memmodel"), "s"),
            Metric("setup.catalogue_pct", 100.0 * setupS("catalogue") / setupTotal, "%"),
            Metric("op.traced_p50_ms", tracedP50, "ms"),
            Metric("trace.overhead_pct", 100.0 * (tracedP50 - plainP50) / plainP50, "%"),
            Metric("trace.unattributed_pct",
              100.0 * opSelf.getOrElse("query", 0L) / opTotalNs, "%"),
            Metric("op.optimizer_pct", opPct("optimizer.plan"), "%"),
            Metric("op.executor_pct", opPct("executor.compile"), "%"),
            Metric("op.catalyst_pct", opPct("catalyst.plan"), "%"),
            Metric("op.spark_exec_pct", opPct("spark.exec"), "%"),
            Metric("op.maint_pct", 0.0, "%"),
            Metric("op.read_pct", 0.0, "%"),
            Metric("op.khop_pct", 0.0, "%"),
            Metric("spark.jobs_per_op", c.jobs / nOps, "count"),
            Metric("spark.tasks_per_op", c.tasks / nOps, "count"),
            Metric("spark.shuffle_write_mb_per_op", c.shuffleWriteBytes / 1e6 / nOps, "MB"),
            Metric("spark.shuffle_records_per_row",
              c.shuffleReadRecords.toDouble / math.max(1L, resultRows), "count"),
            Metric("spark.busy_pct", 100.0 * c.runMs / (traced.sum * cores), "%"),
            Metric("spark.task_gc_pct", 100.0 * c.gcMs / math.max(1L, c.runMs), "%"),
            Metric("executor.joins_per_op", planCounts.map(_._1).sum / nOps, "count"),
            Metric("executor.prop_store_scans_per_op", planCounts.map(_._2).sum / nOps, "count"),
            Metric("optimizer.est_icost_sum", estCost.values.sum, "count"),
            Metric("index.entries", perGraph(_.stats.entries), "count"),
            Metric("index.lists", perGraph(_.stats.nLists), "count"),
            Metric("jvm.gc_pct", 100.0 * gcS / wallS, "%"),
            Metric("jvm.heap_peak_mb", Jvm.heapPeakMb(), "MB"),
            Metric("maint.vbt.inserts_per_s", 0.0, "1/s"),
            Metric("maint.ebt.inserts_per_s", 0.0, "1/s"),
            Metric("maint.ebt.entries_per_insert", 0.0, "count"),
            Metric("khop.list_vs_seq", 0.0, "x"),
            Metric("khop.graph_vs_seq", 0.0, "x"),
            Metric("offset.bytes_per_entry", 0.0, "B"),
          )
          val report = Seq(
            Metric("catalogue.s", setupS("catalogue"), "s"),
          ) ++ Defns.flatMap { d =>
            val of = idx.filter(_.name == d.name)
            Seq(
              Metric(s"index.build_s.${d.name}", setupS(s"index.build.${d.name}"), "s"),
              Metric(s"index.entries.${d.name}", of.map(_.stats.entries).sum.toDouble / of.size, "count"),
              Metric(s"index.lists.${d.name}", of.map(_.stats.nLists).sum.toDouble / of.size, "count"))
          } ++ Seq(
            Metric("optimizer.plan_ms", opMs("optimizer.plan"), "ms"),
            Metric("executor.compile_ms", opMs("executor.compile"), "ms"),
            Metric("catalyst.plan_ms", opMs("catalyst.plan"), "ms"),
            Metric("spark.exec_s", opMs("spark.exec") / 1e3, "s"),
          ) ++ estCost.map { case (q, v) => Metric(s"optimizer.est_icost.$q", v, "count") } ++
            perQuery.collect { case (q, xs) if xs.nonEmpty =>
              Metric(s"query.$q.p50_s", Stats.median(xs.toSeq) / 1e3, "s") } ++ Seq(
            Metric("spark.shuffle_read_records", c.shuffleReadRecords / nOps, "count"),
            Metric("spark.task_run_s", c.runMs / 1e3 / nOps, "s"),
            Metric("spark.task_gc_s", c.gcMs / 1e3 / nOps, "s"),
            Metric("jvm.gc_s", gcS, "s"),
            Metric("query_p50_s", plainP50 / 1e3, "s"),
            Metric("query_p90_s", Stats.quantile(plain.toSeq, 0.9) / 1e3, "s"),
            Metric("trace.overhead_ms", tracedP50 - plainP50, "ms"),
            Metric("trace.op_total_s", traced.sum / 1e3, "s"),
            Metric("trace.self_total_s", opTotalNs / 1e9, "s"),
          )
          (common, report)
        }
      if (o.trace) tr.write(new java.io.File(o.outDir, s"${o.workload}-seed${o.seed}-spans.jsonl"))
      built.foreach { b => b.cfg.unpersist(); b.g.uncache() }
      Outcome(attempted, failed, endToEnd, perLayer, report, inputs)
    }
  }

  /** Joins and property-store scans in an executed physical plan (AQE
    * stages included). A property-store scan reads the cached vertex or edge
    * table of `g` instead of an index. */
  private final class PlanCounts(spark: SparkSession, g: PropertyGraph) extends AdaptiveSparkPlanHelper {
    private val propStores: Seq[AnyRef] = {
      val cm = spark.asInstanceOf[classic.SparkSession].sharedState.cacheManager
      Seq(g.vertices, g.edges).flatMap(df => cm.lookupCachedData(df.asInstanceOf[classic.Dataset[_]]))
        .map(_.cachedRepresentation.cacheBuilder)
    }

    def apply(p: SparkPlan): (Int, Int) = {
      val joins = collect(p) { case j: BaseJoinExec => j }.size
      val props = collect(p) {
        case s: InMemoryTableScanExec if propStores.exists(_ eq s.relation.cacheBuilder) => s
      }.size
      (joins, props)
    }
  }

  private final case class Total(jobs: Long, tasks: Long, runMs: Long, gcMs: Long,
                                 shuffleWriteBytes: Long, shuffleReadRecords: Long)

  /** Spark task counters of the traced queries, attributed by job group. */
  private final class Counters extends SparkListener {
    private val stageTraced = new ConcurrentHashMap[Int, java.lang.Boolean]()
    private val jobs, tasks, runMs, gcMs, shW, shR, events = new AtomicLong()

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      events.incrementAndGet()
      val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      if (g.exists(_.startsWith("op"))) {
        jobs.incrementAndGet()
        e.stageIds.foreach(stageTraced.put(_, true))
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      events.incrementAndGet()
      val m = e.taskMetrics
      if (stageTraced.containsKey(e.stageId) && m != null) {
        tasks.incrementAndGet()
        runMs.addAndGet(m.executorRunTime)
        gcMs.addAndGet(m.jvmGCTime)
        shW.addAndGet(m.shuffleWriteMetrics.bytesWritten)
        shR.addAndGet(m.shuffleReadMetrics.recordsRead)
      }
    }

    /** Wait until the listener bus has delivered every event. */
    def drain(): Unit = {
      var last = -1L
      var stable = 0
      while (stable < 3) {
        Thread.sleep(100)
        val now = events.get()
        if (now == last) stable += 1 else { stable = 0; last = now }
      }
    }

    def total: Total = Total(jobs.get, tasks.get, runMs.get, gcMs.get, shW.get, shR.get)
  }
}
