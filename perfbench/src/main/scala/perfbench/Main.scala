package perfbench

import java.io.{File, PrintWriter}

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.blocking.Blocking
import repro.core.{Zeroer, ZeroerEM}
import repro.core.ZeroerModel.{Config, TransMode}
import repro.erdata.{Datasets, ErDataset}
import repro.eval.Metrics
import repro.sim.FeatureGen

/** One benchmark process: set up a local Spark session and one generated
  * workload, time `Zeroer.run` cold and then a fixed number of times warm, check
  * every run's output, and print one JSON record of the raw measurements as
  * the last line of standard output (prefixed `PERFBENCH `).
  *
  * With `--trace 1` the warm runs are traced and give the per-layer
  * numbers; the cold run stays untraced.
  */
object Main {

  final case class Args(workload: String, dataset: String, scale: Double, trans: String,
                        dataSeed: Long, seed: Long, warmRuns: Int, trace: Boolean,
                        traceOut: Option[String])

  final case class RunRecord(kind: String, runS: Double, f1: Double, cachePeakMb: Double,
                             iters: Int, predictions: Long, errors: Seq[String])

  /** Driver stack sampling interval of traced runs. A stack walk of the
    * deep Spark driver stack holds the driver thread for about 2 ms, so a
    * shorter interval costs several percent of the run.
    */
  val SampleMs = 50L

  /** Set-ups per process; `setup_s` is their median. */
  val Setups = 5

  /** Task threads at most. At these sizes a run is Spark-driver work plus
    * JIT compilation of Spark's generated code, so more task threads only
    * queue the Spark driver, JIT and GC threads behind them on a small
    * machine, and a run's time then measures the scheduler.
    */
  val MaxTaskThreads = 2

  /** Partitions of the input tables and of every shuffle. */
  val Partitions = 4

  /** Session settings the benchmark pins, so that runs compare. */
  def sessionSettings(cores: Int): Seq[(String, String)] = Seq(
    "spark.master"                         -> s"local[$cores]",
    "spark.app.name"                       -> "zeroer-perfbench",
    "spark.sql.shuffle.partitions"         -> Partitions.toString,
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.enabled"           -> "true",
    // One run generates about 250 distinct classes, more than the default
    // cache of 100 holds, so every warm run would compile them all again.
    // The cold run still pays for all of them.
    "spark.sql.codegen.cache.maxEntries"   -> "10000",
    "spark.ui.enabled"                     -> "false",
    "spark.driver.host"                    -> "127.0.0.1",
    // Shuffle and spill files stay inside the checkout.
    "spark.local.dir" -> new File("perfbench/target/spark-local").getAbsolutePath,
  )

  def main(argv: Array[String]): Unit = {
    val a     = parse(argv)
    val cores = math.min(Runtime.getRuntime.availableProcessors(), MaxTaskThreads)
    val b     = new Bench(a, cores)
    val result = b.measure()
    println("PERFBENCH " + Json.render(result))
  }

  /** The workload's tables with their rows in an order, and so a partition
    * placement, drawn from `seed`. The generated content is unchanged.
    */
  def reorder(spark: SparkSession, ds: ErDataset, seed: Long): ErDataset = {
    def shuffled(df: DataFrame, salt: Long): DataFrame = {
      val rows = new scala.util.Random(seed * 1000003L + salt).shuffle(df.collect().toSeq)
      spark.createDataFrame(spark.sparkContext.parallelize(rows, Partitions), df.schema)
    }
    ds.copy(left = shuffled(ds.left, 1), right = shuffled(ds.right, 2))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map {
      case Array(k, v) => k.stripPrefix("--") -> v
      case other       => sys.error(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    Args(
      workload = m("workload"),
      dataset  = m("dataset"),
      scale    = m("scale").toDouble,
      trans    = m("trans"),
      dataSeed = m("data-seed").toLong,
      seed     = m("seed").toLong,
      warmRuns = m("warm-runs").toInt,
      trace    = m.getOrElse("trace", "0") == "1",
      traceOut = m.get("trace-out"),
    )
  }
}

final class Bench(a: Main.Args, cores: Int) {
  import Main._

  private val settings = sessionSettings(cores)
  private val cfg = a.trans match {
    case "constraint" => Config()
    case "off"        => Config(transMode = TransMode.Off)
    case other        => sys.error(s"unknown transitivity mode $other")
  }

  /** The workload's dataset from its generator seed, rows ordered by the
    * run seed.
    */
  private def generate(spark: SparkSession): ErDataset = {
    val generated = a.dataset match {
      case "DS"  => Datasets.ds(spark, a.scale, a.dataSeed)
      case "AG"  => Datasets.ag(spark, a.scale, a.dataSeed)
      case other => sys.error(s"unknown dataset $other")
    }
    reorder(spark, generated, a.seed)
  }

  private var spark: SparkSession = _
  private var ds: ErDataset = _
  private val rec    = new Recorder
  private val runs   = mutable.ArrayBuffer.empty[RunRecord]
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var runIdx = 0
  private var cand: DataFrame = _
  /** Listener handler time of the last run, read before its checks. */
  private var runHandlerNs = 0L

  /** Run `body` as explicit span `name`; its Spark jobs carry the name. */
  private def span[T](name: String)(body: => T): T = {
    val sc   = spark.sparkContext
    val prev = sc.getLocalProperty(Recorder.SpanProperty)
    sc.setLocalProperty(Recorder.SpanProperty, name)
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(name, Option(prev), runIdx, t0, System.nanoTime())
      sc.setLocalProperty(Recorder.SpanProperty, prev)
    }
  }

  private def drain(): Unit = PerfbenchBus.drain(spark.sparkContext)

  def measure(): ListMap[String, Any] = {
    // ---- set-up: session start plus workload generation, several times ----
    val setupS    = mutable.ArrayBuffer.empty[Double]
    val generateS = mutable.ArrayBuffer.empty[Double]
    for (_ <- 0 until Setups) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      val builder = SparkSession.builder()
      settings.foreach { case (k, v) => builder.config(k, v) }
      spark = builder.getOrCreate()
      val t1 = System.nanoTime()
      ds = generate(spark)
      val t2 = System.nanoTime()
      setupS += (t2 - t0) / 1e9
      generateS += (t2 - t1) / 1e9
    }
    spark.sparkContext.addSparkListener(rec)

    // ---- cold run: the first Zeroer.run in this JVM ----
    timedRun("cold")._2.foreach(release)

    // ---- traced only: each part of prepareCross materialized once ----
    val layers  = mutable.ArrayBuffer.empty[Map[String, Double]]
    var staged  = Map.empty[String, Double]
    var sampler = Option.empty[Sampler]
    if (a.trace) {
      staged = traced(stagedPrepare()) ++ stagedWork() ++
        metrics("erdata.generate", median(generateS.toSeq), median(generateS.toSeq),
                new SparkWork)
      sampler = Some(new Sampler(Thread.currentThread(), SampleMs))
    }

    // ---- warm runs ----
    for (_ <- 0 until math.max(a.warmRuns, 1)) {
      sampler match {
        case Some(s) =>
          val (r, res) = traced(timedRun("traced", body => {
            s.start()
            try body finally s.stop()
          }))
          res.foreach { fit =>
            layers += runLayers(s.seconds, fit, r, staged) +
              ("trace.overhead_s" -> (s.stallSeconds + runHandlerNs / 1e9))
            release(fit)
          }
        case None =>
          timedRun("warm")._2.foreach(release)
      }
    }
    sampler.foreach(_.close())

    val env = environment()
    val layerMedians: Map[String, Double] =
      if (layers.isEmpty) Map.empty
      else layers.head.keys.map(k => k -> median(layers.map(_(k)).toSeq)).toMap
    a.traceOut.foreach(writeTrace(_, env, layers.toSeq))
    spark.stop()
    ListMap(
      "workload"   -> a.workload,
      "seed"       -> a.seed,
      "data_seed"  -> a.dataSeed,
      "env"        -> env,
      "setup_s"    -> setupS.toSeq,
      "generate_s" -> generateS.toSeq,
      "runs"       -> runs.toSeq.map(r => ListMap(
        "kind" -> r.kind, "run_s" -> r.runS, "f1" -> r.f1,
        "cache_peak_mb" -> r.cachePeakMb, "iters" -> r.iters, "predictions" -> r.predictions, "errors" -> r.errors)),
      "layers"     -> ListMap(layerMedians.toSeq.sortBy(_._1): _*),
    )
  }

  /** Run `body` with job accounting on, between drained listener states. */
  private def traced[T](body: => T): T = {
    drain(); rec.tracing = true
    try body
    finally { drain(); rec.tracing = false }
  }

  private def release(fit: Zeroer.FitResult): Unit = fit.gammaDf.unpersist(blocking = true)

  /** Cross candidate set for the subset check, built once outside timed runs. */
  private def candidates(): DataFrame = {
    if (cand == null) {
      cand = Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr,
                                     ds.blockOverlap, ds.blockMaxDf)
        .persist(StorageLevel.MEMORY_AND_DISK)
      cand.count()
    }
    cand
  }

  /** One timed `Zeroer.run` through a materialized prediction set, then its
    * checks outside the timed region. A run that throws counts as failed.
    */
  private def timedRun(kind: String,
                       wrap: (=> Zeroer.FitResult) => Zeroer.FitResult = body => body)
      : (RunRecord, Option[Zeroer.FitResult]) = {
    runIdx += 1
    drain()
    rec.reset()
    rec.handlerNs = 0L
    val (r, res) =
      try {
        val t0  = System.nanoTime()
        val fit = wrap(span("run") {
          val f = Zeroer.run(spark, ds, cfg)
          f.predictions.count()
          f
        })
        val runS = (System.nanoTime() - t0) / 1e9
        drain()
        runHandlerNs = rec.handlerNs
        val peakMb = rec.cachePeakBytes / 1048576.0
        val (f1, nPred, errors) = check(fit)
        (RunRecord(kind, runS, f1, peakMb, fit.iters, nPred, errors), Some(fit))
      } catch {
        case NonFatal(e) =>
          (RunRecord(kind, Double.NaN, Double.NaN, Double.NaN, -1, -1,
                     Seq(s"run threw ${e.getClass.getName}: ${e.getMessage}")), None)
      }
    runs += r
    (r, res)
  }

  /** The checks every run must pass; returns (f1, #predictions, failures).
    * The f1 floor is applied by the caller, which knows the workload's floors.
    */
  private def check(res: Zeroer.FitResult): (Double, Long, Seq[String]) = {
    val errs  = mutable.ArrayBuffer.empty[String]
    val preds = res.predictions.select("left_id", "right_id")
    val n     = preds.count()
    if (preds.distinct().count() != n) errs += "predictions are not distinct pairs"
    if (preds.join(candidates(), Seq("left_id", "right_id"), "left_anti").count() != 0)
      errs += "predictions outside the cross candidate set"
    val g   = col("gamma")
    val bad = res.gammaDf.where(g.isNull || g.isNaN || g < 0.0 || g > 1.0).count()
    if (bad != 0) errs += s"$bad posteriors outside [0,1]"
    if (res.iters > cfg.maxIter) errs += s"iters ${res.iters} > maxIter ${cfg.maxIter}"
    val f1 = Metrics.prf(res.predictions, ds.truth).f1
    if (f1.isNaN) errs += "f1 is NaN"
    (f1, n, errs.toSeq)
  }

  private val stagedParts = Seq("blocking.candidates", "blocking.attrs", "sim.features",
                                "sim.scale", "prepare.pairs", "prepare.correlation")

  /** Each part of `prepareCross` as a public call, materialized once. Their
    * summed executor CPU is the base of `core.prepare.recompute_ratio`.
    */
  private def stagedPrepare(): Map[String, Double] = {
    def persisted(df: DataFrame): DataFrame = {
      val p = df.persist(StorageLevel.MEMORY_AND_DISK); p.count(); p
    }
    val c = span("blocking.candidates")(persisted(
      Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr,
                              ds.blockOverlap, ds.blockMaxDf)))
    val attrs  = span("blocking.attrs")(persisted(
      Blocking.withPairAttrs(c, ds.left, ds.right, "id", ds.attrs)))
    val feats  = span("sim.features")(persisted(FeatureGen.addFeatures(attrs, ds.specs)))
    val scaled = span("sim.scale")(persisted(FeatureGen.imputeAndScale(feats)))
    val pairs  = span("prepare.pairs")(persisted(
      Blocking.withPairId(scaled).select("pair_id", "left_id", "right_id", "features")))
    span("prepare.correlation")(
      ZeroerEM.sharedCorrelation(pairs, "features", FeatureGen.groupIndex(ds.specs)))

    val nPairs = pairs.count()
    val d      = FeatureGen.numFeatures(ds.specs)
    val recall = Blocking.recall(spark, c, ds.truth)
    val selfPairs =
      if (cfg.transMode != TransMode.Constraint) 0L
      else Seq(ds.left, ds.right).map { t =>
        Blocking.selfCandidatePairs(t, "id", ds.blockAttr, ds.blockOverlap, ds.blockMaxDf)
          .count()
      }.sum
    Seq(pairs, scaled, feats, attrs, c).foreach(_.unpersist(blocking = true))
    Map(
      "blocking.pairs"      -> nPairs.toDouble,
      "blocking.recall"     -> recall,
      "blocking.self_pairs" -> selfPairs.toDouble,
      "sim.evals"           -> (nPairs * d).toDouble,
    )
  }

  /** Spark work and wall time of the staged parts, by span name. */
  private def stagedWork(): Map[String, Double] = {
    val work = rec.snapshot
    val out = stagedParts.flatMap { name =>
      val w = new SparkWork
      work.foreach { case ((s, _), v) => if (s == name) w += v }
      val wall = spans.filter(_.name == name).map(_.seconds).sum
      metrics(name, wall, wall, w)
    }.toMap
    out + ("prepare.parts_cpu_s" -> stagedParts.map(p => out(s"$p.executor_cpu_s")).sum)
  }

  private def metrics(layer: String, wall: Double, self: Double,
                      w: SparkWork): Map[String, Double] = Map(
    s"$layer.wall_s"              -> wall,
    s"$layer.self_s"              -> self,
    s"$layer.spark_jobs"          -> w.jobs.toDouble,
    s"$layer.spark_tasks"         -> w.tasks.toDouble,
    s"$layer.shuffle_write_bytes" -> w.shuffleWriteBytes.toDouble,
    s"$layer.executor_cpu_s"      -> w.cpuNs / 1e9,
    s"$layer.core_busy_share"     -> (if (wall > 0) w.runMs / 1e3 / (wall * cores) else 0.0),
  )

  /** Per-layer numbers of one traced run of `Zeroer.run`. */
  private def runLayers(sampled: Map[String, (Double, Double)], fit: Zeroer.FitResult,
                        run: RunRecord, staged: Map[String, Double]): Map[String, Double] = {
    val work = rec.snapshot.filter(_._1._1 == "run")
    val out  = mutable.Map.empty[String, Double]
    staged.foreach { case (k, v) =>
      if (!k.startsWith("prepare.")) out(k) = v
    }
    Layers.frames.map(_._2).foreach { layer =>
      val incl = new SparkWork
      work.foreach { case ((_, path), w) => if (path.contains(layer)) incl += w }
      val (wall, self) = sampled.getOrElse(layer, (0.0, 0.0))
      out ++= metrics(layer, wall, self, incl)
    }
    val total = new SparkWork
    work.values.foreach(total += _)
    val iters = math.max(fit.iters, 1)
    out("run.spark_jobs")         = total.jobs.toDouble
    out("core.fit.iters")         = fit.iters.toDouble
    out("core.fit.s_per_iter")    = out("core.fit.wall_s") / iters
    out("core.fit.jobs_per_iter") = out("core.fit.spark_jobs") / iters
    out("core.prepare.recompute_ratio") =
      out("core.prepare_cross.executor_cpu_s") / staged("prepare.parts_cpu_s")
    out("sim.evals_per_s") = staged("sim.evals") / staged("sim.features.wall_s")

    // Rows out of the E-step collects' filters: Q' on the cross side, the
    // within-table premise rows on the left and right sides.
    val store = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
      .sharedState.statusStore
    // The first Filter of the plan graph is the collect's own; later ones
    // belong to the plan of the cached pairs it scans.
    def filteredRows(execId: Long): Long = {
      val values = store.executionMetrics(execId)
      store.planGraph(execId).allNodes.find(_.name == "Filter").toSeq
        .flatMap(_.metrics.filter(_.name == "number of output rows"))
        .flatMap(m => values.get(m.accumulatorId))
        .map(_.replaceAll("[^0-9]", "").toLong).sum
    }
    val (within, cross) = rec.executionsThrough("repro.core.ZeroerEM$.collectRows(")
      .partition(_._2.contains(Layers.withinFrame))
    out("core.em.qprime_rows")    = cross.map(c => filteredRows(c._1)).sum.toDouble
    out("core.trans.within_rows") = within.map(c => filteredRows(c._1)).sum.toDouble
    // Cross-side overrides in force at convergence: posteriors that differ
    // from the model's own posterior 1 / (1 + exp(lb - la)).
    out("core.trans.overrides") = fit.gammaDf
      .where(abs(col("gamma") - lit(1.0) / (lit(1.0) + exp(col("lb") - col("la")))) > 1e-9)
      .count().toDouble
    out("trace.run_s") = run.runS
    out.toMap
  }

  private def environment(): ListMap[String, Any] = ListMap(
    "nproc"           -> Runtime.getRuntime.availableProcessors(),
    "task_threads"    -> cores,
    "master"          -> spark.sparkContext.master,
    "driver_heap_mb"  -> Runtime.getRuntime.maxMemory() / 1048576,
    "jdk"             -> System.getProperty("java.version"),
    "spark"           -> spark.version,
    "scala"           -> scala.util.Properties.versionNumberString,
    "workload_scale"  -> a.scale,
    "pinned_settings" -> ListMap(settings: _*),
  )

  /** Spans are kept in memory during the run and written once here. */
  private def writeTrace(path: String, env: Any, layers: Seq[Map[String, Double]]): Unit = {
    val f = new File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val w = new PrintWriter(f)
    try w.println(Json.render(ListMap(
      "workload" -> a.workload, "seed" -> a.seed, "data_seed" -> a.dataSeed, "env" -> env,
      "spans" -> spans.toSeq.map(s => ListMap(
        "name" -> s.name, "parent" -> s.parent.getOrElse(""), "run" -> s.run,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs)),
      "layers_per_traced_run" -> layers.map(l => ListMap(l.toSeq.sortBy(_._1): _*)),
    )))
    finally w.close()
  }
}

/** Minimal JSON rendering for the result record. */
object Json {
  def render(v: Any): String = v match {
    case null                    => "null"
    case s: String               => quote(s)
    case d: Double               => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n @ (_: Int | _: Long)  => n.toString
    case b: Boolean              => b.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}:${render(x)}" }.mkString("{", ",", "}")
    case s: Iterable[_]          => s.map(render).mkString("[", ",", "]")
    case other                   => quote(other.toString)
  }

  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case '\n'         => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    } + "\""
}
