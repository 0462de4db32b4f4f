package perfbench

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** The program's layers, named after its modules, and the public call whose
  * frame marks each one on a call stack. Spark jobs and driver stack samples
  * are attributed to the innermost layer on their stack, so the traced run
  * calls the unchanged `Zeroer.run` and still splits it by layer.
  */
object Layers {
  val frames: Seq[(String, String)] = Seq(
    "repro.core.Zeroer$.prepareCross"        -> "core.prepare_cross",
    "repro.core.Zeroer$.prepareSelf"         -> "core.prepare_self",
    "repro.core.ZeroerEM$.sharedCorrelation" -> "core.em.correlation",
    "repro.core.Zeroer$.fit"                 -> "core.fit",
    "repro.core.ZeroerEM$.moments"           -> "core.em.moments",
    "repro.core.ZeroerEM$.collectRows"       -> "core.em.estep_collect",
    "repro.core.ZeroerModel$.build"          -> "core.model.build",
    "repro.core.Transitivity$.resolve"       -> "core.trans.resolve",
  )

  /** Frame of the within-table E-step collect inside `fit`. */
  val withinFrame = "repro.core.Zeroer$.within$"

  private def layerOf(frame: String): Option[String] =
    frames.collectFirst { case (f, l) if frame.contains(f + "(") => l }

  /** Layers on a stack given innermost frame first, outermost layer first. */
  def path(stack: Seq[String]): List[String] =
    stack.reverseIterator.flatMap(layerOf).toList.distinct

  def pathOf(stack: Array[StackTraceElement]): List[String] =
    path(stack.toSeq.map(e => s"${e.getClassName}.${e.getMethodName}("))
}

/** Spark work of one span key: the explicit span the job ran under plus
  * the layer path its call stack names.
  */
final class SparkWork {
  var jobs = 0L; var tasks = 0L; var shuffleWriteBytes = 0L
  var cpuNs = 0L; var runMs = 0L
  def +=(o: SparkWork): Unit = {
    jobs += o.jobs; tasks += o.tasks; shuffleWriteBytes += o.shuffleWriteBytes
    cpuNs += o.cpuNs; runMs += o.runMs
  }
}

/** Listener that attributes jobs, tasks, shuffle bytes and executor time to
  * spans, and tracks the size of persisted RDD blocks. Jobs carry the
  * explicit span in a local property set before each call; within the span
  * the layer comes from the SQL execution's or the job's call stack.
  */
final class Recorder extends SparkListener {
  import Recorder._

  @volatile var tracing = false
  /** Time spent in this listener's job and task handlers while tracing. */
  @volatile var handlerNs = 0L

  private val work      = mutable.LinkedHashMap.empty[(String, List[String]), SparkWork]
  private val stageKey  = mutable.Map.empty[Int, (String, List[String])]
  private val execStack = mutable.Map.empty[Long, String]
  private val blocks    = mutable.Map.empty[(Int, Int), Long]
  private var cached    = 0L
  private var peak      = 0L

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart if tracing =>
      synchronized { execStack(s.executionId) = s.details }
    case _ =>
  }

  private def timed(body: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    body
    handlerNs += System.nanoTime() - t0
  }

  override def onJobStart(j: SparkListenerJobStart): Unit = if (tracing) timed {
    val props = Option(j.properties)
    val span  = props.flatMap(p => Option(p.getProperty(SpanProperty))).getOrElse("untagged")
    val stack = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => execStack.get(id.toLong))
      .getOrElse(j.stageInfos.maxBy(_.stageId).details)
    val key = (span, Layers.path(stack.split("\n").toSeq))
    work.getOrElseUpdate(key, new SparkWork).jobs += 1
    j.stageIds.foreach(id => if (!stageKey.contains(id)) stageKey(id) = key)
  }

  override def onTaskEnd(t: SparkListenerTaskEnd): Unit = if (tracing) timed {
    stageKey.get(t.stageId).foreach { key =>
      val w = work.getOrElseUpdate(key, new SparkWork)
      w.tasks += 1
      Option(t.taskMetrics).foreach { m =>
        w.cpuNs += m.executorCpuTime
        w.runMs += m.executorRunTime
        w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onBlockUpdated(b: SparkListenerBlockUpdated): Unit = {
    val info = b.blockUpdatedInfo
    info.blockId.asRDDId.foreach { id =>
      synchronized {
        val size = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
        cached += size - blocks.getOrElse((id.rddId, id.splitIndex), 0L)
        if (size > 0) blocks((id.rddId, id.splitIndex)) = size
        else blocks.remove((id.rddId, id.splitIndex))
        peak = math.max(peak, cached)
      }
    }
  }

  override def onUnpersistRDD(u: SparkListenerUnpersistRDD): Unit = synchronized {
    blocks.keys.filter(_._1 == u.rddId).toList.foreach { k =>
      cached -= blocks(k); blocks.remove(k)
    }
  }

  /** Start a new measurement window: clear counters, peak := current size. */
  def reset(): Unit = synchronized {
    work.clear(); stageKey.clear(); execStack.clear(); peak = cached
  }

  def cachePeakBytes: Long = synchronized(peak)

  def snapshot: Map[(String, List[String]), SparkWork] = synchronized(work.toMap)

  /** SQL execution ids whose call stack passes through `frame`, with it. */
  def executionsThrough(frame: String): Seq[(Long, String)] = synchronized {
    execStack.toSeq.filter(_._2.contains(frame)).sortBy(_._1)
  }
}

object Recorder {
  val SpanProperty = "perfbench.span"
}

/** Samples the driver thread's stack at a fixed interval and charges the
  * time between samples to the layers on it: inclusive time to each layer
  * on the path, self time to the innermost.
  */
final class Sampler(target: Thread, intervalMs: Long) {
  private val inclusive = mutable.Map.empty[String, Long]
  private val self      = mutable.Map.empty[String, Long]
  @volatile private var stallNs = 0L
  @volatile private var active  = false
  @volatile private var running = true

  private val thread = new Thread(() => {
    var last = System.nanoTime()
    while (running) {
      Thread.sleep(intervalMs)
      val walk  = System.nanoTime()
      val stack = target.getStackTrace
      val now   = System.nanoTime()
      if (active) {
        stallNs += now - walk
        val p = Layers.pathOf(stack)
        synchronized {
          p.foreach(l => inclusive(l) = inclusive.getOrElse(l, 0L) + (now - last))
          p.lastOption.foreach(l => self(l) = self.getOrElse(l, 0L) + (now - last))
        }
      }
      last = now
    }
  }, "perfbench-sampler")
  thread.setDaemon(true)
  thread.start()

  def start(): Unit = synchronized {
    inclusive.clear(); self.clear(); stallNs = 0L; active = true
  }

  /** Time of the last window the target thread was held for stack walks. */
  def stallSeconds: Double = stallNs / 1e9
  def stop(): Unit = active = false

  /** (inclusive seconds, self seconds) per layer of the last window. */
  def seconds: Map[String, (Double, Double)] = synchronized {
    inclusive.keys.map(l => l -> (inclusive(l) / 1e9, self.getOrElse(l, 0L) / 1e9)).toMap
  }

  def close(): Unit = { running = false; thread.join() }
}

/** An explicit span recorded by the harness around one public call. */
final case class Span(name: String, parent: Option[String], run: Int,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}
