package org.apache.spark

/** Waits until every posted listener event has been delivered. The bus is
  * private to Spark; the benchmark needs it drained before it reads the
  * counters of a finished run, so the helper lives in Spark's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
