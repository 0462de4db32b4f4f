#!/usr/bin/env python3
"""ZeroER benchmark: run `Zeroer.run` on one generated workload and print
the end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
JSON object on the last line of standard output.

    python3 perfbench/run.py --workload ag-cross --seed 1 --seconds 22 --trace 0

Run it from the repository root. The first run builds the program and the
harness from source with sbt (perfbench/build.sbt); later runs reuse the
build while the sources are unchanged. Workloads, their f1 floors and their
exact-count fingerprints are in perfbench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "target", "bench")
JAVA_DEADLINE_S = 170  # a run must end within 180 s; only a build may take longer

# Module opens that spark-submit would add on JDK 17 (same list as the root
# build's forked runs).
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false"]
DRIVER_HEAP = "3g"
# GC threads capped, so that with the two task threads, the Spark driver thread
# and the JIT compiler the JVM asks for little more than a 4-core machine
# has. The JIT keeps its default thread count: with fewer, it is still
# compiling through the warm runs and their times trend down.
JVM_THREADS = ["-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1"]

END_TO_END_UNITS = {"setup_s": "s", "cold_run_s": "s", "run_s": "s",
                    "f1": "ratio", "cache_peak_mb": "MB"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(ROOT, "project"), os.path.join(HERE, "src"),
             os.path.join(HERE, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    return p.returncode, out, err


def build():
    """Compile with sbt when the sources changed; return the classpath."""
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")):
        raise SystemExit("perfbench: no program build (build.sbt) in the checkout")
    stamp = source_stamp()
    cp_file = os.path.join(OUT, "classpath.txt")
    stamp_file = os.path.join(OUT, "stamp.txt")
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    opts = ["-Dsbt.offline=true", "-Xmx2g"]
    if os.path.isfile(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    log("perfbench: building with sbt")
    code, out, _ = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export Runtime/fullClasspath"],
        timeout=850, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        raise SystemExit(f"perfbench: build failed (sbt exit {code})")
    cp = lines[-1].strip()
    os.makedirs(OUT, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=None,
                    help="generator seed of the dataset; defaults to the workload's "
                         "own, and its held-out seed re-checks a claim on unseen data")
    args = ap.parse_args()
    # On SIGTERM, exit through the normal path so the child group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload}; "
                         f"choose from {', '.join(workloads)}")
    w = workloads[args.workload]
    data_seed = w["data_seed"] if args.data_seed is None else args.data_seed
    floors = w["f1_floor"]
    if str(data_seed) not in floors:
        raise SystemExit(f"perfbench: no f1 floor recorded for data seed {data_seed}; "
                         f"recorded: {', '.join(floors)}")
    floor = floors[str(data_seed)]

    # The warm window holds a fixed number of runs: as many of the
    # workload's nominal warm runs as fit in --seconds. Both commits of a
    # comparison then time the same runs of the same JVM, however fast each
    # one is.
    warm_runs = max(1, int(args.seconds // w["warm_run_s"]))

    cp = build()
    trace_out = os.path.join(
        OUT, f"trace-{args.workload}-{data_seed}-{args.seed}-{args.trace}.json")
    tmp = os.path.join(HERE, "target", "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"] +
           JVM_THREADS + JAVA_OPENS +
           ["-Dspark.callstack.depth=64", "-cp", cp, "perfbench.Main",
            "--workload", args.workload, "--dataset", w["dataset"],
            "--scale", str(w["scale"]), "--trans", w["transitivity"],
            "--data-seed", str(data_seed), "--seed", str(args.seed),
            "--warm-runs", str(warm_runs),
            "--trace", str(args.trace),
            "--trace-out", trace_out])
    code, out, _ = run_group(cmd, timeout=JAVA_DEADLINE_S, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH ")]
    if code != 0 or not lines:
        sys.stderr.write(out)
        raise SystemExit(f"perfbench: harness failed (java exit {code})")
    raw = json.loads(lines[-1][len("PERFBENCH "):])
    with open(os.path.join(
            OUT, f"raw-{args.workload}-{data_seed}-{args.seed}-{args.trace}.json"), "w") as f:
        json.dump(raw, f)

    runs = raw["runs"]
    failed = 0
    for r in runs:
        if r["f1"] is not None and r["f1"] < floor:
            r["errors"].append(f"f1 {r['f1']:.4f} below floor {floor}")
        if r["errors"]:
            failed += 1
            log(f"perfbench: {r['kind']} run failed: {'; '.join(r['errors'])}")

    env = raw["env"]
    env["git_commit"] = git_commit()
    env["jvm_threads"] = JVM_THREADS
    env["workload"] = args.workload
    env["seed"] = args.seed
    env["data_seed"] = data_seed
    env["warm_runs"] = warm_runs
    print("env " + json.dumps(env, sort_keys=True))

    ok = [r for r in runs if not r["errors"]]
    if args.trace:
        layers = raw["layers"]
        units = {m["name"]: m["unit"] for m in per_layer_metrics()}
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}
    else:
        warm = [r for r in ok if r["kind"] == "warm"]
        cold = [r for r in ok if r["kind"] == "cold"]
        values = {
            "setup_s": median(raw["setup_s"]),
            "cold_run_s": cold[0]["run_s"] if cold else float("nan"),
            "run_s": median([r["run_s"] for r in warm]),
            "f1": median([r["f1"] for r in ok]),
            "cache_peak_mb": median([r["cache_peak_mb"] for r in warm]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for m in metrics.values():
        if m["value"] is None or m["value"] != m["value"]:
            failed = max(failed, 1)
            m["value"] = 0.0
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))


def per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer"]


if __name__ == "__main__":
    main()
