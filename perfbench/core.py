"""Shared pieces of the benchmark: clock, spans, checks, metric report.

Nothing here imports Spark at import time; ``spark_running`` does so when
entered, after pinning the environment the JVM reads at launch.
"""
from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SHUFFLE_PARTITIONS = 4


# On a VM that shares its host, the other tenants change the VM's speed
# by up to 2x, and they do so within a fraction of a second. The tuple
# workloads therefore time their calls in blocks of about BLOCK_S seconds
# and run ``calibration`` after each block; a block's time counts as
# ``block seconds * CALIBRATION_REF_S / calibration seconds``: its time at
# the speed at which the calibration loop takes CALIBRATION_REF_S (about
# its time on a quiet 4-vCPU Xeon VM). On such a VM under load, over 79
# replays of one 4-hop stream in one process, this cut the spread of
# replay times (coefficient of variation) from 0.18 to 0.02.
#
# A Spark call runs on all four cores, so a loop run beside it would also
# time the call's own load. The partitioned workload runs
# CALL_CALIBRATIONS loops before and after each call instead and scales
# the call by their mean. That tracks the machine less closely, but over
# ten seeds it cut the spread from 0.31-0.35 to 0.18. On SparkCrown it
# widened the spread (0.27 against 0.08 over ten seeds), so SparkCrown's
# batches are not calibrated.
BLOCK_S = 0.01
CALIBRATION_REF_S = 0.00033
CALL_CALIBRATIONS = 25


def calibration() -> float:
    """Seconds of a fixed piece of pure-Python work: small tuples as keys
    of a small dict. The garbage collector is off meanwhile, so the size
    of the program's heap does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    s = clock()
    d: dict = {}
    for i in range(2000):
        k = (i % 31, i % 7)
        d[k] = d.get(k, 0) + 1
    e = clock()
    if enabled:
        gc.enable()
    return e - s


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size so far, in MB (Linux reports KiB): of this
    process, or with ``RUSAGE_CHILDREN`` the largest peak among its
    ended child processes that were waited for (on the Spark workloads,
    once the session has stopped: the JVM and the Python workers it
    ran)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine() -> dict:
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
    }


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent]`` rows.

    ``parent`` is the index of the enclosing span (-1 at top level); the
    run id names the whole run. A disabled tracer records nothing.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = clock()

    def record(self, name: str, start: float, end: float) -> None:
        """A leaf span the caller timed itself (per-update hot loops)."""
        self.spans.append((name, start, end, self._open[-1] if self._open else -1))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, s, e, p in self.spans:
            if p >= 0:
                covered[p] += e - s
        out: dict[str, float] = {}
        for i, (name, s, e, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (e - s) - covered[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {"run_id": self.run_id, "columns": ["name", "start", "end", "parent"],
                 "spans": self.spans},
                f,
            )


class NetDeltas:
    """Running net of a signed delta stream under set semantics.

    ``feed`` returns False when a delta inserts a row already present or
    deletes one that is absent; the net then still follows the stream.
    """

    def __init__(self) -> None:
        self.live: set = set()

    def feed(self, deltas) -> bool:
        ok = True
        for sign, t in deltas:
            if sign > 0:
                ok &= t not in self.live
                self.live.add(t)
            else:
                ok &= t in self.live
                self.live.discard(t)
        return ok


class Report:
    """Metrics of one run plus the operations attempted and failed.

    ``e2e`` and ``layer`` hold the metrics named in BENCHMARK.json;
    ``extra`` holds workload-specific numbers that are printed and saved
    but are not part of the JSON result line.
    """

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        self.e2e: dict[str, tuple[float, str, int]] = {}
        self.layer: dict[str, tuple[float, str, int]] = {}
        self.extra: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def ops(self, n: int, failed: int, what: str = "") -> None:
        self.attempted += n
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {n}")

    def emit(self, spec: dict) -> dict:
        """Print the report and return the result object (last line)."""
        wanted = spec["per_layer"] if self.trace else spec["end_to_end"]
        table = self.layer if self.trace else self.e2e
        missing = [m["name"] for m in wanted if m["name"] not in table]
        if missing:
            raise RuntimeError(f"{self.workload}: metrics not measured: {missing}")
        frac = self.failed / max(1, self.attempted)
        self.extra["failed_ops_frac"] = (frac, "frac", self.attempted)
        print(f"== {self.workload} seed={self.seed} trace={int(self.trace)}")
        for title, tab in (("end-to-end", self.e2e), ("per-layer", self.layer),
                           ("workload", self.extra)):
            for name, (v, unit, n) in sorted(tab.items()):
                print(f"  [{title}] {name} = {v:.6g} {unit} (n={n})")
        gate = "PASS" if self.failed == 0 else "FAIL"
        print(f"  correctness gate: {gate} ({self.failed} of {self.attempted} ops failed)")
        for f in self.failures:
            print(f"    failure: {f}")
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]}
                for m in wanted
            },
        }
        OUT.mkdir(parents=True, exist_ok=True)
        summary = OUT / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        with open(summary, "w") as f:
            json.dump({"result": result, "e2e": self.e2e, "layer": self.layer,
                       "extra": self.extra, "failures": self.failures}, f, indent=1)
        return result


def median(values: list[float]) -> float:
    return statistics.median(values)


@contextmanager
def spark_running(tracer: Tracer):
    """The pinned local Spark session, as ``(spark, seconds to start)``:
    ``local[4]``, fixed shuffle partitions, Arrow on, broadcast joins off,
    no progress bar, scratch space inside ``perfbench/out`` and ``src`` on
    the workers' path. On exit the session is stopped and the JVM it
    launched has ended."""
    local = OUT / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    os.environ["SPARK_LOCAL_DIRS"] = os.environ["TMPDIR"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[4] --driver-memory 2g "
        f"--driver-java-options -Djava.io.tmpdir={local} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    with tracer.span("spark.session"):
        s = clock()
        spark = (
            SparkSession.builder.master("local[4]")
            .appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.local.dir", str(local))
            .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        start_s = clock() - s
    try:
        yield spark, start_s
    finally:
        spark.stop()
        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            # the JVM exits when its stdin closes; wait for it
            gateway.shutdown()
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            SparkContext._gateway = SparkContext._jvm = None


class JobCounter:
    """Counts the Spark jobs and stages of one call, from outside the
    engine: the call runs under its own job group and the status tracker
    is read after it returns."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.tracker = self.sc.statusTracker()
        self.n = 0

    @contextmanager
    def group(self):
        self.n += 1
        gid = f"perfbench-{self.n}"
        self.sc.setJobGroup(gid, gid)
        box = {"jobs": 0, "stages": 0}
        yield box
        # the status tracker is fed asynchronously by the listener bus
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        jobs = self.tracker.getJobIdsForGroup(gid)
        box["jobs"] = len(jobs)
        box["stages"] = sum(
            len(info.stageIds)
            for info in (self.tracker.getJobInfo(j) for j in jobs)
            if info is not None
        )
