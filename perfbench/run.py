"""LeCo reproduction benchmark: one closed-loop client, fixed work per round.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload codec_roundtrip --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``codec_roundtrip`` — FOR / LeCo-fix / LeCo-var encode → to_bytes →
  from_bytes → decode over several data-set shapes (``core.*``);
* ``point_lookup`` — batched ``access`` on pre-encoded columns and
  ``DB.seek`` with the LeCo index at two block-cache sizes
  (``core.bitpack.extract``, ``core.string_codec``, ``rocksdb_sim``);
* ``spark_scan`` — Fig 14 ``filter_scan_mod`` per encoding, a Fig 17
  ``bitmap_select`` and a ``spark_codec.decode_column`` aggregate under
  Spark (``parquet_sim``, ``spark_codec``).

Every workload also runs the other stacks as small fixed probes, so all
end-to-end metrics exist on every workload; the workload's own stack carries
most of the timed work.  Only ``spark_scan`` starts Spark (its JVM start and
first job cost ~15 s a run); elsewhere ``query_s`` times the same Fig 14/17
file queries run in-process through the executors' chunk functions.

Protocol.  Set-up (inputs, encodings, files, SSTable, Spark session) is
followed by one discarded warm-up round, then a fixed number of rounds,
``ceil(seconds / nominal round time)``, so op counts repeat exactly for a
given ``--seconds``.  Each round runs every op of every component with the
order rotated per round; µs-scale ops are timed in short batches (a few ms).
Every output is checked against an oracle built from the inputs.

A gated timing is the fast decile (p10) of each op kind's samples, summed
over the kinds of one round's mix: on a shared host interference only ever
slows an op down, so the fast decile of many short samples tracks the
uncontended cost.  Whole runs still drift with the host's speed, so each
timing is then divided by the run's host-speed factor: the fast decile of a
fixed reference computation timed between components (``host_reference``),
over its nominal value.  The unscaled fast decile (``.raw``), the median
and the tail are printed too, with the sample count.  ``setup_s`` is
start-up (interpreter, imports, Spark session) plus the median of three
input builds plus the warm-up round, scaled by the same factor.

With ``--trace 1`` rounds alternate between untraced and traced (spans
around the calls into each layer, see ``tracing.py``); the last line then
carries the per-layer metrics and the tracing overhead, and the spans are
written to ``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 1 means an output was
wrong; 2 means the checkout is incomplete.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # components imports the program, which is on the path only at run time
    from components import AccessSize, CodecSize, ScanSize, SeekSize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILDS = 3  # input builds per run; setup_s takes their median
REPLAY = 1_000_000  # span round ids of traced replays start here
REFERENCE_REPS = 4  # host-reference samples after each component visit
SLICES = 16  # > Spark queries per round; spaces the probes' sub-round indexes
#: fast decile of ``host_reference()`` on an idle 4-core x86 host of the kind
#: the bounds were set on; gated timings are scaled to this host speed
REFERENCE_NOMINAL_S = 0.6e-3

# Gated timing → the recorder metric its samples are filed under.
E2E_TIMINGS = {
    "fix_encode_mvps": "fix_encode",
    "var_encode_mvps": "var_encode",
    "decode_mvps": "decode",
    "access_us": "access",
    "seek_us": "seek",
    "query_s": "query",
}
UNITS = {
    "setup_s": "s", "success_rate": "ratio", "stored_ratio": "ratio",
    "fix_encode_mvps": "Mv/s", "var_encode_mvps": "Mv/s", "decode_mvps": "Mv/s",
    "access_us": "us", "seek_us": "us", "query_s": "s",
}
SCHEME_NAMES = ("FOR", "LeCo-fix", "LeCo-var")
QUERY_KINDS = (
    "filter_scan_mod.default", "filter_scan_mod.for", "filter_scan_mod.leco",
    "bitmap_select", "decode_column",
)
CACHES = ("small", "large")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    codec: CodecSize
    access: AccessSize
    seek: SeekSize
    scan: ScanSize
    stored_from: str  # component whose stored bytes give stored_ratio
    nominal_round_s: float  # round time on a 4-core x86 host, sets the round count


def workloads():
    from components import AccessSize, CodecSize, ScanSize, SeekSize

    codec_probe = CodecSize(("books", "fb", "ml", "normal", "poisson", "movieid"), 1_000, reps=1)
    access_probe = AccessSize(("ml",), 4_000, batch=1_000, batches=4)
    seek_probe = SeekSize(6_000, (("small", 500_000), ("large", 4_000_000)), batch=100, batches=6)
    scan_probe = ScanSize(240_000, 40_000, spark=False, reps=2)
    return {
        "codec_roundtrip": Workload(
            CodecSize(
                ("books", "fb", "ml", "normal", "poisson", "movieid", "wiki", "house_price"), 2_000, reps=3
            ),
            access_probe, seek_probe, scan_probe, stored_from="codec", nominal_round_s=1.3,
        ),
        # 60k records ≈ 25 MB of SSTable; the hot 20% ≈ 5 MB sits between
        # the two block-cache sizes.
        "point_lookup": Workload(
            codec_probe,
            AccessSize(("books", "ml", "movieid"), 20_000, batch=1_000, batches=3),
            SeekSize(60_000, (("small", 2_000_000), ("large", 8_000_000)), batch=100, batches=20),
            scan_probe, stored_from="access", nominal_round_s=0.5,
        ),
        # A Spark round is ~6 s of plumbing-dominated actions; the probes run
        # a slice after each action (sizes here are per slice).
        "spark_scan": Workload(
            codec_probe,
            AccessSize(("ml",), 4_000, batch=1_000, batches=2),
            SeekSize(6_000, (("small", 500_000), ("large", 4_000_000)), batch=100, batches=3),
            ScanSize(240_000, 40_000, spark=True), stored_from="scan", nominal_round_s=5.5,
        ),
    }


# ---------------------------------------------------------------------------
# Round recorder
# ---------------------------------------------------------------------------

class Recorder:
    """Collects per-op samples, verification counts and layer counters."""

    def __init__(self, spark):
        self.spark = spark
        self.attempted = self.failed = 0
        #: metric → op kind → [(traced, seconds)], one sample per timed op
        self.ops: dict[str, dict[str, list[tuple[bool, float]]]] = defaultdict(lambda: defaultdict(list))
        self.work: dict[str, dict[str, int]] = defaultdict(dict)  # metric → kind → work per op
        #: kept rounds as (traced, wall seconds)
        self.rounds: list[tuple[bool, float]] = []
        self.tracer = None  # set while a round is traced
        self.layer: dict[str, float] = defaultdict(float)  # summed over traced rounds
        self._errors = 0
        self._keep = False

    def begin_round(self, r: int, tracer, keep: bool) -> None:
        self.tracer = tracer
        self._keep = keep
        if tracer is not None:
            tracer.round_id = r
        self._t0 = time.perf_counter()

    def end_round(self) -> None:
        if self._keep:
            self.rounds.append((self.tracer is not None, time.perf_counter() - self._t0))
        self.tracer = None

    def fast(self, metric: str, stat, traced: bool = False) -> float:
        """Seconds per unit of work of one round's mix: ``stat`` of each op
        kind's samples, summed over kinds, over the kinds' summed work."""
        kinds = self.ops[metric]
        secs = sum(stat([x for tr, x in xs if tr == traced]) for xs in kinds.values())
        return secs / sum(self.work[metric][k] for k in kinds)

    def n_samples(self, metric: str, traced: bool = False) -> int:
        return sum(tr == traced for xs in self.ops[metric].values() for tr, _ in xs)

    def walls(self, traced: bool) -> list[float]:
        return [w for tr, w in self.rounds if tr == traced]

    @contextmanager
    def op(self, label: str, n: int):
        """One verified operation (or batch of ``n``); an exception fails it."""
        self._label = label
        try:
            yield
        except Exception:
            self.attempted += n
            self.failed += n
            self._report(f"{label} raised:", exc=True)

    def check(self, good: int, n: int = 1) -> None:
        self.attempted += n
        self.failed += n - int(good)
        if good != n:
            self._report(f"{self._label}: {n - int(good)} of {n} outputs wrong")

    def _report(self, msg: str, exc: bool = False) -> None:
        self._errors += 1
        if self._errors <= 5:
            print(f"[perfbench] {msg}", file=sys.stderr)
            if exc:
                traceback.print_exc(file=sys.stderr)

    @contextmanager
    def timed(self, metric: str, kind: str, work: int, span: str):
        """Time one op (or batch) of ``kind``; it is one sample of ``metric``."""
        tr = self.tracer
        if tr is not None:
            unpacked = tr.counts["bitpack.unpack"]
            i = tr.open(span, time.perf_counter())
        t = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t
            if tr is not None:
                tr.close(i, time.perf_counter())
        # Only an op that completed is a sample.
        if tr is not None:
            self.layer[f"work:{span}"] += work
            self.layer[f"unpacked:{span}"] += tr.counts["bitpack.unpack"] - unpacked
        if self._keep:
            self.ops[metric][kind].append((tr is not None, dt))
            self.work[metric][kind] = work

    def codec_bytes(self, scheme: str, stored: int, model: int) -> None:
        if self.tracer is not None:
            self.layer[f"codec.{scheme}.stored_bytes"] += stored
            self.layer[f"codec.{scheme}.model_bytes"] += model

    def cache(self, label: str, db, misses: int, queries: int) -> None:
        if self.tracer is not None:
            self.layer[f"rocksdb.misses.{label}"] += misses
            self.layer[f"rocksdb.queries.{label}"] += queries
            self.layer[f"rocksdb.cache_capacity_bytes.{label}"] = db.cache_capacity
            self.layer["rocksdb.index_bytes"] = db.index.nbytes()

    def spark_job(self, group: str, stats: dict | None) -> None:
        """Tasks and task failures of the action's jobs, from the status tracker."""
        st = self.spark.sparkContext.statusTracker()
        tasks = failed = 0
        for jid in st.getJobIdsForGroup(group):
            job = st.getJobInfo(jid)
            for sid in job.stageIds if job else ():
                stage = st.getStageInfo(sid)
                if stage:
                    tasks += stage.numTasks
                    failed += stage.numFailedTasks
        self.layer["spark.failed_tasks.all"] += failed
        if self.tracer is None:
            return
        self.layer["spark.tasks"] += tasks
        self.layer["spark.failed_tasks"] += failed
        if stats:
            self.layer["scan.task_cpu_s"] += stats["decompress_s"] + stats["scan_s"]
            self.layer["scan.bytes_read"] += stats["bytes_read"]
            self.layer["scan.modeled_io_s"] += stats["io_s"]
            self.layer["scan.rows_out"] += stats["rows_out"]


# ---------------------------------------------------------------------------
# Spark session (pinned local[k], no UI, temp files under the run directory)
# ---------------------------------------------------------------------------

def start_spark(tmp: str):
    k = min(4, len(os.sched_getaffinity(0)))
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.driver.bindAddress": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.warehouse.dir": os.path.join(tmp, "warehouse"),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
    }
    args = [f"--master local[{k}]", "--driver-memory 1g"]
    args += [f"--conf {shlex.quote(f'{key}={val}')}" for key, val in conf.items()]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(args) + " pyspark-shell"
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM (and its Python workers) exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def p10(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[0] if len(xs) > 1 else xs[0]


def tail(xs: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, or the
    median when too few samples put that percentile above the median."""
    s = sorted(xs)
    return s[len(s) - 11] if len(s) >= 22 else statistics.median(s)


def as_metric(name: str, sec_per_unit: float) -> float:
    """Seconds per unit of work → the metric's reported unit."""
    if name.endswith("_mvps"):
        return 1e-6 / sec_per_unit
    if name.endswith("_us"):
        return sec_per_unit * 1e6
    return sec_per_unit


# ---------------------------------------------------------------------------
# Per-layer metrics (traced rounds)
# ---------------------------------------------------------------------------

def per_layer(rec: Recorder, tracer, traced: set[int]) -> dict[str, tuple[float, str]]:
    t = tracer.totals(traced)
    replay = tracer.totals({REPLAY + r for r in traced})
    n = max(1, len(traced))
    L = rec.layer

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {
        "partitioner.search_fixed_length_s": (self_s("partitioner.search_fixed_length"), "s"),
        "partitioner.var_partitions_s": (self_s("partitioner.var_partitions"), "s"),
        "regressor.fit_calls": (calls("regressor.fit") / n, "count"),
        "regressor.fit_s": (self_s("regressor.fit"), "s"),
        "bitpack.pack_s": (self_s("bitpack.pack"), "s"),
        "bitpack.pack_values": (tracer.counts["bitpack.pack"] / n, "count"),
        "bitpack.unpack_s": (self_s("bitpack.unpack"), "s"),
        "bitpack.unpack_values": (tracer.counts["bitpack.unpack"] / n, "count"),
        "bitpack.unpack_mvps": (
            ratio(tracer.counts["bitpack.unpack"] / n, self_s("bitpack.unpack")) / 1e6, "Mv/s"
        ),
        "bitpack.extract_calls": (calls("bitpack.extract") / n, "count"),
        "bitpack.extract_s": (self_s("bitpack.extract"), "s"),
        "format.to_bytes_s": (self_s("format.to_bytes"), "s"),
        "format.from_bytes_s": (self_s("format.from_bytes"), "s"),
        "format.partitions": (tracer.counts["format.from_bytes"] / n, "count"),
        "format.partition_of_s": (self_s("format.partition_of"), "s"),
    }
    decoded = unpacked = 0
    for s in SCHEME_NAMES:
        enc, dec, acc = (t.get(f"codec.{s}.{op}", {}) for op in ("encode", "decode", "access"))
        stored = L[f"codec.{s}.stored_bytes"] / n
        out[f"codec.{s}.encode_s"] = (enc.get("total_s", 0.0) / n, "s")
        out[f"codec.{s}.decode_s"] = (dec.get("total_s", 0.0) / n, "s")
        out[f"codec.{s}.access_us"] = (
            ratio(acc.get("total_s", 0.0), L[f"work:codec.{s}.access"]) * 1e6, "us"
        )
        out[f"codec.{s}.stored_bytes"] = (stored, "B")
        out[f"codec.{s}.model_share"] = (ratio(L[f"codec.{s}.model_bytes"] / n, stored), "ratio")
        decoded += L[f"work:codec.{s}.decode"]
        unpacked += L[f"unpacked:codec.{s}.decode"]
    out["codec.unpacked_per_value"] = (ratio(unpacked, decoded), "ratio")

    seeks = calls("rocksdb.index_seek")
    out["rocksdb.index_seek_us"] = (ratio(t.get("rocksdb.index_seek", {}).get("total_s", 0.0), seeks) * 1e6, "us")
    out["string_codec.keys_examined_per_seek"] = (
        ratio(calls("string_codec.mapped_value") + calls("string_codec.access"), seeks), "count"
    )
    out["rocksdb.parse_block_s"] = (self_s("rocksdb.parse_block"), "s")
    out["rocksdb.block_get_s"] = (self_s("rocksdb.block_get"), "s")
    for c in CACHES:
        out[f"rocksdb.cache_miss_rate.{c}"] = (
            ratio(L[f"rocksdb.misses.{c}"], L[f"rocksdb.queries.{c}"]), "ratio"
        )
    out["rocksdb.index_bytes"] = (L["rocksdb.index_bytes"], "B")
    for c in CACHES:
        out[f"rocksdb.cache_capacity_bytes.{c}"] = (L[f"rocksdb.cache_capacity_bytes.{c}"], "B")

    job_wall = 0.0
    for kind in QUERY_KINDS:
        w = t.get(f"spark.{kind}", {}).get("total_s", 0.0) / n
        job_wall += w
        out[f"spark.job_wall_s.{kind}"] = (w, "s")
    out["spark.tasks"] = (L["spark.tasks"] / n, "count")
    out["spark.failed_tasks"] = (L["spark.failed_tasks"] / n, "count")
    out["scan.task_cpu_s"] = (L["scan.task_cpu_s"] / n, "s")
    out["scan.task_share"] = (ratio(L["scan.task_cpu_s"] / n, job_wall), "ratio")
    out["scan.bytes_read"] = (L["scan.bytes_read"] / n, "B")
    out["scan.modeled_io_s"] = (L["scan.modeled_io_s"] / n, "s")
    out["scan.rows_out"] = (L["scan.rows_out"] / n, "count")
    out["scan.unpacked_per_row"] = (ratio(tracer.counts["replay:bitpack.unpack"], L["replay.rows"]), "ratio")
    for name in ("encodings.parse_chunk", "encodings.gather_positions"):
        out[f"{name}_s"] = (replay.get(name, {}).get("self_s", 0.0) / n, "s")
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    # Children (the Spark JVM and its Python workers) inherit these.
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(tmp, "spark-local")
    # No JVM (Spark's launcher or driver) writes hsperfdata or temp files
    # outside the run directory.
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        filter(None, [os.environ.get("JAVA_TOOL_OPTIONS"), "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"])
    )
    sys.path.insert(0, SRC)
    try:
        wl = workloads()[args.workload]
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spark = None
    comps: dict = {}
    try:
        if wl.scan.spark:
            spark = start_spark(tmp)
        return run(args, wl, spark, tmp, comps)
    finally:
        for c in comps.values():
            c.close()
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


def run(args, wl: Workload, spark, tmp: str, comps: dict) -> int:
    from components import CodecRoundtrip, RandomAccess, ScanQueries, Seek, host_reference, rotate
    from tracing import Tracer, instrument

    startup_s = time.perf_counter() - T_START

    builds = []
    for b in range(BUILDS):
        for c in comps.values():
            c.close()
        comps.clear()
        comps.update(
            codec=CodecRoundtrip(wl.codec), access=RandomAccess(wl.access),
            seek=Seek(wl.seek), scan=ScanQueries(wl.scan),
        )
        t = time.perf_counter()
        for c in comps.values():
            c.build(args.seed, tmp, spark)
        builds.append(time.perf_counter() - t)

    rounds = max(3, math.ceil(args.seconds / wl.nominal_round_s))
    if args.trace:
        rounds = max(4, rounds + rounds % 2)
    rec = Recorder(spark)
    tracer = Tracer() if args.trace else None

    def visit(name: str, r: int, traced: bool, **kw) -> None:
        # Spark pickles task closures by reference, so the wrappers must not
        # be installed while an action runs; they could not reach the
        # executors anyway.
        wrap = traced and not (name == "scan" and wl.scan.spark)
        with instrument(tracer) if wrap else nullcontext():
            comps[name].run(r, rec, **kw)
        for _ in range(REFERENCE_REPS):
            with rec.timed("reference", "reference", 1, "host.reference"):
                host_reference()

    def one_round(r: int, keep: bool, traced: bool) -> None:
        rec.begin_round(r, tracer if traced else None, keep)
        if wl.scan.spark:
            # Spark actions take seconds, so the other components run one
            # slice after each action: a slow spell of the host then hits a
            # slice of their samples, not all of a round's.
            def between(k: int) -> None:
                for name in rotate(["codec", "access", "seek"], r + k):
                    visit(name, r * SLICES + k, traced)

            visit("scan", r, traced, between=between)
        else:
            for name in rotate(["codec", "access", "seek", "scan"], r):
                visit(name, r, traced)
        rec.end_round()
        if traced:
            # Replay the file queries in-process under their own span round,
            # for the executor-side layer metrics.
            with instrument(tracer):
                tracer.round_id, tracer.replaying = REPLAY + r, True
                rec.layer["replay.rows"] += comps["scan"].replay()
                tracer.replaying = False

    t = time.perf_counter()
    one_round(0, keep=False, traced=False)  # warm-up: JIT, Spark workers, caches
    warmup_s = time.perf_counter() - t
    setup_s = startup_s + statistics.median(builds) + warmup_s

    traced_rounds: set[int] = set()
    t_timed = time.perf_counter()
    for r in range(1, rounds + 1):
        traced = bool(args.trace) and r % 2 == 0
        if traced:
            traced_rounds.add(r)
        one_round(r, keep=True, traced=traced)
    timed_s = time.perf_counter() - t_timed

    stored = comps[wl.stored_from].stored
    raw = comps[wl.stored_from].raw
    config = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "warmup_rounds": 1, "builds": BUILDS,
        "sizes": {k: vars(getattr(wl, k)) for k in ("codec", "access", "seek", "scan")},
        "primary": wl.stored_from,
        "work_per_op": rec.work,
        "startup_s": startup_s, "build_s": builds, "warmup_s": warmup_s, "timed_s": timed_s,
        "stored_bytes": stored, "raw_bytes": raw,
        "spark_failed_tasks": rec.layer["spark.failed_tasks.all"],
    }
    print("config " + json.dumps(config))

    # Host-speed factor: > 1 when this run's host was slower than nominal.
    slow = rec.fast("reference", p10) / REFERENCE_NOMINAL_S
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s / slow, "s"),
        "success_rate": ((rec.attempted - rec.failed) / max(1, rec.attempted), "ratio"),
        "stored_ratio": (stored / raw if raw else 0.0, "ratio"),
    }
    diag: dict[str, tuple[float, str]] = {"setup_s.raw": (setup_s, "s")}
    for name, comp_metric in E2E_TIMINGS.items():
        unit = UNITS[name]
        metrics[name] = (as_metric(name, rec.fast(comp_metric, p10) / slow), unit)
        diag[f"{name}.raw"] = (as_metric(name, rec.fast(comp_metric, p10)), unit)
        diag[f"{name}.p50"] = (as_metric(name, rec.fast(comp_metric, statistics.median) / slow), unit)
        diag[f"{name}.tail"] = (as_metric(name, rec.fast(comp_metric, tail) / slow), unit)
        diag[f"{name}.samples"] = (rec.n_samples(comp_metric), "count")
    diag["host.reference_ms"] = (rec.fast("reference", p10) * 1e3, "ms")
    for name, (value, unit) in {**metrics, **diag}.items():
        print(f"{name:28s} {value:14.6g} {unit}")

    if args.trace:
        layer = per_layer(rec, tracer, traced_rounds)
        overhead = p10(rec.walls(traced=True)) / p10(rec.walls(traced=False)) - 1.0
        layer["trace.overhead_pct"] = (100.0 * overhead, "%")
        layer["trace.spans"] = (len(tracer.start) / max(1, len(traced_rounds)), "count")
        layer.update(diag)
        path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}.npz")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        for name, (value, unit) in layer.items():
            print(f"{name:44s} {value:14.6g} {unit}")
        reported = layer
    else:
        reported = metrics

    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
