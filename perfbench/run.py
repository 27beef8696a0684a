#!/usr/bin/env python3
"""End-to-end benchmark of the sparch CLI (see perfbench/README.md).

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds `sparch` and `sparch_trace`
from the checkout into .bench_build/, writes the workload's Matrix
Market inputs from --seed, converts them with `sparch convert`, sets
up (several times, median reported), checks the program's outputs
once, then runs one closed-loop client for --seconds. With --trace 0
every op is the real `sparch` binary and the end-to-end metrics are
reported; with --trace 1 traced ops (`sparch_trace`) alternate with
untraced ones and the per-layer metrics are reported. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = min(4, os.cpu_count() or 1)
SETUP_REPS = 5

# Eight inputs in three families, shared by sim-cold and dse-warm.
# Sizes keep one sim-cold op near 0.8 s on four cores, so a run holds
# enough ops for a tail. Points take 0.035-0.31 s serially; the uniform
# files under replacement=lru are the slowest.
SIM_FILES = [
    "rmat:11x6", "rmat:11x4", "rmat:10x8",
    "banded:8000x40x5", "banded:6000x40x6", "banded:10000x80x4",
    "uniform:6000:24000", "uniform:8000:32000",
]
INGEST_FILE = "banded:80000x50x5"

COLD_CONFIGS = [
    ("table-I", []),
    ("merge-layers-4", ["merge_layers = 4"]),
    ("prefetch-256", ["prefetch_lines = 256"]),
    ("lru", ["replacement = lru"]),
]

# A Fig. 17-style axis: 4 x 6 x 3 x 4 x 3 x 2 = 1728 configs.
DSE_AXES = [
    ("e", "prefetch_line_elems", [24, 48, 64, 96]),
    ("l", "prefetch_lines", [256, 512, 1024, 2048, 4096, 8192]),
    ("m", "merge_layers", [4, 5, 6]),
    ("f", "merge_fifo", [16, 32, 64, 128]),
    ("r", "replacement", ["belady", "lru", "fifo"]),
    ("w", "writer_fifo", [256, 1024]),
]

OP_TIMEOUT_S = {"sim-cold": 60, "dse-warm": 20, "ingest-shard": 60}
CHECK_TIMEOUT_S = 150

# Self time of each main-thread span goes to one per-layer metric.
SELF_METRIC = {
    "cli.main": "cli.other_s",
    "cli.grid_parse": "cli.grid_parse_s",
    "cli.csv_write": "cli.csv_write_s",
    "cache.load": "cache.load_s",
    "cache.lookup": "cache.lookup_s",
    "cache.insert": "cache.insert_s",
    "cache.save": "cache.save_s",
    "driver.run": "driver.run_s",
    "exec.run": "exec.run_s",
    "dse.stats": "dse.stats_s",
    "dse.stats_load": "dse.stats_s",
    "dse.stats_obtain": "dse.stats_s",
    "dse.stats_save": "dse.stats_s",
    "dse.surrogate": "dse.surrogate_s",
    "dse.pareto": "dse.pareto_s",
    "matrix.convert": "matrix.convert_s",
    "matrix.scsr_open": "matrix.scsr_open_s",
}

# Spans inside a pool task. The calling thread may run tasks too; then
# they count toward its exec.run span, as on any other thread.
WORKER_SPANS = {"exec.task", "matrix.materialize", "shard.multiply"}

# Counters that keep their worst case over an op's processes.
MAX_COUNTS = {"shard.busy_s_max", "shard.nnz_imbalance"}

# Modelled module counters summed over an op's simulated records.
MODEL_COUNTS = [
    "multiplier.port_full_stalls", "multiplier.row_wait_stalls",
    "mata_fetcher.issue_cycles", "merge_tree.idle_cycles",
    "merge_tree.fifo_pushes", "row_prefetcher.evictions",
    "row_prefetcher.stall_cycles", "partial_fetcher.elements_streamed",
    "writer.busy_cycles", "dram.bytes.read", "dram.bytes.write",
    "plan.rounds",
]


def log(*parts):
    print("perfbench:", *parts, flush=True)


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tail_percentile(values):
    """The highest percentile with at least 10 samples beyond it, as
    (label, value); the median when fewer than 20 samples exist."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "p50", statistics.median(ordered)
    rank = n - 10  # 1-based rank of the value with 10 samples above
    return f"p{100 * rank // n}", ordered[rank - 1]


class Proc:
    """One finished child process: wall time, peak RSS, exit status."""

    def __init__(self, cmd, cwd, timeout, spans=None):
        self.spans = spans  # the spans file of a traced run
        err_path = cwd / "stderr.txt"
        fired = threading.Event()
        with open(err_path, "w") as err:
            start = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                                     stderr=err)
            timer = threading.Timer(
                timeout, lambda: (fired.set(), child.kill()))
            timer.start()
            _, status, usage = os.wait4(child.pid, 0)
            self.wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.code = child.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.stderr = err_path.read_text(errors="replace")
        self.timed_out = fired.is_set()

    def failure(self):
        """Why the op failed, or None: timeout, exit code, failed=N."""
        if self.timed_out:
            return "timeout"
        reported = re.search(r", failed=(\d+)", self.stderr)
        if reported and int(reported.group(1)) > 0:
            return f"sweep reported failed={reported.group(1)}"
        if self.code != 0:
            last = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {self.code}: {last[0]}"
        return None


def csv_totals(path):
    """(data rows, sum of cycles, sum of bytes_total) over tier=sim."""
    rows = cycles = dram = 0
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        c_cycles, c_bytes, c_tier = (header.index(k) for k in
                                     ("cycles", "bytes_total", "tier"))
        for line in f:
            rows += 1
            # Workload names here hold no commas, so a plain split is
            # exact for these inputs.
            fields = line.rstrip("\n").split(",")
            if fields[c_tier] == "sim":
                cycles += int(fields[c_cycles])
                dram += int(fields[c_bytes])
    return rows, cycles, dram


def build():
    """Configure once and build both binaries; None when impossible."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: no sparch sources next to perfbench/; run from "
              "a full checkout", file=sys.stderr)
        return None
    build_dir = ROOT / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "--build", str(build_dir), "-j", str(THREADS),
              "--target", "sparch_cli", "sparch_trace"]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_dir / "build.log", "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out) != 0:
                print(f"perfbench: build failed, see {build_dir}/build.log",
                      file=sys.stderr)
                return None
    return build_dir / "sparch" / "src" / "sparch", build_dir / "sparch_trace"


def mtx_name(spec):
    return spec.replace(":", "_").replace("x", "_")


class Bench:
    def __init__(self, workload, seed, seconds, trace, sparch, tracer, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sparch = str(sparch)
        self.tracer = str(tracer)
        self.work = work
        self.timeout = OP_TIMEOUT_S[workload]
        self.spans_seq = 0
        self.correct = True
        self.attempted = 0
        self.failures = []

    # --- running the program -------------------------------------------

    def run(self, args, traced=False, timeout=None):
        """Run sparch, or sparch_trace when traced, in the work
        directory."""
        spans = None
        cmd = [self.tracer if traced else self.sparch] + args
        if traced:
            self.spans_seq += 1
            spans = self.work / f"spans-{self.spans_seq}.tsv"
            cmd += ["--spans", spans.name]
        return Proc(cmd, self.work, timeout or self.timeout, spans)

    def must(self, proc, what):
        """A set-up or check step must succeed; a failure is incorrect."""
        why = proc.failure()
        if why is not None:
            log(f"{what} failed: {why}")
            self.correct = False
        return why is None

    def expect_bytes(self, path, digest, what):
        if file_digest(path) != digest:
            log(f"output check failed: {what} differs from the reference")
            self.correct = False
            return False
        return True

    # --- inputs, set-up and checks -------------------------------------

    def write_inputs(self):
        specs = [INGEST_FILE] if self.workload == "ingest-shard" else SIM_FILES
        self.mtx = []
        for spec in specs:
            name = mtx_name(spec)
            nnz = gen.write_mtx(spec, self.work / f"{name}.mtx", self.seed)
            log(f"input {name}.mtx: {spec}, {nnz} nnz, seed {self.seed}")
            self.mtx.append(name)

    def write_grids(self):
        files = "".join(f"{name}.scsr\n" for name in self.mtx)
        cold = "".join(f"[config {label}]\n" + "".join(f"{o}\n" for o in opts)
                       for label, opts in COLD_CONFIGS)
        (self.work / "cold.grid").write_text(cold + "[workloads]\n" + files)
        configs = [[]]
        for tag, key, values in DSE_AXES:
            configs = [c + [(tag, key, v)] for c in configs for v in values]
        dse = "".join(
            "[config " + "-".join(f"{t}{v}" for t, _, v in c) + "]\n" +
            "".join(f"{k} = {v}\n" for _, k, v in c) for c in configs)
        (self.work / "dse.grid").write_text(dse + "[workloads]\n" + files)
        (self.work / "ingest.grid").write_text(
            "shards = 4\n[workloads]\n" + files)
        (self.work / "monolithic.grid").write_text("[workloads]\n" + files)

    def sweep_args(self, cache=None, csv="op.csv", grid=None):
        grid = grid or {"sim-cold": "cold.grid", "dse-warm": "dse.grid",
                        "ingest-shard": "ingest.grid"}[self.workload]
        args = ["sweep", "--grid", grid, "--threads", str(THREADS),
                "--csv", csv]
        if self.workload == "dse-warm":
            args += ["--surrogate", "--surrogate-keep", "0"]
        if cache is not None:
            args += ["--cache", cache]
        return args

    def fresh(self, *names):
        for name in names:
            for path in (self.work / name, self.work / f"{name}.stats",
                         self.work / f"{name}.tmp"):
                path.unlink(missing_ok=True)

    def setup(self):
        """The program's work before the timed loop, SETUP_REPS times:
        convert the inputs (sim-cold, dse-warm, ingest-shard) and, for
        dse-warm, run the cold sweep that fills the result cache and
        the stats sidecar. Returns the per-rep wall times and, traced,
        the spans files."""
        walls, spans = [], []
        for _ in range(SETUP_REPS):
            wall, rep_spans = 0.0, []
            for name in self.mtx:
                self.fresh(f"{name}.scsr")
                proc = self.run(["convert", f"{name}.mtx", f"{name}.scsr"],
                                traced=self.trace)
                self.must(proc, f"setup convert of {name}.mtx")
                wall += proc.wall
                rep_spans.append(proc.spans)
            if self.workload == "dse-warm":
                self.fresh("dse.cache")
                proc = self.run(self.sweep_args(cache="dse.cache"),
                                traced=self.trace)
                self.must(proc, "setup cold sweep")
                wall += proc.wall
                rep_spans.append(proc.spans)
            walls.append(wall)
            spans.append(rep_spans)
        return walls, spans

    def check(self):
        """Once per run, untimed: `convert --verify` of every input must
        match the set-up's file, and `sweep --check` (every product
        against the reference SpGEMM) gives the reference CSV."""
        self.scsr_digest = {}
        for name in self.mtx:
            self.scsr_digest[name] = file_digest(self.work / f"{name}.scsr")
            proc = self.run(["convert", "--verify", f"{name}.mtx",
                             f"verify-{name}.scsr"], timeout=CHECK_TIMEOUT_S)
            if self.must(proc, f"convert --verify of {name}.mtx"):
                self.expect_bytes(self.work / f"verify-{name}.scsr",
                                  self.scsr_digest[name],
                                  f"verify-{name}.scsr")
        self.fresh("check.cache")
        cache = "check.cache" if self.workload == "dse-warm" else None
        proc = self.run(self.sweep_args(cache=cache, csv="ref.csv") +
                        ["--check"], timeout=CHECK_TIMEOUT_S)
        if self.workload == "ingest-shard":
            if not self.sharded_check(proc):
                return False
        elif not self.must(proc, "sweep --check"):
            return False
        self.ref_digest = file_digest(self.work / "ref.csv")
        self.rows, self.cycles, self.dram = csv_totals(self.work / "ref.csv")
        log(f"checked: reference CSV has {self.rows} rows, "
            f"{self.cycles} modelled cycles, {self.dram} DRAM bytes "
            "(unvalidated model outputs)")
        return True

    def sharded_check(self, proc):
        """`sweep --check` on a sharded grid trips a program defect: the
        shard merge sums bytes over the shards but divides by one
        accelerator's peak bandwidth, so the check's utilization <= 1
        invariant fails before the product is compared. The defect is
        printed on every run; the product is checked against the
        reference SpGEMM through the same matrix at shards = 1, and the
        sharded CSV is the reference every op must reproduce."""
        why = proc.failure()
        if why is None:
            return True
        log(f"known defect: sweep --check at shards = 4 failed: {why}")
        mono = self.run(self.sweep_args(csv="mono.csv",
                                        grid="monolithic.grid") + ["--check"],
                        timeout=CHECK_TIMEOUT_S)
        if not self.must(mono, "sweep --check at shards = 1"):
            return False
        ref = self.run(self.sweep_args(csv="ref.csv"),
                       timeout=CHECK_TIMEOUT_S)
        return self.must(ref, "sharded reference sweep")

    # --- one op --------------------------------------------------------

    def op(self, traced):
        """One closed-loop op; returns a dict, with 'failure' set when
        it failed (timeout, non-zero exit, failed=N, bad output)."""
        self.attempted += 1
        procs = []
        if self.workload == "ingest-shard":
            name = self.mtx[0]
            self.fresh(f"{name}.scsr")
            procs.append(self.run(["convert", f"{name}.mtx", f"{name}.scsr"],
                                  traced=traced))
        if self.workload == "sim-cold":
            self.fresh("op.cache")
        self.fresh("op.csv")
        if all(p.failure() is None for p in procs):
            cache = {"sim-cold": "op.cache", "dse-warm": "dse.cache"}.get(
                self.workload)
            procs.append(self.run(self.sweep_args(cache=cache), traced=traced))
        result = {"wall": sum(p.wall for p in procs),
                  "rss_mb": max(p.rss_mb for p in procs),
                  "spans": [p.spans for p in procs], "traced": traced}
        why = next((w for w in (p.failure() for p in procs) if w), None)
        if why is None and self.workload == "ingest-shard" and not \
                self.expect_bytes(self.work / f"{self.mtx[0]}.scsr",
                                  self.scsr_digest[self.mtx[0]], "op .scsr"):
            why = "converted .scsr differs from the reference"
        if why is None and not self.expect_bytes(
                self.work / "op.csv", self.ref_digest,
                ("traced" if traced else "CLI") + " op CSV"):
            why = "CSV differs from the reference"
        if why is not None:
            self.failures.append(why)
            log(f"op {self.attempted} failed: {why}")
            result["failure"] = why
        return result

    def loop(self):
        """Closed loop for --seconds; traced runs alternate traced and
        untraced ops so both see the same machine state."""
        ops = []
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            ops.append(self.op(traced=self.trace and len(ops) % 2 == 0))
        return ops

    # --- metrics -------------------------------------------------------

    def end_to_end(self, ops, setup_walls):
        good = [o for o in ops if "failure" not in o]
        # With no successful op, the failed ops' times are the only
        # (lower-bound) latencies there are.
        walls = [o["wall"] for o in good or ops]
        label, tail = tail_percentile(walls)
        busy = sum(o["wall"] for o in good)
        failed_share = len(self.failures) / self.attempted
        log(f"{len(good)} of {self.attempted} ops ok (failed_share "
            f"{failed_share:.4f}); sweep_s_tail is {label} of {len(walls)} "
            "ops; sim_cycles_total and dram_mb_total are model outputs, "
            "not validated against hardware")
        return {
            "sweep_s_p50": (statistics.median(walls), "s"),
            "sweep_s_tail": (tail, "s"),
            "points_per_s": (ratio(self.rows * len(good), busy), "1/s"),
            "sim_mcycles_per_s": (ratio(self.cycles * len(good), busy) / 1e6,
                                  "Mcycles/s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (statistics.median(o["rss_mb"] for o in good or ops),
                            "MB"),
            "ok_share": (1.0 - failed_share, "ratio"),
            "sim_cycles_total": (self.cycles, "cycles"),
            "dram_mb_total": (self.dram / 1e6, "MB"),
        }

    def per_layer(self, ops, setup_spans):
        traced = [o for o in ops if o["traced"] and "failure" not in o]
        plain = [o["wall"] for o in ops
                 if not o["traced"] and "failure" not in o]
        per_op = [layer_metrics(o["spans"], o["wall"]) for o in traced]
        if self.workload != "ingest-shard":
            # Converts happen in set-up here, so the matrix layer's
            # convert figures come from the set-up reps.
            setups = [layer_metrics(rep, None) for rep in setup_spans]
            for m in per_op:
                for key in ("matrix.convert_s", "matrix.convert_mb_per_s"):
                    m[key] = statistics.median(s[key] for s in setups)
        metrics = {}
        for key, unit in LAYER_UNITS.items():
            values = [m.get(key, 0.0) for m in per_op]
            metrics[key] = (statistics.median(values or [0.0]), unit)
        overhead = (statistics.median(o["wall"] for o in traced) -
                    statistics.median(plain)) if traced and plain else 0.0
        metrics["trace.overhead_s"] = (overhead, "s")
        log(f"traced {len(traced)} ops, untraced {len(plain)}; tracing "
            f"overhead {overhead:+.6f} s on sweep_s_p50; unattributed "
            f"{metrics['unattributed_s'][0]:.6f} s per op")
        return metrics


LAYER_UNITS = {
    "cli.grid_parse_s": "s", "cli.csv_write_s": "s", "cli.other_s": "s",
    "matrix.convert_s": "s", "matrix.convert_mb_per_s": "MB/s",
    "matrix.scsr_open_s": "s", "matrix.materialize_s": "s",
    "dse.stats_s": "s", "dse.stats_hit_share": "ratio",
    "dse.surrogate_s": "s", "dse.surrogate_points_per_s": "1/s",
    "dse.pareto_s": "s", "dse.survivor_share": "ratio",
    "dse.surrogate_cycles_err": "ratio", "dse.surrogate_bytes_err": "ratio",
    "cache.load_s": "s", "cache.lookup_s": "s", "cache.hit_share": "ratio",
    "cache.insert_s": "s", "cache.save_s": "s", "cache.saves": "count",
    "cache.bytes_written": "bytes",
    "driver.run_s": "s", "exec.run_s": "s", "exec.task_busy_s": "s",
    "exec.task_wait_s": "s", "exec.core_utilization": "ratio",
    "exec.tail_s": "s",
    "shard.busy_s_max": "s", "shard.max_cycles": "cycles",
    "shard.stitch_cycles": "cycles", "shard.nnz_imbalance": "ratio",
    "core.leaves_s": "s", "core.plan_s": "s", "core.rounds_s": "s",
    "core.convert_s": "s", "core.host_ns_per_cycle": "ns",
    "row_prefetcher.hit_rate": "ratio",
    **{key: "bytes" if key.startswith("dram.") else
       "rounds" if key == "plan.rounds" else
       "elements" if key.endswith("elements_streamed") else
       "count" if key.endswith("evictions") or key.endswith("pushes") else
       "cycles" for key in MODEL_COUNTS},
    "unattributed_s": "s",
}


def read_spans(path):
    spans, counts = [], {}
    for line in path.read_text().splitlines():
        f = line.split("\t")
        if f[0] == "span":
            spans.append({"id": int(f[1]), "parent": int(f[2]),
                          "thread": int(f[3]), "name": f[4], "detail": f[5],
                          "start": int(f[6]) / 1e9, "end": int(f[7]) / 1e9})
        elif f[0] == "count":
            counts[f[1]] = float(f[2])
    return spans, counts


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(span_files, wall):
    """Per-layer metrics of one op (one or more traced processes).

    Main-thread spans nest, so each one's self time is its duration
    minus its children's; those self times plus `unattributed_s`
    (process start and exit, outside the root span) sum to the op's
    wall time, which is checked here. Worker-thread spans (tasks,
    operand loads, shard runs) overlap in time and give the exec,
    matrix.materialize and shard figures instead. Counters from the
    processes are summed, except the worst-case ones in MAX_COUNTS."""
    m = defaultdict(float)
    root_total = 0.0
    for path in span_files:
        spans, counts = read_spans(path)
        main = [s for s in spans
                if s["thread"] == 0 and s["name"] not in WORKER_SPANS]
        child_time = defaultdict(float)
        for s in main:
            child_time[s["parent"]] += s["end"] - s["start"]
        self_total = 0.0
        for s in main:
            own = s["end"] - s["start"] - child_time[s["id"]]
            if own < -1e-6:
                raise RuntimeError(f"span {s['name']} overlaps its children")
            m[SELF_METRIC[s["name"]]] += own
            self_total += own
        root = sum(s["end"] - s["start"] for s in main if s["parent"] == 0)
        if abs(self_total - root) > 1e-6:
            raise RuntimeError("span self times do not sum to the root span")
        root_total += root

        tasks = [s for s in spans if s["name"] == "exec.task"]
        for run in (s for s in main if s["name"] == "exec.run"):
            mine = [t for t in tasks if t["parent"] == run["id"]]
            if not mine:
                continue
            threads = counts["exec.threads"]
            busy = sum(t["end"] - t["start"] for t in mine)
            m["exec.task_busy_s"] += busy
            m["exec.task_wait_s"] += sum(t["start"] - run["start"]
                                         for t in mine)
            m["exec.core_utilization"] = ratio(
                busy, threads * (run["end"] - run["start"]))
            last_end = defaultdict(lambda: run["start"])
            for t in mine:
                last_end[t["thread"]] = max(last_end[t["thread"]], t["end"])
            idle_from = (min(last_end.values())
                         if len(last_end) >= threads else run["start"])
            m["exec.tail_s"] += max(last_end.values()) - idle_from
        # Tasks sharing an operand wait for the one that loads it; the
        # longest touch per operand is the load itself.
        loads = defaultdict(float)
        for s in spans:
            if s["name"] == "matrix.materialize":
                loads[s["detail"]] = max(loads[s["detail"]],
                                         s["end"] - s["start"])
        m["matrix.materialize_s"] += sum(loads.values())

        for key, value in counts.items():
            key = key.removeprefix("stat.")
            m[key] = max(m[key], value) if key in MAX_COUNTS else m[key] + value

    for phase in ("leaves", "plan", "rounds", "convert"):
        m[f"core.{phase}_s"] = m[f"profile.{phase}_seconds"]
    m["matrix.convert_mb_per_s"] = ratio(m["matrix.convert_bytes_in"] / 1e6,
                                         m["matrix.convert_s"])
    m["dse.stats_hit_share"] = ratio(
        m["dse.stats_hits"], m["dse.stats_hits"] + m["dse.stats_computes"])
    m["dse.surrogate_points_per_s"] = ratio(m["dse.points"],
                                            m["dse.surrogate_s"])
    m["dse.survivor_share"] = ratio(m["dse.survivors"], m["dse.points"])
    m["cache.hit_share"] = ratio(m["cache.hits"], m["cache.lookups"])
    m["row_prefetcher.hit_rate"] = ratio(
        m["row_prefetcher.hits"],
        m["row_prefetcher.hits"] + m["row_prefetcher.misses"])
    m["core.host_ns_per_cycle"] = ratio(m["core.rounds_s"] * 1e9,
                                        m["core.simulated_cycles"])
    if wall is not None:
        m["unattributed_s"] = wall - root_total
        if m["unattributed_s"] < 0:
            raise RuntimeError(f"trace coverage check failed: spans cover "
                               f"{root_total} s of a {wall} s op")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OP_TIMEOUT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binaries = build()
    if binaries is None:
        return 2
    work = ROOT / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace), *binaries, work)
        bench.write_inputs()
        bench.write_grids()
        setup_walls, setup_spans = bench.setup()
        log(f"setup_s reps: {', '.join(f'{w:.4f}' for w in setup_walls)}")
        if not bench.check():
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        ops = bench.loop()
        if args.trace:
            metrics = bench.per_layer(ops, setup_spans)
        else:
            metrics = bench.end_to_end(ops, setup_walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in sorted(set(bench.failures)):
        log(f"failure reason: {reason} "
            f"(x{bench.failures.count(reason)})")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
