"""Host-time benchmark of the repro simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload native-8x8-central --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Every measured operation runs in a fresh interpreter
(``perfbench/child.py``) that calls the program's public API, so set-up
time includes ``import repro`` and the native library load as a user
pays them.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and prints the per-layer
metrics, then writes the spans as Chrome trace-event JSON under
``.perfbench_out/``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when any correctness check failed and 2 when the repository is not
there to measure.

Host times are reported in reference seconds: each operation's times
are scaled by how fast a fixed loop ran on the host meanwhile (see
HostSpeed), so the host's own speed drift does not swamp the result.

Only host time is scored.  Simulated statistics are checked instead:
each workload's result digest must repeat across its operations, the
8x8 prefix must digest the same on the numpy and native backends, flit
and control-flit accounting must balance, and the warm sweep must be
served entirely from the cold sweep's cache.  The model itself is
unvalidated against hardware; accuracy against the paper lives in
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from time import perf_counter

from spans import Spans, write_chrome_trace
from workloads import DEFAULT_SEED, WORKLOADS, plan, tiny

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: A child that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150

#: Host-speed calibration (see HostSpeed): iterations of the reference
#: loop, how often it is timed, and the loop time that defines one
#: reference second (about this loop's time on the host the benchmark
#: was written on, so reference and wall seconds are of similar size).
CAL_LOOPS = 20_000
CAL_PERIOD_S = 0.05
CAL_REF_S = 0.00125

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PHASES = ("behavior", "cores", "memory", "network", "ejection")
TRAFFIC = ("sample_gap", "locality_sample", "tick")

LAYER_UNITS = {
    "native.load_ms": "ms",
    "sim.construct_ms": "ms",
    "topology.build_ms": "ms",
    **{f"phase.{p}_us": "us" for p in PHASES},
    "phase.epoch_ms": "ms",
    **{f"traffic.{t}_us": "us" for t in TRAFFIC},
    "network.ns_per_hop": "ns",
    "network.flit_hops": "count",
    "network.productive_hop_ratio": "ratio",
    "control.flits_dropped_ratio": "ratio",
    "results.serialize_ms": "ms",
    "results.deserialize_ms": "ms",
    "harness.spec_hash_us": "us",
    "harness.cache_put_ms": "ms",
    "harness.cache_get_ms": "ms",
    "harness.cache_hit_ratio": "ratio",
    "harness.job_s_p50": "s",
    "harness.dispatch_overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# Child processes and bookkeeping
# ----------------------------------------------------------------------
def _reference_loop() -> float:
    """Thread CPU seconds of a fixed pure-Python loop."""
    start = time.thread_time()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.thread_time() - start


class HostSpeed:
    """Measures the host's speed while operations run.

    On a shared host the CPU's speed drifts by tens of percent over
    minutes, more than the changes the benchmark must resolve.  A
    thread times a fixed loop every CAL_PERIOD_S (in its own CPU time,
    so waiting for a core does not count), and every host time an
    operation reports is scaled to reference seconds: multiplied by
    CAL_REF_S / (the loop's median time during that operation).  The
    loop runs on whichever core the measured work leaves free.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(CAL_PERIOD_S):
            self.samples.append((perf_counter(), _reference_loop()))

    def loop_s(self, start: float, end: float) -> float:
        """Median loop time between *start* and *end* (perf_counter)."""
        inside = [cpu for at, cpu in list(self.samples) if start <= at <= end]
        return statistics.median(inside) if inside else _reference_loop()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def to_reference_seconds(out: dict, loop_s: float) -> None:
    """Scale every host time in a child's output (keys ending in _s)."""
    scale = CAL_REF_S / loop_s
    for key, value in out.items():
        if key.endswith("_s"):
            if isinstance(value, dict):
                out[key] = {k: v * scale for k, v in value.items()}
            elif isinstance(value, list):
                out[key] = [v * scale for v in value]
            else:
                out[key] = value * scale
    for job in out.get("jobs", ()):
        job["job_s"] *= scale
    out["loop_s"] = loop_s


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, why: str) -> None:
        """Count one operation; record *why* when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(why)


def call_child(req: dict, spans: Spans, speed: HostSpeed, label: str):
    """Run one child operation; returns (output or None, error).

    The output's host times, and its ``wall_s`` from spawn to exit, are
    in reference seconds (see HostSpeed).  The child gets its own
    session so that, on a timeout, the whole process group (including
    any pool workers) is killed and reaped.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    with spans.span(label) as span_id:
        req = {**req, "span_parent": span_id}
        cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(req)]
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        stdout = stderr = None
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Also reached on SIGTERM (see main): nothing outlives us.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        end = perf_counter()
    if stdout is None:
        return None, f"{label}: timed out after {CHILD_TIMEOUT_S}s"
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"{label}: exit {proc.returncode}: {tail[0]}"
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"{label}: no result line"
    spans.records.extend(out.pop("spans", []))
    out["wall_s"] = end - start
    to_reference_seconds(out, speed.loop_s(start, end))
    return out, None


def quantile(values: list, q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


def fingerprint() -> dict:
    """Where the numbers came from: host, toolchain and code version."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cc = "unavailable"
    try:
        proc = subprocess.run(
            [os.environ.get("CC") or "cc", "--version"],
            capture_output=True, text=True, timeout=30,
        )
        cc = (proc.stdout.splitlines() or ["unknown"])[0]
    except (OSError, subprocess.TimeoutExpired):
        pass
    kernels = os.path.join(ROOT, "src", "repro", "native", "kernels.c")
    with open(kernels, "rb") as handle:
        tag = hashlib.sha256(handle.read()).hexdigest()[:16]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cc": cc,
        "kernels_tag": tag,
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# Driving a workload
# ----------------------------------------------------------------------
def _repeat(child, seconds, modes, setup_probes):
    """Set-up probes, then rounds of operations, within *seconds*.

    A new round starts only when the previous round's duration still
    fits before the deadline, so a run ends near *seconds* instead of
    overshooting by a whole operation.  At least two operations run, so
    the digest can be compared.  Returns (set-up (output, error) pairs,
    [(traced, output or None, error)]).
    """
    deadline = perf_counter() + seconds
    setups = [child("setup", False, "setup") for _ in range(setup_probes)]
    ops = []
    last_round = 0.0
    while len(ops) < 2 or perf_counter() + last_round <= deadline:
        start = perf_counter()
        for trace in modes:
            out, err = child(None, trace, "traced" if trace else "untraced")
            ops.append((trace, out, err))
        last_round = perf_counter() - start
    return setups, ops


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 plan_: dict | None = None) -> tuple[dict, Ops, dict]:
    """Measure one workload; returns (metrics, operations, context).

    An untimed warm-up operation (and, for the 8x8 run, the untimed
    numpy/native prefix) comes first, so the .so is built and bytecode
    compiled before anything is timed.
    """
    plan_ = plan_ or plan(name)
    kind = plan_["kind"]
    ops = Ops()
    spans = Spans(traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = {"load_before": os.getloadavg()}
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    speed = HostSpeed()

    def child(mode, trace, label, **extra):
        req = {"plan": plan_, "seed": seed, "scratch": scratch,
               "mode": mode or kind, "traced": trace, **extra}
        return call_child(req, spans, speed, label)

    try:
        with spans.span(f"workload {name}"):
            out, err = child(None, False, "warmup", plan=tiny(plan_))
            ops.check(out is not None, f"warm-up: {err}")
            if plan_.get("prefix_epochs"):
                out, err = child("prefix", False, "prefix numpy/native")
                ops.check(
                    out is not None and out["numpy"] == out["native"],
                    err or f"prefix digest differs: numpy {out['numpy']} "
                    f"native {out['native']}")
                ctx["prefix"] = out
            setups, results = _repeat(
                child, seconds, (False, True) if traced else (False,),
                0 if traced else plan_["setup_probes"])
    finally:
        speed.close()
        shutil.rmtree(scratch, ignore_errors=True)
    ctx["load_after"] = os.getloadavg()
    ctx["loop_ms"] = statistics.median(
        cpu for _, cpu in speed.samples or [(0, _reference_loop())]) * 1e3
    ctx["loaded_at_start"] = ctx["load_before"][0] > (os.cpu_count() or 1)
    ctx["spans"] = spans.records
    for out, err in setups:
        ops.check(out is not None, f"setup: {err}")
    judge, metrics = ((judge_sweeps, sweep_metrics) if kind == "sweep"
                      else (judge_runs, run_metrics))
    ctx["digest"] = judge(results, ops)
    setup_s = [out["setup_s"] for out, _ in setups if out]
    plain = [out for trace, out, _ in results if out and not trace]
    tr = [out for trace, out, _ in results if out and trace]
    ctx["samples"] = {"operations": len(plain), "traced": len(tr),
                      "setup": len(setup_s) + len(plain)}
    if not plain or (traced and not tr):
        return {}, ops, ctx
    return metrics(setup_s, plain, tr, ctx), ops, ctx


def _med(rows, key, scale=1.0):
    return statistics.median(r[key] for r in rows) * scale


def _rate(rows, work, seconds) -> float:
    """Pooled throughput: all the work over all the time it took.

    Averages the host's speed over the whole measured window, which on a
    shared host is steadier than the median of a few per-run rates.
    """
    return sum(r[work] for r in rows) / sum(r[seconds] for r in rows)


def _shares(phase_s: dict) -> dict:
    total = sum(phase_s.values())
    return {p: round(s / total, 3) for p, s in phase_s.items()}


def _network_counts(rows) -> dict:
    """Network and control-plane counts; simulated, so equal in every row."""
    first = rows[0]
    return {
        "network.ns_per_hop": statistics.median(
            r["phase_s"]["network"] * 1e9 / r["flit_hops"] for r in rows),
        "network.flit_hops": first["flit_hops"],
        "network.productive_hop_ratio":
            1.0 - first["deflections"] / first["flit_hops"],
        "control.flits_dropped_ratio": (
            first["control_dropped"] / first["control_attempted"]
            if first["control_attempted"] else 0.0),
    }


# ----------------------------------------------------------------------
# Run workloads
# ----------------------------------------------------------------------
def judge_runs(results, ops: Ops):
    """Count each run once: it fails on an error, broken flit or
    control-flit accounting, or a digest other than the first run's.
    Returns the reference digest."""
    reference = next((out["digest"] for _, out, _ in results if out), None)
    for n, (_, out, err) in enumerate(results):
        if out is None:
            ops.check(False, err)
            continue
        why = []
        if not out["flit_conservation_ok"]:
            why.append("flit conservation broken")
        if not out["control_conservation_ok"]:
            why.append("control-flit accounting broken")
        if out["digest"] != reference:
            why.append(f"digest {out['digest'][:12]} != {reference[:12]}")
        ops.check(not why, f"run {n}: " + "; ".join(why))
    return reference


def run_metrics(setup_s, reps, tr, ctx) -> dict:
    """End-to-end metrics, or per-layer ones when traced runs exist."""
    ctx["samples"]["epochs"] = sum(len(r["epoch_s"]) for r in reps)
    if not tr:
        epochs_ms = [s * 1e3 for r in reps for s in r["epoch_s"]]
        return {
            "setup_s": statistics.median(setup_s + [r["setup_s"] for r in reps]),
            "wall_s": _med(reps, "wall_s"),
            "sim_cycles_per_s": _rate(reps, "cycles", "simulate_s"),
            "epoch_ms_p50": statistics.median(epochs_ms),
            "epoch_ms_p90": quantile(epochs_ms, 90),
            "jobs_per_s": len(reps) / sum(r["wall_s"] for r in reps),
            "peak_rss_mb": _med(reps, "peak_rss_mb"),
        }

    def per_cycle_us(source, key):
        return statistics.median(r[source][key] / r["cycles"] * 1e6
                                 for r in tr)

    ctx["phase_shares"] = _shares(tr[0]["phase_s"])
    return {
        "native.load_ms": _med(reps + tr, "native_load_s", 1e3),
        "sim.construct_ms": _med(reps + tr, "construct_s", 1e3),
        "topology.build_ms": _med(tr, "topology_build_s", 1e3),
        **{f"phase.{p}_us": per_cycle_us("phase_s", p) for p in PHASES},
        "phase.epoch_ms": statistics.median(
            r["phase_s"]["epoch"] / len(r["epoch_s"]) * 1e3 for r in tr),
        **{f"traffic.{t}_us": per_cycle_us("traffic_s", t) for t in TRAFFIC},
        "results.serialize_ms": _med(tr, "serialize_s", 1e3),
        "results.deserialize_ms": _med(tr, "deserialize_s", 1e3),
        "harness.spec_hash_us": _med(tr, "spec_hash_s", 1e6),
        "harness.cache_put_ms": _med(tr, "cache_put_s", 1e3),
        "harness.cache_get_ms": _med(tr, "cache_get_s", 1e3),
        "harness.cache_hit_ratio": statistics.median(
            r["cache_hits"] / (r["cache_hits"] + r["cache_misses"])
            for r in tr),
        "harness.job_s_p50": _med(reps, "simulate_s"),
        "harness.dispatch_overhead_s": statistics.median(
            r["wall_s"] - r["simulate_s"] for r in reps),
        "trace.overhead_ratio": _rate(tr, "cycles", "simulate_s")
        / _rate(reps, "cycles", "simulate_s"),
        **_network_counts(tr),
    }


# ----------------------------------------------------------------------
# The sweep workload
# ----------------------------------------------------------------------
def judge_sweeps(results, ops: Ops):
    """Count each cold job, warm job and inline replay once.

    A cold job fails on a failed JobRecord, broken flit accounting or a
    digest other than the first pass's; a warm job fails unless it was
    a cache hit equal to its cold result.  Returns the grid digest.
    """
    reference = next((out["jobs"] for _, out, _ in results if out), [])
    reference = [job["digest"] for job in reference]
    for n, (_, out, err) in enumerate(results):
        if out is None:
            ops.check(False, err)
            continue
        for job, want in zip(out["jobs"], reference):
            where = f"pass {n} {job['label']}"
            ops.check(
                job["error"] is None and job["flit_conservation_ok"]
                and job["digest"] == want,
                f"{where}: cold job failed or differs ({job['error']})")
            ops.check(
                job["warm_cached"] and job["warm_digest"] == job["digest"],
                f"{where}: warm result not an equal cache hit")
        if "replay_digest" in out:
            ops.check(
                out["replay_digest"] == reference[out["replay_index"]],
                f"pass {n}: inline replay differs from its sweep job")
    return hashlib.sha256("".join(reference).encode()).hexdigest()


def _jobs(passes) -> list:
    return [job for sweep in passes for job in sweep["jobs"]]


def sweep_metrics(setup_s, passes, tr, ctx) -> dict:
    """End-to-end metrics, or per-layer ones when traced passes exist."""
    ctx["samples"]["jobs"] = len(_jobs(passes))
    if not tr:
        epochs_ms = [j["job_s"] / j["epochs"] * 1e3 for j in _jobs(passes)]
        return {
            "setup_s": statistics.median(
                setup_s + [p["setup_s"] for p in passes]),
            "wall_s": _med(passes, "cold_wall_s"),
            "sim_cycles_per_s": _rate(_jobs(passes), "cycles", "job_s"),
            "epoch_ms_p50": statistics.median(epochs_ms),
            "epoch_ms_p90": quantile(epochs_ms, 90),
            "jobs_per_s": len(_jobs(passes))
            / sum(p["cold_wall_s"] for p in passes),
            "peak_rss_mb": _med(passes, "peak_rss_mb"),
        }

    def grid_us(phase):
        return statistics.median(
            r["phase_s"][phase] / sum(j["cycles"] for j in r["jobs"]) * 1e6
            for r in tr)

    ctx["phase_shares"] = _shares(tr[0]["phase_s"])
    return {
        "native.load_ms": _med(passes + tr, "native_load_s", 1e3),
        "sim.construct_ms": _med(tr, "construct_s", 1e3),
        "topology.build_ms": _med(tr, "topology_build_s", 1e3),
        **{f"phase.{p}_us": grid_us(p) for p in PHASES},
        "phase.epoch_ms": statistics.median(
            r["phase_s"]["epoch"] / sum(j["epochs"] for j in r["jobs"]) * 1e3
            for r in tr),
        **{f"traffic.{t}_us": statistics.median(
            r["traffic_s"][t] / r["replay_cycles"] * 1e6 for r in tr)
           for t in TRAFFIC},
        "results.serialize_ms": _med(tr, "serialize_s", 1e3),
        "results.deserialize_ms": _med(tr, "deserialize_s", 1e3),
        "harness.spec_hash_us": _med(tr, "spec_hash_s", 1e6),
        "harness.cache_put_ms": _med(tr, "cache_put_s", 1e3),
        "harness.cache_get_ms": _med(tr, "cache_get_s", 1e3),
        "harness.cache_hit_ratio": _med(passes + tr, "warm_hit_ratio"),
        "harness.job_s_p50": _med(_jobs(passes), "job_s"),
        "harness.dispatch_overhead_s": statistics.median(
            p["cold_wall_s"] - sum(j["job_s"] for j in p["jobs"])
            / p["workers"] for p in passes),
        "trace.overhead_ratio": _rate(_jobs(tr), "cycles", "job_s")
        / _rate(_jobs(passes), "cycles", "job_s"),
        **_network_counts(tr),
    }


def emit(name, seed, traced, metrics, ops, ctx, host) -> dict:
    """Print the human-readable lines and return the result object."""
    units = LAYER_UNITS if traced else E2E_UNITS
    correct = not ops.failures and set(metrics) == set(units)
    print(f"perfbench host {json.dumps(host)}")
    print(f"perfbench load before={list(ctx['load_before'])} "
          f"after={list(ctx['load_after'])} "
          f"loaded_at_start={ctx['loaded_at_start']}")
    print(f"perfbench reference loop {ctx['loop_ms']:.4f} ms median "
          f"(one reference second = {CAL_REF_S * 1e3} ms loops): host "
          "times below are in reference seconds")
    print(f"perfbench {name} seed={seed} trace={int(traced)} "
          f"digest={ctx.get('digest')} samples={json.dumps(ctx['samples'])}")
    if ctx.get("prefix"):
        print(f"perfbench prefix numpy={ctx['prefix']['numpy'][:16]} "
              f"native={ctx['prefix']['native'][:16]}")
    if "phase_shares" in ctx:
        print(f"perfbench phase shares {json.dumps(ctx['phase_shares'])}")
    failed = len(ops.failures)
    print(f"perfbench failed_ops_ratio={failed / max(ops.attempted, 1):.4f} "
          f"({failed}/{ops.attempted})")
    for why in ops.failures:
        print(f"perfbench FAILED {why}")
    return {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items() if key in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself at tiny scale")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so call_child's cleanup kills the
    # running child's process group before we go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "src", "repro", "native", "kernels.c")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"perfbench: no program to measure: {missing[0]} is missing",
              file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    traced = bool(args.trace)
    metrics, ops, ctx = run_workload(args.workload, args.seed, args.seconds,
                                     traced)
    if traced and ctx["spans"]:
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        write_chrome_trace(path, ctx["spans"])
        print(f"perfbench spans written to {os.path.relpath(path, ROOT)}")
    result = emit(args.workload, args.seed, traced, metrics, ops, ctx,
                  fingerprint())
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
