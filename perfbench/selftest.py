"""Self-test of the benchmark at tiny scale (``run.py --self-test``).

Checks, in about a minute:

1. BENCHMARK.json and interactions.json name exactly the workloads and
   metrics the benchmark measures, and every run prints each metric
   with the unit BENCHMARK.json gives it (default and holdout seed).
2. The judges count failures: a doctored digest, a broken flit or
   control-flit balance, or a warm sweep job that missed the cache
   each raise the failed-operation count.
3. Driving ``Simulator.run(epoch)`` once per epoch gives the same
   result digest as one long ``run_job`` on both backends, which is
   what lets the runs time each epoch.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run
from spans import write_chrome_trace
from workloads import DEFAULT_SEED, HOLDOUT_SEED, RUNS, WORKLOADS, plan, tiny


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"self-test {'ok  ' if ok else 'FAIL'} {what}")
        self.failed += not ok


def _load(name: str) -> dict:
    with open(os.path.join(run.ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


def check_declarations(checks: Checks) -> dict:
    bench = _load("BENCHMARK.json")
    inter = _load(os.path.join("perfbench", "interactions.json"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    checks.expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
                  "BENCHMARK.json workloads match workloads.py")
    checks.expect(e2e == run.E2E_UNITS, "end-to-end names and units match")
    checks.expect(layer == run.LAYER_UNITS, "per-layer names and units match")
    checks.expect(set(inter["end_to_end"]) == set(e2e),
                  "interactions.json defines every end-to-end metric")
    checks.expect(set(inter["per_layer"]) == set(layer),
                  "interactions.json maps every per-layer metric")
    checks.expect(all(
        set(entry["moves"]) <= set(e2e) and set(entry["workloads"])
        <= set(WORKLOADS) for entry in inter["per_layer"].values()),
        "interaction map names only declared metrics and workloads")
    return {False: e2e, True: layer}


def check_outputs(checks: Checks, units: dict) -> None:
    """Run every workload tiny on both seeds; export the traced spans."""
    for seed, modes in ((DEFAULT_SEED, (False, True)), (HOLDOUT_SEED, (False,))):
        for name in WORKLOADS:
            for traced in modes:
                metrics, ops, ctx = run.run_workload(
                    name, seed, 0, traced, tiny(plan(name)))
                result = run.emit(name, seed, traced, metrics, ops, ctx, {})
                line = json.loads(json.dumps(result, allow_nan=False))
                printed = {k: v["unit"] for k, v in line["metrics"].items()}
                checks.expect(
                    line["correct"] and line["failed"] == 0
                    and printed == units[traced],
                    f"{name} seed={seed} trace={int(traced)}: every metric "
                    "printed with its unit, no failed operation")
                if traced:
                    check_trace_export(checks, name, ctx["spans"])


def check_trace_export(checks: Checks, name: str, records: list) -> None:
    path = os.path.join(run.OUT_DIR, f"self-test-{name}.json")
    write_chrome_trace(path, records)
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    os.unlink(path)
    ids = {e["args"]["id"] for e in events}
    checks.expect(
        any(e["pid"] != os.getpid() for e in events)
        and all(e["dur"] >= 0 and e["args"]["parent"] in ids | {None}
                for e in events),
        f"{name}: {len(events)} spans from parent and children export "
        "with resolvable parents")


def _child(name: str, traced: bool = False):
    plan_ = tiny(plan(name))
    mode = "sweep" if plan_["kind"] == "sweep" else "run"
    speed = run.HostSpeed()
    try:
        out, err = run.call_child(
            {"plan": plan_, "seed": DEFAULT_SEED, "scratch": run.OUT_DIR,
             "mode": mode, "traced": traced}, run.Spans(False), speed,
            "self-test")
    finally:
        speed.close()
    if out is None:
        raise RuntimeError(err)
    return (traced, out, None)


def _failed(judge, results) -> int:
    ops = run.Ops()
    judge(results, ops)
    return len(ops.failures)


def check_judges(checks: Checks) -> None:
    rep = _child("native-8x8-central")
    clean = [rep, copy.deepcopy(rep)]
    checks.expect(_failed(run.judge_runs, clean) == 0, "clean runs pass")
    for key, value, what in (
        ("digest", "0" * 64, "doctored digest"),
        ("flit_conservation_ok", False, "broken flit conservation"),
        ("control_conservation_ok", False, "broken control-flit accounting"),
    ):
        bad = copy.deepcopy(clean)
        bad[1][1][key] = value
        checks.expect(_failed(run.judge_runs, bad) == 1,
                      f"{what} counts as a failed run")
    dead = [rep, (False, None, "child: exit 1: boom")]
    checks.expect(_failed(run.judge_runs, dead) == 1,
                  "a crashed run counts as failed")

    sweep = _child("sweep-numpy-cached", traced=True)
    clean = [sweep, copy.deepcopy(sweep)]
    checks.expect(_failed(run.judge_sweeps, clean) == 0, "clean sweeps pass")
    for key, value, what in (
        ("digest", "0" * 64, "doctored job digest"),
        ("warm_cached", False, "warm job missing the cache"),
        ("error", "GuardrailError: boom", "failed JobRecord"),
    ):
        bad = copy.deepcopy(clean)
        bad[1][1]["jobs"][0][key] = value
        checks.expect(_failed(run.judge_sweeps, bad) >= 1,
                      f"{what} counts as a failed job")


def check_resumed_runs(checks: Checks) -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from child import result_digest, run_spec, sim_config
    from repro import Simulator, run_job

    for name in RUNS:
        plan_ = tiny(plan(name))
        cycles = plan_["epoch"] * plan_["epochs"]
        for backend in ("numpy", "native"):
            spec = run_spec(plan_, DEFAULT_SEED, backend, cycles)
            sim = Simulator(sim_config(spec))
            for _ in range(plan_["epochs"]):
                sim.run(plan_["epoch"])
            checks.expect(
                result_digest(sim.result()) == result_digest(run_job(spec)),
                f"{name} {backend}: run(epoch) x {plan_['epochs']} "
                "equals one long run_job")


def self_test() -> int:
    checks = Checks()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    units = check_declarations(checks)
    check_outputs(checks, units)
    check_judges(checks)
    check_resumed_runs(checks)
    print(f"self-test {'passed' if not checks.failed else 'FAILED'}: "
          f"{checks.failed} failed check(s)")
    return 1 if checks.failed else 0
