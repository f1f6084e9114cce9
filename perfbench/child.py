"""One measured operation, run in a fresh interpreter.

Usage::

    python3 perfbench/child.py '<request json>'

The request names a mode (``setup``, ``run``, ``prefix``, ``sweep``),
a workload plan from ``perfbench/workloads.py``, the workload seed and
whether the operation is traced.  The child times its calls into the
program's public API and prints one JSON object on its last stdout
line: timings, the result digest and the correctness checks.  Traced
operations also return their spans and the per-layer counts.

Setup time starts just before ``import repro``, so every sample pays
the import, the native library load and construction as a user's fresh
``python -m repro`` process would.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

from spans import Spans
from workloads import CATEGORY

#: Repetitions of the content-hash loop behind harness.spec_hash_us.
HASH_ROUNDS = 50


def result_digest(result) -> str:
    """sha256 of the strict-JSON result with host-time counters removed.

    ``perf`` only exists on profiled runs and carries wall-clock times;
    every other field is simulated state, so traced and untraced runs of
    one workload must share a digest.
    """
    data = result.to_dict()
    data["perf"] = None
    text = json.dumps(data, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sim_config(spec, **overrides):
    """The SimulationConfig that ``run_job(spec)`` would build."""
    from repro import SimulationConfig
    from repro.harness.jobs import build_controller

    kw = dict(spec.config)
    kw.update(overrides)
    return SimulationConfig(
        spec.workload,
        seed=spec.seed,
        epoch=spec.epoch,
        controller=build_controller(spec),
        network=spec.network,
        topology=spec.topology,
        locality=spec.locality,
        locality_param=spec.locality_param,
        **kw,
    )


def run_spec(plan: dict, seed: int, backend: str, cycles: int):
    """The harness description of one run workload."""
    import numpy as np
    from repro import JobSpec, make_category_workload

    workload = make_category_workload(
        CATEGORY, plan["nodes"], np.random.default_rng(seed)
    )
    return JobSpec.for_workload(
        workload,
        cycles,
        seed=seed,
        epoch=plan["epoch"],
        controller=tuple(plan["controller"]),
        network="bless",
        config={"backend": backend, "model_control_traffic": True},
    )


def sweep_specs(plan: dict, seed: int, profile: bool) -> list:
    """The sweep grid: sizes x networks x controllers, one spec each."""
    import numpy as np
    from repro import JobSpec, make_category_workload

    specs = []
    for size in plan["sizes"]:
        workload = make_category_workload(
            CATEGORY, size, np.random.default_rng(seed)
        )
        for network in plan["networks"]:
            for controller in plan["controllers"]:
                config = {}
                if controller != "none":
                    config["model_control_traffic"] = True
                if profile:
                    config["profile"] = True
                specs.append(JobSpec.for_workload(
                    workload,
                    plan["cycles"],
                    seed=seed,
                    epoch=plan["epoch"],
                    controller=(controller,),
                    network=network,
                    config=config,
                ))
    return specs


def wrap_traffic(sim) -> dict:
    """Time the traffic layer's public calls on this simulator's instances.

    Instance attributes shadow the class methods, so only this run is
    affected.  Returns the dict the wrappers accumulate seconds into.
    """
    seconds = {"sample_gap": 0.0, "locality_sample": 0.0, "tick": 0.0}

    def timed(obj, method, key):
        fn = getattr(obj, method)

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start

        setattr(obj, method, wrapper)

    timed(sim.behavior, "sample_gap", "sample_gap")
    timed(sim.behavior, "tick", "tick")
    timed(sim.locality, "sample", "locality_sample")
    return seconds


def _cache_round_trip(scratch: str, pairs: list) -> dict:
    """Put every (spec, result) into a fresh cache, then get it back."""
    from repro import ResultCache

    root = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        cache = ResultCache(root)
        put_s, get_s = [], []
        for spec, result in pairs:
            start = perf_counter()
            cache.put(spec, result)
            put_s.append(perf_counter() - start)
        for spec, _ in pairs:
            start = perf_counter()
            cache.get(spec)
            get_s.append(perf_counter() - start)
        return {"cache_put_s": statistics.median(put_s),
                "cache_get_s": statistics.median(get_s),
                "cache_hits": cache.hits, "cache_misses": cache.misses}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _spec_hash_s(specs: list) -> float:
    start = perf_counter()
    for _ in range(HASH_ROUNDS):
        for spec in specs:
            spec.content_hash()
    return (perf_counter() - start) / (HASH_ROUNDS * len(specs))


def _serde(results: list) -> dict:
    """Median to_dict+dumps and loads+from_dict time per result."""
    from repro import SimulationResult

    ser, de = [], []
    for result in results:
        start = perf_counter()
        text = json.dumps(result.to_dict(), allow_nan=False)
        ser.append(perf_counter() - start)
        start = perf_counter()
        SimulationResult.from_dict(json.loads(text))
        de.append(perf_counter() - start)
    return {"serialize_s": statistics.median(ser),
            "deserialize_s": statistics.median(de)}


def op_run(req: dict) -> dict:
    """Set up one run workload and, unless mode is ``setup``, run it."""
    plan, seed, traced = req["plan"], req["seed"], req["traced"]
    spans = Spans(traced, req.get("span_parent"))
    out: dict = {}
    cycles = plan["epoch"] * plan["epochs"]
    t0 = perf_counter()
    with spans.span("import repro"):
        import repro  # noqa: F401
        from repro import Simulator
        from repro.native import load_library
        from repro.topology.registry import build_topology
    with spans.span("repro.native.load_library"):
        start = perf_counter()
        load_library()
        out["native_load_s"] = perf_counter() - start
    with spans.span("repro.traffic.make_category_workload"):
        spec = run_spec(plan, seed, plan["backend"], cycles)
    config = sim_config(spec, profile=traced)
    if traced:
        with spans.span("repro.topology.build_topology"):
            start = perf_counter()
            build_topology(config)
            out["topology_build_s"] = perf_counter() - start
    with spans.span("repro.sim.Simulator"):
        start = perf_counter()
        sim = Simulator(config)
        out["construct_s"] = perf_counter() - start
    out["setup_s"] = perf_counter() - t0
    if req["mode"] == "setup":
        return out

    traffic = wrap_traffic(sim) if traced else None
    epoch_s = []
    with spans.span("simulate"):
        for _ in range(plan["epochs"]):
            with spans.span("repro.sim.Simulator.run"):
                start = perf_counter()
                sim.run(plan["epoch"])
                epoch_s.append(perf_counter() - start)
    with spans.span("repro.sim.Simulator.result"):
        result = sim.result()
    with spans.span("SimulationResult.to_dict+json.dumps"):
        start = perf_counter()
        text = json.dumps(result.to_dict(), allow_nan=False)
        out["serialize_s"] = perf_counter() - start
    stats = sim.network.stats
    out.update(
        cycles=result.cycles,
        epoch_s=epoch_s,
        simulate_s=sum(epoch_s),
        digest=result_digest(result),
        flit_conservation_ok=bool(result.flit_conservation_ok),
        control_conservation_ok=bool(
            stats.control_flits_attempted
            == stats.control_flits_sent + stats.control_flits_dropped
            and sim.control_flits_sent == stats.control_flits_sent
        ),
        peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF),
    )
    if traced:
        from repro import SimulationResult

        with spans.span("SimulationResult.from_dict"):
            start = perf_counter()
            SimulationResult.from_dict(json.loads(text))
            out["deserialize_s"] = perf_counter() - start
        with spans.span("repro.harness.JobSpec.content_hash"):
            out["spec_hash_s"] = _spec_hash_s([spec])
        with spans.span("repro.harness.ResultCache"):
            out.update(_cache_round_trip(req["scratch"], [(spec, result)]))
        out.update(
            phase_s=dict(result.perf.phase_seconds),
            traffic_s=traffic,
            flit_hops=stats.flit_hops,
            deflections=stats.deflections,
            control_attempted=stats.control_flits_attempted,
            control_dropped=stats.control_flits_dropped,
            spans=spans.records,
        )
    return out


def op_prefix(req: dict) -> dict:
    """Digest of a short prefix of the run on both backends."""
    from repro import run_job

    plan, seed = req["plan"], req["seed"]
    cycles = plan["epoch"] * plan["prefix_epochs"]
    return {
        backend: result_digest(run_job(run_spec(plan, seed, backend, cycles)))
        for backend in ("numpy", "native")
    }


def _grid_counts(specs, results) -> dict:
    """Simulated network and control-plane counts over the grid."""
    from repro.topology.registry import build_topology

    links = {}
    hops = deflections = attempted = dropped = 0
    for spec, result in zip(specs, results):
        if spec.num_nodes not in links:
            links[spec.num_nodes] = build_topology(sim_config(spec)).num_links
        # SimulationResult keeps utilization = hops / (cycles * links);
        # the product is exact in float64 at these magnitudes.
        job_hops = round(
            result.network_utilization * result.cycles * links[spec.num_nodes]
        )
        hops += job_hops
        deflections += round(result.deflection_rate * job_hops)
        sent = result.perf.control_flits_sent
        attempted += sent + result.perf.control_flits_dropped
        dropped += result.perf.control_flits_dropped
    return {"flit_hops": hops, "deflections": deflections,
            "control_attempted": attempted, "control_dropped": dropped}


def _replay(req: dict, specs: list, spans: Spans) -> dict:
    """Rerun one grid point inline, with the traffic-layer timers."""
    from repro import Simulator
    from repro.topology.registry import build_topology

    want = req["plan"]["replay"]
    spec = next(
        s for s in specs
        if s.num_nodes == want["nodes"] and s.network == want["network"]
        and s.controller[0] == want["controller"]
    )
    config = sim_config(spec, profile=False)
    out = {}
    with spans.span("repro.topology.build_topology"):
        start = perf_counter()
        build_topology(config)
        out["topology_build_s"] = perf_counter() - start
    with spans.span("repro.sim.Simulator"):
        start = perf_counter()
        sim = Simulator(config)
        out["construct_s"] = perf_counter() - start
    traffic = wrap_traffic(sim)
    with spans.span("repro.sim.Simulator.run"):
        result = sim.run(spec.cycles)
    out.update(replay_index=specs.index(spec), replay_cycles=result.cycles,
               replay_digest=result_digest(result), traffic_s=traffic)
    return out


def op_sweep(req: dict) -> dict:
    """One sweep pass: cold into a fresh cache, then warm from it."""
    plan, seed, traced = req["plan"], req["seed"], req["traced"]
    spans = Spans(traced, req.get("span_parent"))
    out: dict = {}
    t0 = perf_counter()
    with spans.span("import repro"):
        from repro import ResultCache, run_jobs
        from repro.native import load_library
    with spans.span("repro.harness.JobSpec"):
        specs = sweep_specs(plan, seed, profile=traced)
    cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=req["scratch"])
    try:
        with spans.span("repro.harness.ResultCache"):
            cache = ResultCache(cache_dir)
        out["setup_s"] = perf_counter() - t0
        with spans.span("repro.native.load_library"):
            start = perf_counter()
            load_library()
            out["native_load_s"] = perf_counter() - start
        if req["mode"] == "setup":
            return out
        workers = min(plan["workers"], os.cpu_count() or 1)
        with spans.span("repro.harness.run_jobs[cold]"):
            start = perf_counter()
            cold = run_jobs(specs, jobs=workers, cache=cache)
            out["cold_wall_s"] = perf_counter() - start
        with spans.span("repro.harness.run_jobs[warm]"):
            warm = run_jobs(specs, jobs=workers, cache=cache)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    jobs = []
    for spec, rec, res, wrec, wres in zip(
        specs, cold.records, cold.results, warm.records, warm.results
    ):
        jobs.append({
            "label": rec.label,
            "error": rec.error or wrec.error,
            "job_s": rec.seconds,
            "cycles": res.cycles if res is not None else 0,
            "epochs": spec.cycles // spec.epoch,
            "digest": result_digest(res) if res is not None else None,
            "warm_digest": result_digest(wres) if wres is not None else None,
            "warm_cached": wrec.cached,
            "flit_conservation_ok": bool(
                res is not None and res.flit_conservation_ok
            ),
        })
    out.update(
        workers=cold.workers,
        jobs=jobs,
        warm_hit_ratio=warm.cache_hits / warm.total,
        peak_rss_mb=max(_peak_rss_mb(resource.RUSAGE_SELF),
                        _peak_rss_mb(resource.RUSAGE_CHILDREN)),
    )
    if traced:
        results = cold.results
        phase_s: dict = {}
        for res in results:
            for name, secs in res.perf.phase_seconds.items():
                phase_s[name] = phase_s.get(name, 0.0) + secs
        out["phase_s"] = phase_s
        out.update(_grid_counts(specs, results))
        with spans.span("repro.harness.JobSpec.content_hash"):
            out["spec_hash_s"] = _spec_hash_s(specs)
        with spans.span("repro.harness.ResultCache"):
            out.update(_cache_round_trip(req["scratch"],
                                         list(zip(specs, results))))
        with spans.span("SimulationResult.to_dict/from_dict"):
            out.update(_serde(results))
        with spans.span("replay"):
            out.update(_replay(req, specs, spans))
        out["spans"] = spans.records
    return out


def main() -> None:
    req = json.loads(sys.argv[1])
    if req["plan"]["kind"] == "sweep":
        out = op_sweep(req)
    elif req["mode"] == "prefix":
        out = op_prefix(req)
    else:
        out = op_run(req)
    print(json.dumps(out, allow_nan=False))


if __name__ == "__main__":
    main()
