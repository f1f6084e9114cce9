"""The benchmark's workloads, as plain data.

Everything here is a function of the workload seed only; the program
receives the generated workload (a category-H application mix and the
simulator seed), never the benchmark's own seed logic.  This module
imports nothing from ``repro`` so the parent process stays light.
"""

from __future__ import annotations

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Held-out seed: never used while writing a change, so a claim made on
#: DEFAULT_SEED (or any tuning seed) can be rechecked on it.
HOLDOUT_SEED = 7919

#: Workload category of every generated mix (the paper's heavy mix).
CATEGORY = "H"

#: Set-up-only processes per run, besides each operation's own set-up
#: sample: set-up is ~0.3 s and import-dominated, so its median needs
#: many samples to hold steady.
SETUP_PROBES = 9

#: Single-simulation workloads.  ``epochs`` x ``epoch`` cycles per run,
#: driven one ``Simulator.run(epoch)`` call per epoch.
RUNS = {
    # The paper's headline configuration on the fast path: the
    # Python-side miss tail and behavior tick dominate host time here.
    "native-8x8-central": {
        "nodes": 64,
        "epoch": 1000,
        "epochs": 100,
        "controller": ["central"],
        "backend": "native",
        "prefix_epochs": 2,
    },
    # 1024 nodes: the C network kernel dominates; construction builds
    # dense route tables and the domain map; every epoch injects the
    # per-domain control burst.  Epoch 100 keeps 100 epochs affordable.
    "native-32x32-hier": {
        "nodes": 1024,
        "epoch": 100,
        "epochs": 100,
        "controller": ["hierarchical", 0, "global"],
        "backend": "native",
        "prefix_epochs": 0,
    },
}

#: The harness workload: a fixed 12-job grid on the numpy reference
#: backend, run cold into a fresh cache and then warm from it.
SWEEPS = {
    "sweep-numpy-cached": {
        "sizes": [16, 64],
        "networks": ["bless", "buffered", "hybrid"],
        "controllers": ["none", "central"],
        "cycles": 1000,
        "epoch": 250,
        "workers": 2,
        # The grid point replayed inline for the traffic-layer timers.
        "replay": {"nodes": 64, "network": "bless", "controller": "central"},
    },
}

WORKLOADS = (*RUNS, *SWEEPS)


def plan(workload: str) -> dict:
    """A fresh copy of the named workload's plan, tagged with its kind."""
    common = {"setup_probes": SETUP_PROBES}
    if workload in RUNS:
        return {"kind": "run", **common, **RUNS[workload]}
    if workload in SWEEPS:
        return {"kind": "sweep", **common, **SWEEPS[workload]}
    raise KeyError(workload)


def tiny(plan_: dict) -> dict:
    """The same workload shrunk to seconds, for the self-test."""
    small = dict(plan_, setup_probes=1)
    if small["kind"] == "run":
        small["epoch"] = 50
        small["epochs"] = 4
        small["prefix_epochs"] = min(small["prefix_epochs"], 2)
    else:
        small["sizes"] = [16]
        small["networks"] = ["bless", "hybrid"]
        small["cycles"] = 200
        small["epoch"] = 100
        small["replay"] = {"nodes": 16, "network": "bless",
                           "controller": "central"}
    return small
