"""Compiled hot-path backend: equivalence, gating, ABI and allocation tests.

The native backend (``SimulationConfig.backend = "native"``) must be a
pure accelerator: every supported configuration produces results
bit-identical to the numpy engine, and leaves the simulator's random
generators in the same state, and every unsupported configuration
refuses loudly at construction instead of silently diverging.  The ABI
tests edit a copy of ``kernels.c`` and check that layout drift fails at
load or construction.  The allocation tests pin the zero-allocation
claim: after warm-up, the network phase (and, natively, a whole
segment of cycles) performs no new numpy array allocations.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.control.base import Controller
from repro.guardrails.errors import InvariantViolation
from repro.guardrails.faults import FaultConfig
from repro.native import (
    NativeAbiError,
    NativeBuildError,
    NativeUnsupported,
    build,
    native_available,
)
from repro.observability import PHASES
from repro.sim.simulator import Simulator
from repro.topology.mesh import Mesh2D
from repro.traffic.hotspot import HotspotLocality
from repro.traffic.workloads import make_category_workload

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native backend"
)


def _run(network, backend, nodes=16, cycles=800, seed=7, controller=None,
         splits=None, **kw):
    """The run's result and the final state of its per-cycle generators.

    ``splits`` drives the run as several ``run(cycles, deadline)``
    calls instead of one ``run(cycles)``.
    """
    workload = make_category_workload("H", nodes, np.random.default_rng(seed))
    config = SimulationConfig(
        workload, seed=seed, epoch=200, network=network, backend=backend, **kw
    )
    sim = Simulator(config)
    if controller == "distributed":
        from repro.control.distributed import DistributedController

        sim.controller = DistributedController(sim.network)
    elif controller == "hierarchical":
        from repro.control.central import ControlParams
        from repro.control.hierarchical import HierarchicalController

        sim.controller = HierarchicalController(
            ControlParams(epoch=200), num_domains=4
        )
    for part, deadline in splits or [(cycles, None)]:
        result = sim.run(part, deadline=deadline)
    rngs = {
        name: getattr(sim, attr).bit_generator.state
        for name, attr in (
            ("destinations", "_rng_dest"),
            ("phases", "_rng_phase"),
            ("arbitration", "_rng_arb"),
        )
    }
    return {"result": result.to_dict(), "rngs": rngs}


def _canon(result):
    return json.dumps(result, sort_keys=True, default=str)


EQUIVALENCE_CASES = {
    "bless-oldest": dict(network="bless"),
    "bless-youngest": dict(network="bless", arbitration="youngest_first"),
    "bless-random": dict(network="bless", arbitration="random"),
    "bless-eject-width-2": dict(network="bless", eject_width=2),
    # ejection rounds past a router's first are held back and emitted
    # round-major after the router pass
    "bless-eject-width-3-youngest": dict(
        network="bless", eject_width=3, arbitration="youngest_first"
    ),
    "bless-eject-width-3-random": dict(
        network="bless", eject_width=3, arbitration="random"
    ),
    "bless-eject-width-4-youngest": dict(
        network="bless", eject_width=4, arbitration="youngest_first"
    ),
    "bless-eject-width-4-random": dict(
        network="bless", eject_width=4, arbitration="random"
    ),
    "bless-torus": dict(network="bless", topology="torus"),
    "bless-distributed": dict(network="bless", controller="distributed"),
    "buffered-oldest": dict(network="buffered"),
    "buffered-random": dict(network="buffered", arbitration="random"),
    "buffered-distributed": dict(network="buffered", controller="distributed"),
    "bless-control-traffic": dict(network="bless", model_control_traffic=True),
    "bless-watchdog": dict(
        network="bless", watchdog_window=0, max_flit_age=100_000
    ),
    "bless-exponential": dict(network="bless", locality="exponential"),
    "bless-powerlaw": dict(
        network="bless", locality="powerlaw", locality_param=2.5
    ),
    "buffered-torus-exponential": dict(
        network="buffered", topology="torus", locality="exponential"
    ),
    # a graph topology: the exponential sampler's distance buckets
    "bless-chiplet-exponential": dict(
        network="bless", topology="chiplet", nodes=64, cycles=400,
        locality="exponential",
    ),
    # multi-cycle links wrap the ring's send slot; chiplet routers have
    # eight ports
    "bless-express": dict(
        network="bless", topology="express", nodes=64, cycles=400
    ),
    "bless-chiplet-eject-width-2": dict(
        network="bless", topology="chiplet", nodes=64, cycles=400,
        eject_width=2,
    ),
    "bless-no-phases": dict(network="bless", phase_sigma=0.0),
    "bless-hierarchical-control": dict(
        network="bless", controller="hierarchical", model_control_traffic=True
    ),
    # uneven run() calls under a deadline: native segments end at
    # 256-cycle marks and epoch ends and resume mid-epoch
    "bless-split-deadline": dict(
        network="bless", arbitration="random",
        splits=[(137, 1e9), (300, 1e9), (363, None)],
    ),
}


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_native_matches_numpy(case):
    """Full-result bit-identity between the numpy and native backends,
    down to the final state of every per-cycle random generator (the
    numpy side always runs in one call)."""
    kwargs = dict(EQUIVALENCE_CASES[case])
    native = _run(backend="native", **kwargs)
    kwargs.pop("splits", None)
    assert _canon(_run(backend="numpy", **kwargs)) == _canon(native)


class _EjectionLog(Controller):
    """No throttling; records every cycle's ejected batch, in order."""

    observes_ejections = True

    def __init__(self):
        self.batches = []

    def on_ejected(self, ejected) -> None:
        self.batches.append(
            np.stack([ejected.node, ejected.src, ejected.kind, ejected.seq])
        )


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("eject_width", [1, 4])
def test_native_ejection_batches_match_numpy(eject_width):
    """Each cycle's delivered flits come out in the reference's order:
    round-major, node-ascending within a round (result fields cannot
    see this order, an observing controller can)."""
    def batches(backend):
        workload = make_category_workload("H", 16, np.random.default_rng(5))
        sim = Simulator(SimulationConfig(
            workload, seed=5, epoch=200, backend=backend,
            eject_width=eject_width,
        ))
        sim.controller = _EjectionLog()
        sim.run(600)
        return np.concatenate(sim.controller.batches, axis=1)

    reference = batches("numpy")
    assert reference.shape[1] > 0
    np.testing.assert_array_equal(batches("native"), reference)


@needs_native
@pytest.mark.slow
def test_native_matches_numpy_8x8():
    """The benchmark-sized grid agrees too, not just the small test mesh."""
    kwargs = dict(network="bless", nodes=64, cycles=600)
    assert _canon(_run(backend="numpy", **kwargs)) == _canon(
        _run(backend="native", **kwargs)
    )


@needs_native
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(network="hybrid"),
        dict(network="bless", trace=True),
        dict(network="bless", check_invariants=True),
        dict(network="bless", faults=FaultConfig(link_fault_rate=0.05)),
        dict(network="bless", locality=HotspotLocality(Mesh2D(4, 4))),
    ],
    ids=["hybrid", "trace", "invariants", "faults", "hotspot"],
)
def test_unsupported_configs_refuse(kwargs):
    """Configurations the kernels do not model raise at construction."""
    workload = make_category_workload("H", 16, np.random.default_rng(1))
    config = SimulationConfig(workload, seed=1, backend="native", **kwargs)
    with pytest.raises(NativeUnsupported):
        Simulator(config)


# ----------------------------------------------------------------------
# ABI drift: kernels.c is the only place the layout is written down
# ----------------------------------------------------------------------
@pytest.fixture()
def edit_kernels(tmp_path, monkeypatch):
    """Point the loader at an edited copy of kernels.c.

    Returns ``edit(*(old, new))``, which writes the copy with each
    replacement applied once; the next load compiles that copy.
    """
    original = Path(build._SRC).read_text(encoding="utf-8")
    copy = tmp_path / "kernels.c"
    monkeypatch.setattr(build, "_SRC", str(copy))
    monkeypatch.setattr(build, "_BUILD_DIR", str(tmp_path / "_build"))
    monkeypatch.setattr(build, "_lib", None)

    def edit(*replacements):
        text = original
        for old, new in replacements:
            assert old in text, old
            text = text.replace(old, new, 1)
        copy.write_text(text, encoding="utf-8")

    return edit


def _native_simulator():
    workload = make_category_workload("H", 16, np.random.default_rng(1))
    return Simulator(
        SimulationConfig(workload, seed=1, epoch=200, backend="native")
    )


@needs_native
def test_real_kernels_abi_matches_python():
    """The shipped kernels.c passes the load and construction checks,
    and every slot enum is dense from 0."""
    abi = build.load_library().abi
    for prefix in ("PT_", "CFG_", "CTR_", "FCFG_"):
        indices = sorted(v for k, v in abi.items() if k.startswith(prefix))
        assert indices == list(range(len(indices))), prefix
    accel = _native_simulator()._accel
    assert len(accel._arrays) == sum(k.startswith("PT_") for k in abi)


@needs_native
def test_missing_numpy_random_lib_disables_native(tmp_path, monkeypatch):
    """Without numpy's libnpyrandom.a the kernels cannot draw from the
    simulator's generators: the backend is unavailable and refuses."""
    monkeypatch.setattr(build, "_NPY_LIB_DIR", str(tmp_path))
    monkeypatch.setattr(build, "_BUILD_DIR", str(tmp_path / "_build"))
    monkeypatch.setattr(build, "_lib", None)
    with pytest.raises(NativeBuildError, match="libnpyrandom"):
        build.load_library()
    assert not native_available()
    with pytest.raises(NativeUnsupported, match="libnpyrandom"):
        _native_simulator()


@needs_native
def test_native_profile_reports_every_phase():
    """A profiled native run attributes time to all six phases from the
    C timers, and profiling changes nothing but ``perf``."""
    def run(profile):
        workload = make_category_workload("H", 16, np.random.default_rng(1))
        config = SimulationConfig(
            workload, seed=1, epoch=200, backend="native", profile=profile
        )
        return Simulator(config).run(600).to_dict()

    plain, profiled = run(False), run(True)
    phases = profiled["perf"]["phase_seconds"]
    assert set(phases) == set(PHASES)
    assert phases["network"] > 0
    profiled["perf"] = None
    assert _canon(plain) == _canon(profiled)


@needs_native
def test_native_flush_checks_flit_conservation():
    """A flit lost from the kernels' link ring between two runs fails
    the next epoch flush with the reference checker's violation."""
    sim = _native_simulator()
    sim.run(300)
    birth = sim.network._ring_birth.reshape(-1)
    occupied = np.flatnonzero(birth >= 0)
    assert occupied.size
    birth[occupied[0]] = -1
    with pytest.raises(InvariantViolation) as info:
        sim.run(200)
    assert info.value.invariant == "conservation"
    assert info.value.cycle == 400
    assert info.value.snapshot["in_flight"] + 1 == (
        info.value.snapshot["injected_flits"]
        - info.value.snapshot["ejected_flits"]
    )


@needs_native
def test_changed_define_fails_at_load(edit_kernels):
    edit_kernels(("#define SRC_SHIFT 14", "#define SRC_SHIFT 15"))
    with pytest.raises(
        NativeAbiError,
        match=r"flit\._SRC_SHIFT = 14 but kernels\.c defines SRC_SHIFT = 15",
    ):
        build.load_library()
    # drift is a failure, never a quiet "backend unavailable" skip
    with pytest.raises(NativeAbiError):
        native_available()


@needs_native
def test_dropped_pt_slot_fails_at_construction(edit_kernels):
    # As if C had stopped using the slot: the name survives only as an
    # alias, so the kernels still compile.
    edit_kernels(
        ("X(PT_RING_META) X(PT_RING_BIRTH)", "X(PT_RING_META)"),
        ("#define ENUM_MEMBER", "#define PT_RING_BIRTH PT_RING_META\n"
                                "#define ENUM_MEMBER"),
    )
    with pytest.raises(
        NativeAbiError, match=r"not declared by kernels\.c: \['PT_RING_BIRTH'\]"
    ):
        _native_simulator()


@needs_native
def test_unfilled_cfg_slot_fails_at_construction(edit_kernels):
    edit_kernels(("X(CFG_REQ_FLITS)", "X(CFG_REQ_FLITS) X(CFG_EXTRA)"))
    with pytest.raises(
        NativeAbiError, match=r"not filled by accel\.py: \['CFG_EXTRA'\]"
    ):
        _native_simulator()


@needs_native
def test_reordered_enum_is_placed_by_name(edit_kernels):
    """Slots resolve by name, so reordering a C enum is not drift."""
    edit_kernels(
        ("X(CFG_N) X(CFG_P)", "X(CFG_P) X(CFG_N)"),
        ("X(CTR_CURSOR) X(CTR_SPOS)", "X(CTR_SPOS) X(CTR_CURSOR)"),
        ("X(PT_RING_META) X(PT_RING_BIRTH)", "X(PT_RING_BIRTH) X(PT_RING_META)"),
    )
    assert build.load_library().abi["CFG_P"] == 0
    kwargs = dict(network="bless", cycles=400)
    assert _canon(_run(backend="numpy", **kwargs)) == _canon(
        _run(backend="native", **kwargs)
    )


def _warm_simulator(network, backend):
    workload = make_category_workload("H", 64, np.random.default_rng(3))
    sim = Simulator(
        SimulationConfig(
            workload, seed=3, epoch=1000, network=network, backend=backend
        )
    )
    sim.run(600)
    return sim


_NUMPY_DOMAIN = [
    tracemalloc.DomainFilter(inclusive=True, domain=np.lib.tracemalloc_domain)
]


@pytest.mark.parametrize("network", ["bless", "buffered"])
def test_network_phase_steady_state_allocations(network):
    """After warm-up, 100 network-phase cycles retain no new numpy arrays.

    The arena preallocates every cycle-lifetime buffer, so the steady
    state must not accumulate array allocations; only small transient
    compaction outputs (index vectors from ``flatnonzero`` and friends)
    may come and go within a cycle.
    """
    sim = _warm_simulator(network, "numpy")
    net, cycle = sim.network, sim.cycle
    tracemalloc.start()
    try:
        for i in range(20):  # settle tracemalloc's own bookkeeping
            net.step(cycle + i)
        before = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
        worst_peak = 0
        for i in range(100):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            net.step(cycle + 20 + i)
            peak = tracemalloc.get_traced_memory()[1]
            worst_peak = max(worst_peak, peak - base)
        after = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
    finally:
        tracemalloc.stop()
    grown = [
        d for d in after.compare_to(before, "traceback") if d.size_diff > 0
    ]
    assert not grown, [d.traceback.format() for d in grown[:3]]
    # Transient churn stays far below one cycle-lifetime grid buffer
    # (the pre-arena engine allocated hundreds of KB per cycle here).
    assert worst_peak < 64 * 1024


@needs_native
@pytest.mark.parametrize("network", ["bless", "buffered"])
def test_native_network_phase_is_allocation_free(network):
    """A 1000-cycle native segment — the network phase and every other
    per-cycle phase and draw — performs zero numpy allocations."""
    sim = _warm_simulator(network, "native")
    accel, cycle = sim._accel, sim.cycle
    accel.run(cycle, 20)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        accel.run(cycle + 20, 1000)
        peak = tracemalloc.get_traced_memory()[1]
        after = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
    finally:
        tracemalloc.stop()
    new_blocks = [
        d for d in after.compare_to(before, "traceback") if d.size_diff > 0
    ]
    assert not new_blocks
    # Only interpreter-level churn (a few ints and frames), no arrays.
    assert peak - base < 4 * 1024
