"""ctypes bridge between the simulator and the compiled kernels.

:class:`NativeAccel` gathers the simulator's numpy buffers and the
``bitgen_t`` states of its three per-cycle random generators into a
pointer table, and runs whole segments of cycles — behavior, cores,
memory, network, ejection — in one ``noc_run`` call.  The kernels mutate
the *same* arrays and generator states Python owns, so every live view
(queues, buffers, per-node stats arrays, core state, the ``Generator``
objects) stays coherent without copies; only Python-scalar statistics
need a mirror flush.

The pointer table, ``cfg`` and ``ctr`` are filled by slot *name*; each
entry lands at the index the ``kernels.c`` ABI table gives it, and a
table whose names differ from the C enum's raises
:class:`~repro.native.build.NativeAbiError`.

Configurations the kernels do not model raise
:class:`NativeUnsupported` at construction time — the backend is opt-in
and refuses loudly rather than silently diverging from the reference.

:meth:`NativeAccel.flush` — at every epoch boundary and before every
result — checks flit conservation (injected = ejected + in flight) and
raises the reference checker's
:class:`~repro.guardrails.errors.InvariantViolation` on a mismatch, so a
flit the kernels lose or duplicate fails the run.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.guardrails.errors import InvariantViolation
from repro.network.base import EjectedFlits
from repro.network.flit import SEQ_RING
from repro.native.build import NativeAbiError, NativeBuildError, load_library

__all__ = ["NativeAccel", "NativeUnsupported"]

#: Arbitration policy -> ``cfg[CFG_ARB]`` code (the C ``ARB_*`` values,
#: checked at load).
_ARB_CODES = {"oldest_first": 0, "youngest_first": 1, "random": 2}

#: Built-in locality model -> ``cfg[CFG_LOC_KIND]`` code (the C
#: ``LOC_*`` values, checked at load).
_LOC_CODES = {"uniform": 0, "exponential": 1, "powerlaw": 2}

#: PhaseTimer phase -> the ``ctr`` slot ``noc_run`` sums its
#: nanoseconds into when profiling.
_PHASE_NS = {
    "behavior": "CTR_NS_BEHAVIOR",
    "cores": "CTR_NS_CORES",
    "memory": "CTR_NS_MEMORY",
    "network": "CTR_NS_NETWORK",
    "ejection": "CTR_NS_EJECTION",
}

#: Messages for the ``ctr[CTR_ERROR]`` codes, by ``ERR_*`` name.
_ERRORS = {
    "ERR_SLOT_MISMATCH": "pointer-table slot count differs from the "
                         "PT_* enum in kernels.c",
    "ERR_MEM_RING_OVERFLOW": "memory service ring overflow",
    "ERR_PENDING_OVERFLOW": "pending-reply scratch overflow",
    "ERR_EJECT_OVERFLOW": "ejection scratch overflow",
    "ERR_TOO_MANY_PORTS": "too many router ports for the native backend",
}


def _slots(abi: dict, prefix: str) -> dict:
    """``{name: index}`` of one ``kernels.c`` slot enum."""
    return {name: i for name, i in abi.items() if name.startswith(prefix)}


def _place(abi: dict, prefix: str, values: dict) -> list:
    """*values* (keyed by slot name) laid out in the C enum's order.

    The key set must equal the enum's names exactly: a slot Python does
    not fill, or fills but C no longer declares, is ABI drift.
    """
    slots = _slots(abi, prefix)
    unfilled = sorted(slots.keys() - values.keys())
    unknown = sorted(values.keys() - slots.keys())
    if unfilled or unknown:
        raise NativeAbiError(
            f"{prefix}* slots drifted from kernels.c: "
            f"not filled by accel.py: {unfilled or 'none'}; "
            f"not declared by kernels.c: {unknown or 'none'}"
        )
    table = [None] * len(slots)
    for name, i in slots.items():
        table[i] = values[name]
    return table


class NativeUnsupported(RuntimeError):
    """This configuration cannot run on the compiled backend."""


def _check(condition: bool, why: str) -> None:
    if not condition:
        raise NativeUnsupported(f"native backend: {why}")


def _address(entry) -> int:
    """Pointer-table value: an array's data or a generator's bitgen_t."""
    if isinstance(entry, np.random.Generator):
        return entry.bit_generator.ctypes.bit_generator.value
    assert entry.flags["C_CONTIGUOUS"], "pointer-table arrays must be contiguous"
    return entry.ctypes.data


class NativeAccel:
    """Compiled drop-in for the simulator's per-cycle phases."""

    def __init__(self, sim):
        config = sim.config
        net = sim.network
        cores = sim.cores
        memory = sim.memory
        _check(
            config.network in ("bless", "buffered"),
            f"network {config.network!r} is not implemented in C "
            "(only 'bless' and 'buffered' are)",
        )
        _check(sim.fault_model is None, "fault/chaos campaigns need the "
               "reference implementation's recovery paths")
        _check(sim.tracer is None, "flit tracing hooks only exist in the "
               "reference implementation")
        _check(sim.checker is None, "the invariant checker needs "
               "reference-side intermediate state")
        _check(net._p0_flat is not None,
               "topology too large for precomputed route tables")
        _check(isinstance(config.locality, str),
               f"custom locality {config.locality!r} has no C sampler "
               f"(only {', '.join(_LOC_CODES)} do)")
        n, p = net.num_nodes, net.num_ports
        try:
            self._lib = load_library()
        except NativeAbiError:
            raise
        except NativeBuildError as exc:
            raise NativeUnsupported(f"native backend: {exc}") from exc
        abi = self._lib.abi
        _check(p + 1 <= abi["MAX_PORTS"] - 1, "router has too many ports")

        self._cores = cores
        self._net = net
        self._buffered = config.network == "buffered"
        arb = _ARB_CODES[net.arbitration]
        behavior = sim.behavior
        locality = sim.locality
        self._timer = sim.phase_timer

        eject_width = net.eject_width if not self._buffered else 1
        ej_cap = n * eject_width
        pend_cap = n * cores.mshr_limit + ej_cap + 8
        l2 = memory.l2_latency
        qcap = net.request_queue.capacity

        i64, u8 = np.int64, np.bool_
        # Contiguous copies of topology tables the C side indexes flat;
        # the topology is immutable under the supported configs.  They
        # are allocated before the accel's own buffers: with them after,
        # the C network kernel ran measurably slower at 1024 nodes.
        neighbor = np.ascontiguousarray(net.topology.neighbor, dtype=i64)
        reverse = np.ascontiguousarray(net.topology.reverse_port, dtype=i64)
        link_up = np.ascontiguousarray(net.link_up, dtype=u8)
        # Buffers the accel owns: slot name -> (shape, dtype).  The
        # reference path's arena grids stay untouched so both paths can
        # coexist in one process.
        shapes = {
            # working grids: bless arrivals, arbitration keys (random
            # draws; buffered head keys), buffered head ports and
            # per-out-port winner scratch
            "PT_G_META": ((n, p), i64),
            "PT_G_BIRTH": ((n, p), i64),
            "PT_KEY": ((n, p + 1), i64),
            "PT_H_OUT": ((n, p + 1), i64),
            "PT_W_NODE": (n, i64),
            "PT_W_IN": (n, i64),
            "PT_W_DOWN": (n, i64),
            "PT_W_DPORT": (n, i64),
            "PT_W_GRANT": (n, u8),
            # ejection batch, exposed back to Python as array views
            "PT_EJ_NODE": (ej_cap, i64),
            "PT_EJ_SRC": (ej_cap, i64),
            "PT_EJ_KIND": (ej_cap, i64),
            "PT_EJ_SEQ": (ej_cap, i64),
            "PT_EJ_CBIT": (ej_cap, u8),
            # bless ejections past each router's first, held for the
            # round-major batch order (-1 = empty)
            "PT_EJ_LATER": ((n, max(eject_width - 1, 1)), i64),
            # core-phase miss output + (node, seq)-dedup scratch
            "PT_MISS_OUT": (n, i64),
            "PT_ISSUE_DEST": (n, i64),
            "PT_VISITED": (max(n * SEQ_RING, 1), np.uint8),
            # memory system state lives entirely on the C side (the
            # Python MemorySystem ring holds object tuples)
            "PT_MEM_SRV": ((l2, ej_cap), i64),
            "PT_MEM_REQ": ((l2, ej_cap), i64),
            "PT_MEM_SEQ": ((l2, ej_cap), i64),
            "PT_MEM_CNT": (l2, i64),
            "PT_PEND_S": (pend_cap, i64),
            "PT_PEND_R": (pend_cap, i64),
            "PT_PEND_Q": (pend_cap, i64),
            "PT_SCR_S": (2 * pend_cap, i64),
            "PT_SCR_R": (2 * pend_cap, i64),
            "PT_SCR_Q": (2 * pend_cap, i64),
            # per-cycle draw scratch: expired phase timers, locality
            # distances, axis splits and signs
            "PT_EXPIRED": (n, i64),
            "PT_DRAW_D": (n, i64),
            "PT_DRAW_A": (n, i64),
            "PT_DRAW_SX": (n, i64),
            "PT_DRAW_SY": (n, i64),
        }
        owned = {
            name: np.zeros(shape, dtype=dtype)
            for name, (shape, dtype) in shapes.items()
        }
        owned["PT_EJ_LATER"].fill(-1)
        self._ejected = tuple(
            owned[f"PT_EJ_{field}"]
            for field in ("NODE", "SRC", "KIND", "SEQ", "CBIT")
        )

        dummy64 = np.zeros(1, dtype=i64)
        dummy32 = np.zeros(1, dtype=np.int32)
        if self._buffered:
            buf = net.buffers
            buf_meta, buf_birth = buf.meta, buf.birth
            buf_head, buf_count = buf.head, buf.count
            reserved = net.reserved
            buf_cap = net.buffer_capacity
        else:
            buf_meta = buf_birth = dummy64
            buf_head = buf_count = reserved = dummy32
            buf_cap = 0

        # Locality tables: the 2D-grid coordinates, or the graph
        # sampler's per-source distance buckets; uniform needs neither.
        loc = dict(
            PT_LOC_X=dummy32, PT_LOC_Y=dummy32, PT_LOC_ORDER=dummy32,
            PT_LOC_START=dummy64, PT_LOC_COUNT=dummy64, PT_LOC_ECC=dummy64,
        )
        loc_cfg = dict(
            CFG_LOC_KIND=_LOC_CODES[config.locality], CFG_LOC_GRID=0,
            CFG_WIDTH=0, CFG_HEIGHT=0, CFG_WRAPS=0, CFG_MAX_DIST=0,
            CFG_LOC_BUCKETS=0,
        )
        loc_param = 0.0
        if config.locality != "uniform":
            loc_param = float(
                locality.mean_distance
                if config.locality == "exponential"
                else locality.alpha
            )
            if locality._grid2d:
                topo = locality.topology
                loc.update(PT_LOC_X=topo.coord_x, PT_LOC_Y=topo.coord_y)
                loc_cfg.update(
                    CFG_LOC_GRID=1, CFG_WIDTH=topo.width,
                    CFG_HEIGHT=topo.height, CFG_WRAPS=int(topo.wraps),
                    CFG_MAX_DIST=locality._max_dist,
                )
            else:
                loc.update(
                    PT_LOC_ORDER=locality._order,
                    PT_LOC_START=locality._bucket_start,
                    PT_LOC_COUNT=locality._bucket_count,
                    PT_LOC_ECC=locality._ecc,
                )
                loc_cfg.update(
                    CFG_LOC_BUCKETS=locality._bucket_count.shape[1]
                )
        sigma = float(behavior.phase_sigma)
        fcfg = np.array(_place(abi, "FCFG_", {
            "FCFG_LOC_PARAM": loc_param,
            # the exact scalars ApplicationBehaviorArray.tick passes
            "FCFG_PHASE_MU": -sigma * sigma / 2.0,
            "FCFG_PHASE_SIGMA": sigma,
            "FCFG_PHASE_P": 1.0 / behavior.phase_length,
            "FCFG_FLITS_PER_MISS": float(behavior.flits_per_miss),
        }), dtype=np.float64)

        req, resp = net.request_queue, net.response_queue
        meter, gate = net.starvation, net.throttle
        stats = net.stats
        queue_fields = ("dest", "kind", "flits", "stamp", "seq", "head",
                        "count")
        pt_entries = _place(abi, "PT_", {
            **owned,
            **loc,
            "PT_FCFG": fcfg,
            # the simulator's generators, advanced in place by the C draws
            "PT_RNG_DEST": cores.rng,
            "PT_RNG_PHASE": sim._rng_phase,
            "PT_RNG_ARB": net._rng,
            "PT_BH_MU": behavior._mu,
            "PT_BH_SIGMA": behavior._sigma,
            "PT_BH_MULT": behavior._phase_mult,
            "PT_BH_TIMER": behavior._phase_timer,
            **{f"PT_REQ_{f.upper()}": getattr(req, f) for f in queue_fields},
            **{f"PT_RESP_{f.upper()}": getattr(resp, f) for f in queue_fields},
            "PT_RING_META": net._ring_meta,
            "PT_RING_BIRTH": net._ring_birth,
            "PT_LAT_OUT": net._lat_out,
            "PT_TARGET_FLAT": net._target_flat,
            "PT_LINK_UP": link_up,
            "PT_NEIGHBOR": neighbor,
            "PT_REVERSE": reverse,
            "PT_P0TAB": net._p0_flat,
            "PT_P1TAB": net._p1_flat,
            "PT_CONGESTED": net.congested_nodes,
            "PT_THR_COUNTER": gate.counter,
            "PT_THR_RATE": gate.rate,
            "PT_STARV_RING": meter._ring,
            "PT_STARV_SUM": meter._sum,
            "PT_INJ_PER_NODE": stats.injected_per_node,
            "PT_STARVED_CYC": stats.starved_cycles,
            "PT_PORT_STARVED_CYC": stats.port_starved_cycles,
            "PT_LAT_HIST": stats.latency_hist,
            "PT_BUF_META": buf_meta,
            "PT_BUF_BIRTH": buf_birth,
            "PT_BUF_HEAD": buf_head,
            "PT_BUF_COUNT": buf_count,
            "PT_RESERVED": reserved,
            "PT_CO_ACTIVE": cores.active,
            "PT_CO_RETIRED": cores.retired,
            "PT_CO_ISSUE_POS": cores._issue_pos,
            "PT_CO_RECV": cores._recv,
            "PT_CO_COMPLETE": cores._complete,
            "PT_CO_ISSUED": cores._issued,
            "PT_CO_COMPLETED": cores._completed,
            "PT_CO_HEAD": cores._head,
            "PT_CO_GAP": cores._insns_until_miss,
            "PT_CO_EPOCH_INSNS": cores.epoch_insns,
            "PT_CO_STALL": cores.stall_cycles,
            "PT_CO_WSTALL": cores.window_stall_cycles,
            "PT_CO_MISSES": cores.misses_issued,
            "PT_CO_EPOCH_FLITS": cores.epoch_flits,
        })
        self._arrays = pt_entries  # keep the buffers and generators alive
        self._pt = (ctypes.c_void_p * len(pt_entries))(
            *[_address(entry) for entry in pt_entries]
        )

        cfg = np.array(_place(abi, "CFG_", {
            "CFG_N": n,
            "CFG_P": p,
            "CFG_DEPTH": net._ring_depth,
            "CFG_EJECT_W": eject_width,
            "CFG_QCAP": qcap,
            "CFG_SW": meter.window,
            "CFG_ARB": arb,
            "CFG_ISSUE_W": cores.issue_width,
            "CFG_WINDOW": cores.window_size,
            "CFG_MSHR": cores.mshr_limit,
            "CFG_REPLY_FLITS": cores.reply_flits,
            "CFG_L2_LAT": l2,
            "CFG_EJ_CAP": ej_cap,
            "CFG_PEND_CAP": pend_cap,
            "CFG_BUF_CAP": buf_cap,
            "CFG_SLOT_COUNT": len(pt_entries),
            "CFG_REQ_FLITS": cores.request_flits,
            "CFG_BUFFERED": int(self._buffered),
            **loc_cfg,
            # Host-time attribution only: noc_run's clock reads never
            # feed simulated state.
            "CFG_PROFILE": int(self._timer is not None),
        }), dtype=np.int64)
        self._cfg = cfg

        # (owner, attribute, ctr slot) for each Python scalar the
        # kernels advance: seeded into ctr here, copied back by flush().
        mirrored = (
            (stats, "cycles", "CTR_CYCLES"),
            (stats, "injected_flits", "CTR_INJ"),
            (stats, "ejected_flits", "CTR_EJ_FLITS"),
            (stats, "flit_hops", "CTR_HOPS"),
            (stats, "deflections", "CTR_DEFL"),
            (stats, "buffer_writes", "CTR_BWRITES"),
            (stats, "buffer_reads", "CTR_BREADS"),
            (stats, "buffer_occupancy_sum", "CTR_OCC"),
            (stats, "latency_sum", "CTR_LAT_SUM"),
            (stats, "latency_count", "CTR_LAT_CNT"),
            (stats, "latency_max", "CTR_LAT_MAX"),
            (stats, "hops_sum", "CTR_HOPS_SUM"),
            (net, "injection_latency_sum", "CTR_INJLAT_SUM"),
            (net, "injection_latency_count", "CTR_INJLAT_CNT"),
            (net, "_cursor", "CTR_CURSOR"),
            (meter, "_pos", "CTR_SPOS"),
            (meter, "_cycles_seen", "CTR_SSEEN"),
            (memory, "requests_serviced", "CTR_REQ_SERVICED"),
            (memory, "replies_issued", "CTR_REP_ISSUED"),
        )
        counters = {name: getattr(obj, attr) for obj, attr, name in mirrored}
        counters.update(
            CTR_HEAD_DIRTY=int(cores._head_dirty),
            CTR_MEM_CURSOR=memory._cursor,
            # C-side scratch counters and phase timers
            CTR_PEND_CNT=0, CTR_EJ_COUNT=0, CTR_ERROR=0,
            **{slot: 0 for slot in _PHASE_NS.values()},
        )
        ctr = np.array(_place(abi, "CTR_", counters), dtype=np.int64)
        self._ctr = ctr
        # Plain-int indices: the per-cycle path does no name lookups.
        ctr_slot = _slots(abi, "CTR_")
        self._mirrored = tuple(
            (obj, attr, ctr_slot[name]) for obj, attr, name in mirrored
        )
        self._i_head_dirty = ctr_slot["CTR_HEAD_DIRTY"]
        self._phase_ns = tuple(
            (phase, ctr_slot[slot]) for phase, slot in _PHASE_NS.items()
        )
        self._i_ej_count = ctr_slot["CTR_EJ_COUNT"]
        self._i_error = ctr_slot["CTR_ERROR"]
        self._errors = {abi[name]: why for name, why in _ERRORS.items()}

        ll = ctypes.POINTER(ctypes.c_longlong)
        self._cfg_p = cfg.ctypes.data_as(ll)
        self._ctr_p = ctr.ctypes.data_as(ll)
        # The scalar-stats mirror flush is deferred to epoch boundaries
        # and result() unless a per-cycle observer (the watchdog) reads
        # the stats object after every cycle.
        self._eager_flush = sim.watchdog is not None

    # ------------------------------------------------------------------
    def _check_error(self) -> None:
        code = int(self._ctr[self._i_error])
        if code:
            raise RuntimeError(
                f"native kernel error: {self._errors.get(code, code)}"
            )

    def flush(self) -> None:
        """Mirror the C counters back and check flit conservation.

        Called at epoch boundaries and before result().  Raises
        :class:`InvariantViolation` (``"conservation"``) when the
        injected flits differ from the ejected plus in-flight ones.
        """
        self._mirror()
        stats = self._net.stats
        injected, ejected = stats.injected_flits, stats.ejected_flits
        in_flight = self._net.in_flight_flits()
        if injected != ejected + in_flight:
            raise InvariantViolation(
                "conservation", stats.cycles,
                f"native backend: injected={injected} != ejected="
                f"{ejected} + in_flight={in_flight} (delta "
                f"{injected - ejected - in_flight:+d} flits)",
                snapshot=dict(injected_flits=injected,
                              ejected_flits=ejected, in_flight=in_flight),
            )

    def _mirror(self) -> None:
        """Mirror the C counters back onto the Python stat objects.

        Array state needs no mirroring (the kernels mutate the arrays
        Python owns); this covers the Python *scalars* only, plus the
        phase nanoseconds a profiled run moves into the PhaseTimer.
        Runs in every flush — and after every segment, unchecked, when a
        watchdog observes the stats every cycle.
        """
        values = self._ctr.tolist()
        for obj, attr, i in self._mirrored:
            setattr(obj, attr, values[i])
        self._cores._head_dirty = bool(values[self._i_head_dirty])
        if self._timer is not None:
            for phase, i in self._phase_ns:
                self._timer.seconds[phase] += values[i] * 1e-9
                self._ctr[i] = 0

    def run(self, cycle: int, ncycles: int) -> None:
        """Simulate cycles ``[cycle, cycle + ncycles)`` in one C call."""
        self._lib.noc_run(self._pt, self._cfg_p, self._ctr_p, cycle, ncycles)
        self._check_error()
        if self._eager_flush:
            self._mirror()

    def ejected(self) -> EjectedFlits:
        """The flits delivered in the last simulated cycle (views)."""
        k = int(self._ctr[self._i_ej_count])
        node, src, kind, seq, cbit = self._ejected
        return EjectedFlits(node[:k], src[:k], kind[:k], seq[:k], cbit[:k])
