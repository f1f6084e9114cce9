"""ctypes bridge between the simulator and the compiled kernels.

:class:`NativeAccel` gathers the simulator's numpy buffers into a
pointer table and drives the four hot phases through the compiled entry
points.  The kernels mutate the *same* arrays Python owns, so every live
view (queues, buffers, per-node stats arrays, core state) stays coherent
without copies; only Python-scalar statistics need a mirror flush.

The pointer table, ``cfg`` and ``ctr`` are filled by slot *name*; each
entry lands at the index the ``kernels.c`` ABI table gives it, and a
table whose names differ from the C enum's raises
:class:`~repro.native.build.NativeAbiError`.

Configurations the kernels do not model raise
:class:`NativeUnsupported` at construction time — the backend is opt-in
and refuses loudly rather than silently diverging from the reference.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.network.base import EjectedFlits
from repro.network.engine import _KEY_MAX
from repro.network.flit import SEQ_RING
from repro.native.build import NativeAbiError, NativeBuildError, load_library

__all__ = ["NativeAccel", "NativeUnsupported"]

#: Arbitration policy -> ``cfg[CFG_ARB]`` code (the C ``ARB_*`` values,
#: checked at load).
_ARB_CODES = {"oldest_first": 0, "youngest_first": 1, "random": 2}

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


class NativeAccel:
    """Compiled drop-in for the behavior-independent simulator phases."""

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
        n, p = net.num_nodes, net.num_ports
        try:
            self._lib = load_library()
        except NativeAbiError:
            raise
        except NativeBuildError as exc:
            raise NativeUnsupported(f"native backend: {exc}") from exc
        abi = self._lib.abi
        _check(p + 1 <= abi["MAX_PORTS"] - 1, "router has too many ports")

        self._sim = sim
        self._cores = cores
        self._buffered = config.network == "buffered"
        arb = _ARB_CODES[net.arbitration]
        self._arb_random = arb == _ARB_CODES["random"]
        self._rng = net._rng

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
            # working grids
            "PT_G_META": ((n, p), i64),
            "PT_G_BIRTH": ((n, p), i64),
            "PT_G_KEY": ((n, p), i64),
            "PT_G_AVAIL": ((n, p), u8),
            "PT_G_OUTM": ((n, p), i64),
            "PT_G_OUTB": ((n, p), i64),
            "PT_H_KEY": ((n, p + 1), i64),
            "PT_H_OUT": ((n, p + 1), i64),
            "PT_W_NODE": (n, i64),
            "PT_W_IN": (n, i64),
            "PT_W_DOWN": (n, i64),
            "PT_W_DPORT": (n, i64),
            # ejection batch, exposed back to Python as array views
            "PT_EJ_NODE": (ej_cap, i64),
            "PT_EJ_SRC": (ej_cap, i64),
            "PT_EJ_KIND": (ej_cap, i64),
            "PT_EJ_SEQ": (ej_cap, i64),
            "PT_EJ_CBIT": (ej_cap, u8),
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
        }
        owned = {
            name: np.zeros(shape, dtype=dtype)
            for name, (shape, dtype) in shapes.items()
        }
        self._key_grid = owned["PT_H_KEY" if self._buffered else "PT_G_KEY"]
        self._ejected = tuple(
            owned[f"PT_EJ_{field}"]
            for field in ("NODE", "SRC", "KIND", "SEQ", "CBIT")
        )
        self._miss_out = owned["PT_MISS_OUT"]
        self._issue_dest = owned["PT_ISSUE_DEST"]

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

        req, resp = net.request_queue, net.response_queue
        meter, gate = net.starvation, net.throttle
        stats = net.stats
        queue_fields = ("dest", "kind", "flits", "stamp", "seq", "head",
                        "count")
        pt_arrays = _place(abi, "PT_", {
            **owned,
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
        for a in pt_arrays:
            assert a.flags["C_CONTIGUOUS"], "pointer-table arrays must be contiguous"
        self._arrays = pt_arrays  # keep the buffers alive
        self._pt = (ctypes.c_void_p * len(pt_arrays))(
            *[a.ctypes.data for a in pt_arrays]
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
            "CFG_SLOT_COUNT": len(pt_arrays),
            "CFG_REQ_FLITS": cores.request_flits,
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
            # C-side scratch counters
            CTR_MISS_CNT=0, CTR_PEND_CNT=0, CTR_EJ_COUNT=0, CTR_ERROR=0,
            CTR_ACCEPTED=0,
        )
        ctr = np.array(_place(abi, "CTR_", counters), dtype=np.int64)
        self._ctr = ctr
        # Plain-int indices: the per-cycle path does no name lookups.
        ctr_slot = _slots(abi, "CTR_")
        self._mirrored = tuple(
            (obj, attr, ctr_slot[name]) for obj, attr, name in mirrored
        )
        self._i_head_dirty = ctr_slot["CTR_HEAD_DIRTY"]
        self._i_miss_cnt = ctr_slot["CTR_MISS_CNT"]
        self._i_accepted = ctr_slot["CTR_ACCEPTED"]
        self._i_ej_count = ctr_slot["CTR_EJ_COUNT"]
        self._i_error = ctr_slot["CTR_ERROR"]
        self._errors = {abi[name]: why for name, why in _ERRORS.items()}

        ll = ctypes.POINTER(ctypes.c_longlong)
        self._cfg_p = cfg.ctypes.data_as(ll)
        self._ctr_p = ctr.ctypes.data_as(ll)
        self._net_kernel = (
            self._lib.noc_credit if self._buffered else self._lib.noc_bless
        )
        self._empty_ejected = EjectedFlits.empty()
        # The scalar-stats mirror flush is deferred to epoch boundaries
        # and result() unless a per-cycle observer (the watchdog) reads
        # the stats object between network steps.
        self._eager_flush = sim.watchdog is not None

    # ------------------------------------------------------------------
    def _check_error(self) -> None:
        code = int(self._ctr[self._i_error])
        if code:
            raise RuntimeError(
                f"native kernel error: {self._errors.get(code, code)}"
            )

    def flush(self) -> None:
        """Mirror the C counters back onto the Python stat objects.

        Array state needs no flushing (the kernels mutate the arrays
        Python owns); this covers the Python *scalars* only.  Called at
        epoch boundaries and before result() — and per network step
        when a watchdog observes the stats every cycle.
        """
        values = self._ctr.tolist()
        for obj, attr, i in self._mirrored:
            setattr(obj, attr, values[i])
        self._cores._head_dirty = bool(values[self._i_head_dirty])

    # ------------------------------------------------------------------
    # Phase drivers (called by the Simulator's native pipeline)
    # ------------------------------------------------------------------
    def cores_phase(self, cycle: int) -> None:
        self._lib.noc_cores(self._pt, self._cfg_p, self._ctr_p, cycle)
        self._check_error()
        k = int(self._ctr[self._i_miss_cnt])
        if k:
            # The reference miss tail, split around its RNG draws: the
            # destinations and next gaps come from the same streams, in
            # the same order, as CoreArray._issue_misses; the queue
            # pushes and per-miss bookkeeping in between run in C.
            cores = self._cores
            self._issue_dest[:k] = cores.locality.sample(
                self._miss_out[:k], cores.rng
            )
            self._lib.noc_issue(self._pt, self._cfg_p, self._ctr_p, cycle)
            m = int(self._ctr[self._i_accepted])
            if m:
                accepted = self._miss_out[:m]
                cores._insns_until_miss[accepted] = (
                    cores.behavior.sample_gap(accepted, cores.rng)
                )

    def memory_phase(self, cycle: int) -> None:
        self._lib.noc_memory(self._pt, self._cfg_p, self._ctr_p, cycle)
        self._check_error()

    def network_phase(self, cycle: int) -> EjectedFlits:
        if self._arb_random:
            # Same draw (size, dtype, bounds) as RandomArbitration, so
            # the RNG stream matches the reference bit for bit.
            self._key_grid[...] = self._rng.integers(
                0, _KEY_MAX, size=self._key_grid.shape, dtype=np.int64
            )
        self._net_kernel(self._pt, self._cfg_p, self._ctr_p, cycle)
        self._check_error()
        if self._eager_flush:
            self.flush()
        if not self._sim._observe:
            # Ejection consumers run in C (noc_eject); the batch only
            # needs Python-side wrapping for an observing controller.
            return self._empty_ejected
        k = int(self._ctr[self._i_ej_count])
        node, src, kind, seq, cbit = self._ejected
        return EjectedFlits(node[:k], src[:k], kind[:k], seq[:k], cbit[:k])

    def ejection_phase(self, cycle: int) -> None:
        self._lib.noc_eject(self._pt, self._cfg_p, self._ctr_p, cycle)
        self._check_error()
