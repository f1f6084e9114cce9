"""Unified router engine: shared per-cycle stages + pluggable policies.

Every router model in this repo advances through the same per-cycle
stages over the packed ``(meta, birth)`` flit representation
(:mod:`repro.network.flit`):

1. **arrival** — flits land from the hop-delay ring (links stay
   pipelined at one flit per cycle regardless of ``hop_latency``),
2. **eject** — flits destined to the local node leave the network,
   arbitrated by age,
3. **allocate** — remaining flits compete for output ports,
4. **inject** — the NI admits new flits (responses first, requests
   through the Algorithm-3 throttle gate; blocked nodes count as
   starved, §3.1),
5. **send** — granted flits enter the ring toward their neighbors
   (congestion bits from the distributed controller are stamped here).

What *differs* between models is factored into two policy families:

- :class:`ArbitrationPolicy` totally orders competing flits
  (``oldest_first`` is the paper baseline; ``youngest_first`` and
  ``random`` serve the §6 arbitration ablations);
- :class:`FlowControl` decides what a router does with a flit it cannot
  forward productively: :class:`DeflectFlowControl` misroutes it
  (FLIT-BLESS, §2.2), :class:`CreditFlowControl` holds it in an input
  buffer behind credit-based backpressure (the buffered VC baseline,
  §6.3), and :class:`HybridFlowControl` buffers a small fraction of
  would-be-deflected flits in a per-router side buffer (MinBD-style,
  arXiv:2112.02516).

:class:`RouterEngine` owns the shared state (ring, NI queues, stats,
starvation meter, tracer hooks) and the stage helpers; a concrete
network (``BlessNetwork``, ``BufferedNetwork``, ``HybridNetwork``) is a
thin constructor pairing the engine with policy instances.  Adding a
router variant means writing one :class:`FlowControl` subclass — see
DESIGN.md §S21.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.network.base import EjectedFlits, NocModel
from repro.rng import child_rng
from repro.observability.tracer import EV_DEFLECT, EV_EJECT, EV_HOP, EV_INJECT
from repro.network.flit import (
    CBIT_MASK,
    HOP_ONE,
    meta_cbit,
    meta_dest,
    meta_hops,
    meta_kind,
    meta_seq,
    meta_src,
    pack_meta,
    priority_key_into,
)
from repro.topology.mesh import NUM_PORTS

__all__ = [
    "ARBITRATION_POLICIES",
    "ScratchArena",
    "ArbitrationPolicy",
    "OldestFirst",
    "YoungestFirst",
    "RandomArbitration",
    "BufferBank",
    "FlowControl",
    "DeflectFlowControl",
    "CreditFlowControl",
    "HybridFlowControl",
    "RouterEngine",
]

_KEY_MAX = np.iinfo(np.int64).max

#: Largest network that precomputes (n, n) productive-route tables.
_ROUTE_TABLE_MAX_NODES = 1024

# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------
class ScratchArena:
    """Named, preallocated per-cycle scratch buffers.

    The steady-state cycle must not allocate fresh numpy arrays for its
    working grids: every ``(nodes, ports)``-shaped temporary the flow
    controls rebuild each cycle lives here instead and is reused via
    ``out=``/``np.copyto``.  Buffers are keyed by name and allocated on
    first use, so each flow control only pays for the grids it touches.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict = {}

    def buf(self, name: str, shape, dtype) -> np.ndarray:
        """The named scratch buffer, allocating it on first request."""
        arr = self._bufs.get(name)
        if arr is None:
            arr = np.empty(shape, dtype=dtype)
            self._bufs[name] = arr
        return arr


# ----------------------------------------------------------------------
# Arbitration policies
# ----------------------------------------------------------------------
class ArbitrationPolicy:
    """Totally orders competing flits; the smallest key wins a conflict."""

    name = ""

    def keys_into(self, engine: "RouterEngine", birth, meta, out, scratch):
        """Write the per-flit keys into *out* and return it (*scratch*
        is an int64 buffer of the same shape policies may clobber)."""
        raise NotImplementedError


class OldestFirst(ArbitrationPolicy):
    """The paper's baseline: age order, ties broken by source id."""

    name = "oldest_first"

    def keys_into(self, engine, birth, meta, out, scratch):
        meta_src(meta, out=scratch)
        return priority_key_into(birth, scratch, out)


class YoungestFirst(ArbitrationPolicy):
    """Inverted age order (§6 arbitration ablation)."""

    name = "youngest_first"

    def keys_into(self, engine, birth, meta, out, scratch):
        meta_src(meta, out=scratch)
        priority_key_into(birth, scratch, out)
        return np.negative(out, out=out)


class RandomArbitration(ArbitrationPolicy):
    """Uniform random keys drawn fresh every cycle (§6 ablation)."""

    name = "random"

    def keys_into(self, engine, birth, meta, out, scratch):
        # The generator draw itself allocates; the native backend makes
        # the identical draw in C (numpy's random_bounded_uint64_fill,
        # same count and bounds) so both backends consume the stream
        # alike.
        out[:] = engine._rng.integers(
            0, _KEY_MAX, size=birth.shape, dtype=np.int64
        )
        return out


ARBITRATION_POLICIES = {
    policy.name: policy
    for policy in (OldestFirst, YoungestFirst, RandomArbitration)
}


# ----------------------------------------------------------------------
# Buffer storage (credit + hybrid flow control)
# ----------------------------------------------------------------------
class BufferBank:
    """Fixed-capacity FIFO of packed flits per (node, input port)."""

    def __init__(self, num_nodes: int, num_ports: int, capacity: int):
        self.capacity = capacity
        shape = (num_nodes, num_ports, capacity)
        self.meta = np.zeros(shape, dtype=np.int64)
        self.birth = np.zeros(shape, dtype=np.int64)
        self.head = np.zeros((num_nodes, num_ports), dtype=np.int32)
        self.count = np.zeros((num_nodes, num_ports), dtype=np.int32)
        # Flat-gather machinery for the allocation-free heads_into path.
        self._flat_base = (
            np.arange(num_nodes * num_ports, dtype=np.int64) * capacity
        )
        self._flat_idx = np.empty(num_nodes * num_ports, dtype=np.int64)

    def occupancy(self) -> int:
        return int(self.count.sum())

    def push(self, nodes, ports, meta, birth) -> None:
        """Append flits; callers guarantee space and unique (node, port)."""
        slot = (self.head[nodes, ports] + self.count[nodes, ports]) % self.capacity
        self.meta[nodes, ports, slot] = meta
        self.birth[nodes, ports, slot] = birth
        self.count[nodes, ports] += 1

    def heads(self):
        """Head-of-queue view per (node, port): ``(valid, meta, birth)``."""
        idx = self.head[:, :, None]
        meta = np.take_along_axis(self.meta, idx, axis=2)[:, :, 0]
        birth = np.take_along_axis(self.birth, idx, axis=2)[:, :, 0]
        return self.count > 0, meta, birth

    def heads_into(self, valid, meta, birth):
        """Allocation-free :meth:`heads` into preallocated buffers."""
        np.add(self._flat_base, self.head.reshape(-1), out=self._flat_idx)
        np.take(self.meta.reshape(-1), self._flat_idx, out=meta.reshape(-1))
        np.take(self.birth.reshape(-1), self._flat_idx, out=birth.reshape(-1))
        np.greater(self.count, 0, out=valid)
        return valid, meta, birth

    def pop(self, nodes, ports):
        slot = self.head[nodes, ports]
        meta = self.meta[nodes, ports, slot].copy()
        birth = self.birth[nodes, ports, slot].copy()
        self.head[nodes, ports] = (slot + 1) % self.capacity
        self.count[nodes, ports] -= 1
        return meta, birth

    def occupied_mask(self) -> np.ndarray:
        """Boolean mask of live slots (shape ``(nodes, ports, capacity)``)."""
        offsets = np.arange(self.capacity)
        return (
            (offsets[None, None, :] - self.head[:, :, None]) % self.capacity
            < self.count[:, :, None]
        )

    def view(self):
        """``(meta, birth)`` flat arrays of every stored flit."""
        occupied = self.occupied_mask()
        return self.meta[occupied], self.birth[occupied]

    def rewrite_dest(self, old: int, new: int) -> int:
        """Re-address stored flits destined *old* to *new* (chaos remap).

        Destination occupies the low meta bits, so an additive rewrite
        preserves every other field.  Returns the number rewritten.
        """
        mask = self.occupied_mask() & (meta_dest(self.meta) == old)
        hits = int(mask.sum())
        if hits:
            self.meta[mask] += new - old
        return hits


def _refresh_fault_routing(net: "RouterEngine") -> None:
    """(Re)derive healthy-graph routing tables from the fault model.

    Called at attach time and again after every chaos topology
    transition: with permanent faults in force the engine routes by
    healthy-graph distance (``net._dist``); with none it reverts to the
    fault-free XY fast path (``net._dist is None``).
    """
    net._dist = None
    fault_model = net.fault_model
    if fault_model is not None and (
        fault_model.num_failed_links
        or fault_model.num_failed_routers
        or getattr(fault_model, "any_quiescing", False)
    ):
        net._dist = fault_model.healthy_distance
        if net._neighbor_safe is None:
            net._neighbor_safe = np.where(
                net.topology.link_exists,
                net.topology.neighbor.astype(np.int64), 0,
            )


# ----------------------------------------------------------------------
# Flow-control policies
# ----------------------------------------------------------------------
class FlowControl:
    """What a router does between arrival and send.

    A flow control implements one simulated cycle in :meth:`step` out of
    the engine's stage helpers, and owns any in-router storage
    (:meth:`held_flits` / :meth:`held_view` feed the conservation and
    age guardrails).  :meth:`attach` allocates that storage *on the
    engine* so external observers (tests, invariant checker) keep their
    stable attribute names (``buffers``, ``reserved``, ``eject_width``).
    """

    def attach(self, net: "RouterEngine") -> None:
        """Allocate per-network state; called once from the engine."""

    def held_flits(self, net: "RouterEngine") -> int:
        """Flits stored inside routers (not on links)."""
        return 0

    def held_view(self, net: "RouterEngine"):
        """``(meta, birth)`` of stored flits, or ``None`` when stateless."""
        return None

    def held_at(self, net: "RouterEngine", node: int) -> int:
        """Flits stored inside router *node* (chaos drain checks)."""
        return 0

    def rewrite_dest(self, net: "RouterEngine", old: int, new: int) -> int:
        """Re-address stored flits destined *old* to *new*; returns count."""
        return 0

    def on_topology_change(self, net: "RouterEngine") -> None:
        """Refresh routing state after a mid-run topology change (chaos)."""

    def step(self, net: "RouterEngine", cycle: int) -> EjectedFlits:
        raise NotImplementedError


class DeflectFlowControl(FlowControl):
    """FLIT-BLESS (§2.2): never hold a flit — misroute it instead.

    Every arrival is ejected, forwarded productively, or deflected to
    *some* free link in the same cycle; a router always has at least as
    many output links as routed flits, so the network is lossless with
    zero in-router storage.
    """

    def __init__(self, eject_width: int = 1):
        if eject_width < 1 or eject_width > NUM_PORTS:
            raise ValueError("eject_width must be between 1 and 4")
        self.eject_width = eject_width

    def attach(self, net: "RouterEngine") -> None:
        net.eject_width = self.eject_width
        n, p = net.num_nodes, net.num_ports
        # With permanent faults, XY-productive can point at a dead link
        # and the oldest flit would deflect forever (livelock).  Route by
        # healthy-graph distance instead: a port is productive iff it
        # strictly decreases the surviving-topology distance to dest.
        net._dist = None
        net._neighbor_safe = None
        _refresh_fault_routing(net)
        # Scratch output arrays, reused every cycle.
        net._out_meta = np.zeros((n, p), dtype=np.int64)
        net._out_birth = np.full((n, p), -1, dtype=np.int64)
        net._avail = np.zeros((n, p), dtype=bool)
        net._spare = np.zeros((n, p), dtype=bool)
        # Per-cycle working grids out of the shared scratch arena.
        arena = net.arena
        self._sc_meta = arena.buf("grid_meta", (n, p), np.int64)
        self._sc_birth = arena.buf("grid_birth", (n, p), np.int64)
        self._sc_valid = arena.buf("grid_valid", (n, p), np.bool_)
        self._sc_invalid = arena.buf("grid_invalid", (n, p), np.bool_)
        self._sc_dest = arena.buf("grid_dest", (n, p), np.int64)
        self._sc_key = arena.buf("grid_key", (n, p), np.int64)
        self._sc_tmp = arena.buf("grid_tmp", (n, p), np.int64)
        self._sc_local = arena.buf("grid_local", (n, p), np.bool_)
        self._sc_local_key = arena.buf("grid_local_key", (n, p), np.int64)
        self._sc_idx = arena.buf("grid_idx", (n, p), np.int64)
        self._sc_p0 = arena.buf("grid_p0", (n, p), np.int8)
        self._sc_p1 = arena.buf("grid_p1", (n, p), np.int8)
        self._sc_col = arena.buf("col", (n,), np.intp)

    def on_topology_change(self, net: "RouterEngine") -> None:
        _refresh_fault_routing(net)

    # -- hybrid extension points ---------------------------------------
    def redeem(self, net, cycle, meta, birth) -> None:
        """Re-enter stored flits into the arrival grid (hybrid only)."""

    def begin_allocation(self, net) -> None:
        """Reset per-cycle allocation state (hybrid capture budget)."""

    def resolve_blocked(self, net, cycle, meta, birth, rows, c, choice,
                        missing, free, spare):
        """Handle flits with no productive free port: deflect them all.

        Returns the (possibly filtered) ``rows, c, choice`` to grant;
        the hybrid subclass removes captured flits from the grant set.
        """
        if net.tracer is not None:
            md = meta[rows, c][missing]
            net.tracer.record(
                EV_DEFLECT, cycle, rows[missing], meta_src(md),
                meta_dest(md), meta_kind(md), meta_seq(md), meta_hops(md),
            )
        # Deflect to the first free link; one always exists because a
        # router has >= as many healthy links as routed flits (faults
        # fail both directions of a link together).
        fallback = np.argmax(free, axis=1)
        if spare is not None:
            no_healthy = ~free.any(axis=1)
            if no_healthy.any():
                fallback = np.where(
                    no_healthy, np.argmax(spare[rows], axis=1), fallback
                )
        choice = np.where(missing, fallback, choice)
        net.stats.deflections += int(missing.sum())
        return rows, c, choice

    # ------------------------------------------------------------------
    def step(self, net: "RouterEngine", cycle: int) -> EjectedFlits:
        n, p = net.num_nodes, net.num_ports

        # --- Arrivals (copied into the preallocated arena grids) ---------
        slot_meta, slot_birth = net.arrival_slot()
        meta, birth = self._sc_meta, self._sc_birth
        np.copyto(meta, slot_meta.reshape(n, p))
        np.copyto(birth, slot_birth.reshape(n, p))
        net.retire_arrivals()
        self.redeem(net, cycle, meta, birth)

        valid = np.greater_equal(birth, 0, out=self._sc_valid)
        dest = meta_dest(meta, out=self._sc_dest)
        key = net.arbitration_keys_into(birth, meta, self._sc_key, self._sc_tmp)
        np.copyto(
            key, _KEY_MAX,
            where=np.logical_not(valid, out=self._sc_invalid),
        )

        # --- Ejection: up to eject_width oldest local flits per node ----
        local = np.equal(dest, net._node_col, out=self._sc_local)
        local &= valid
        ejected = EjectedFlits.empty()
        ej_parts = []
        if local.any():
            local_key = self._sc_local_key
            local_key.fill(_KEY_MAX)
            np.copyto(local_key, key, where=local)
            col = self._sc_col
            for _ in range(self.eject_width):
                np.argmin(local_key, axis=1, out=col)
                rows = np.flatnonzero(local_key[net._node_ids, col] != _KEY_MAX)
                if rows.size == 0:
                    break
                cols = col[rows]
                m = meta[rows, cols]
                ej_parts.append((rows, m))
                net.account_ejections(cycle, rows, m, cycle - birth[rows, cols])
                valid[rows, cols] = False
                local_key[rows, cols] = _KEY_MAX
                key[rows, cols] = _KEY_MAX

        # --- Output-port allocation, rank by rank ------------------------
        # Productive ports for every arrival, computed once.
        if net._dist is None:
            # Fault-free: the topology's productive-port preferences (XY
            # on the grids, precomputed shortest-hop tables on graphs),
            # gathered from the engine's route tables when present.
            if net._p0_flat is not None:
                net.productive_into(
                    dest, self._sc_idx, self._sc_p0, self._sc_p1
                )
                p0, p1 = self._sc_p0, self._sc_p1
            else:
                p0, p1 = net.topology.productive_ports(net._node_col, dest)
            productive = None
        else:
            # Permanent faults: a port is productive iff its neighbor is
            # strictly closer to dest on the healthy graph.
            p0 = p1 = None
            d_here = net._dist[net._node_col, dest]
            d_next = net._dist[net._neighbor_safe[:, None, :], dest[:, :, None]]
            productive = net.link_up[:, None, :] & (d_next < d_here[:, :, None])

        # ``avail`` marks healthy free output links (True = grantable);
        # ``spare`` marks transiently faulted links kept as a last-resort
        # fallback — a bufferless router cannot hold a flit back, so when
        # every healthy port is taken the flit crosses a degraded link
        # rather than being dropped (losslessness is a hard invariant).
        avail = net._avail
        np.copyto(avail, net.link_up)
        spare = None
        quiesce = None
        if net.fault_model is not None:
            t_down = net.fault_model.transient_down(cycle)
            if t_down is not None:
                spare = net._spare
                np.copyto(spare, avail & t_down)
                avail &= ~t_down
                # Chaos-quiescing links (being drained ahead of a hard
                # down) stay *preferred* for their last hop: a flit
                # destined to the draining router must still reach it,
                # or in-flight traffic to that router livelocks while
                # the drain waits on it — only through-traffic is kept
                # off the link.  Random transient noise gets no such
                # exception (those links are unreliable for everyone).
                q_mask = getattr(net.fault_model, "quiescing", None)
                if q_mask is not None and q_mask.any():
                    quiesce = spare & q_mask
        out_meta, out_birth = net._out_meta, net._out_birth
        out_birth.fill(-1)
        # Stable sort: rows are mostly tied _KEY_MAX sentinels, and the
        # default introsort's tie order is numpy-version-dependent
        # (DET004).  Live keys are unique, so ranks are unchanged.
        order = np.argsort(key, axis=1, kind="stable")
        self.begin_allocation(net)
        for rank in range(p):
            cols = order[:, rank]
            rows = np.flatnonzero(key[net._node_ids, cols] != _KEY_MAX)
            if rows.size == 0:
                break  # ranks are sorted: later ranks are empty too
            c = cols[rows]
            free = avail[rows]
            if quiesce is not None:
                # Last-hop exception: a quiescing link counts as free
                # for flits addressed to its far-end router.
                free = free | (
                    quiesce[rows]
                    & (net.topology.neighbor[rows] == dest[rows, c][:, None])
                )
            if productive is None:
                pp0 = p0[rows, c]
                pp1 = p1[rows, c]
                k_idx = np.arange(rows.size)
                ok0 = (pp0 >= 0) & free[k_idx, np.where(pp0 >= 0, pp0, 0)]
                choice = np.where(ok0, pp0, -1)
                ok1 = (
                    (choice < 0) & (pp1 >= 0)
                    & free[k_idx, np.where(pp1 >= 0, pp1, 0)]
                )
                choice = np.where(ok1, pp1, choice)
            else:
                good = free & productive[rows, c]
                choice = np.where(good.any(axis=1), np.argmax(good, axis=1), -1)
            missing = choice < 0
            if missing.any():
                rows, c, choice = self.resolve_blocked(
                    net, cycle, meta, birth, rows, c, choice, missing,
                    free, spare,
                )
            avail[rows, choice] = False
            if spare is not None:
                spare[rows, choice] = False
            if quiesce is not None:
                quiesce[rows, choice] = False
            out_meta[rows, choice] = meta[rows, c] + HOP_ONE
            out_birth[rows, choice] = birth[rows, c]

        # --- Injection: responses first, then throttled requests --------
        # New flits only ever enter on healthy free links (``avail``);
        # injection is optional, so degraded links are never used here.
        net.injection_stage(
            cycle, avail.any(axis=1),
            lambda nodes, queue, cyc: self._place(
                net, nodes, queue, cyc, avail, out_meta, out_birth
            ),
        )

        # --- Congestion bit + send ---------------------------------------
        net.mark_congestion(out_meta, out_birth)
        net.send_grid(cycle, out_meta, out_birth)

        if ej_parts:
            rows = np.concatenate([r for r, _ in ej_parts])
            m = np.concatenate([mm for _, mm in ej_parts])
            net.trace_ejections(cycle, rows, m)
            ejected = net.make_ejected(rows, m)
        return ejected

    # ------------------------------------------------------------------
    def _place(self, net, nodes, queue, cycle, avail, out_meta, out_birth):
        """Place one queued flit per node in *nodes* onto a free link."""
        if nodes.size == 0:
            return
        dest, kind, seq, stamp, _ = queue.take_flit(nodes)
        # Injected flits are routed like any other: productive XY port
        # first, the other productive direction second, then any free
        # link (they are the youngest flits, so they lost arbitration to
        # every in-flight flit already).
        free = avail[nodes]
        if net._dist is None:
            if net._p0_table is not None:
                p0 = net._p0_table[nodes, dest]
                p1 = net._p1_table[nodes, dest]
            else:
                p0, p1 = net.topology.productive_ports(nodes, dest)
            k_idx = np.arange(nodes.size)
            ok0 = (p0 >= 0) & free[k_idx, np.where(p0 >= 0, p0, 0)]
            port = np.where(ok0, p0, -1)
            ok1 = (port < 0) & (p1 >= 0) & free[k_idx, np.where(p1 >= 0, p1, 0)]
            port = np.where(ok1, p1, port)
            port = np.where(port < 0, np.argmax(free, axis=1), port)
        else:
            d_here = net._dist[nodes, dest]
            d_next = net._dist[net._neighbor_safe[nodes], dest[:, None]]
            good = free & (d_next < d_here[:, None])
            port = np.where(
                good.any(axis=1), np.argmax(good, axis=1),
                np.argmax(free, axis=1),
            )
        avail[nodes, port] = False
        if net.tracer is not None:
            net.tracer.record(
                EV_INJECT, cycle, nodes, nodes, dest, kind, seq, 0
            )
        # The first traversal completes upon arrival at the neighbor.
        out_meta[nodes, port] = pack_meta(dest, nodes, kind, seq) + HOP_ONE
        out_birth[nodes, port] = cycle
        net.stats.injected_flits += nodes.size
        net.stats.injected_per_node[nodes] += 1
        net.injection_latency_sum += int((cycle - stamp).sum())
        net.injection_latency_count += nodes.size


class CreditFlowControl(FlowControl):
    """Input-buffered XY routing with credit backpressure (§6.3).

    Each router input (four links + the NI injection port) has a
    ``buffer_capacity``-flit FIFO; a flit moves only when the downstream
    input buffer has space (credits account for flits already on the
    wire), so the network is lossless with zero misrouting.
    """

    def __init__(self, buffer_capacity: int = 16):
        if buffer_capacity < 1:
            raise ValueError("buffer capacity must be positive")
        self.buffer_capacity = buffer_capacity

    def attach(self, net: "RouterEngine") -> None:
        net.buffer_capacity = self.buffer_capacity
        # One FIFO per link input plus the NI injection port (index
        # ``num_ports``, also the eject "output" id).
        net.buffers = BufferBank(
            net.num_nodes, net.num_ports + 1, self.buffer_capacity
        )
        # Flits in flight toward each link-input buffer, for credit checks.
        net.reserved = np.zeros((net.num_nodes, net.num_ports), dtype=np.int32)
        # Static permanent faults keep plain XY: a flit aimed across a
        # dead link parks in front of it and the progress watchdog
        # reports the deadlock (buffered networks cannot misroute, and
        # that failure mode is part of the §6.3 comparison).  Only a
        # *chaos* topology transition (on_topology_change) switches to
        # healthy-graph distance routing — mid-run losslessness demands
        # that every in-flight flit can still make progress.
        net._dist = None
        net._neighbor_safe = None
        # Per-cycle head-of-queue grids out of the shared scratch arena.
        n, pp = net.num_nodes, net.num_ports + 1
        arena = net.arena
        self._sc_h_valid = arena.buf("h_valid", (n, pp), np.bool_)
        self._sc_h_invalid = arena.buf("h_invalid", (n, pp), np.bool_)
        self._sc_h_meta = arena.buf("h_meta", (n, pp), np.int64)
        self._sc_h_birth = arena.buf("h_birth", (n, pp), np.int64)
        self._sc_h_dest = arena.buf("h_dest", (n, pp), np.int64)
        self._sc_h_key = arena.buf("h_key", (n, pp), np.int64)
        self._sc_h_tmp = arena.buf("h_tmp", (n, pp), np.int64)
        self._sc_h_out = arena.buf("h_out", (n, pp), np.int64)
        self._sc_h_idx = arena.buf("h_idx", (n, pp), np.int64)
        self._sc_h_p0 = arena.buf("h_p0", (n, pp), np.int8)
        self._sc_pkey = arena.buf("h_pkey", (n, pp), np.int64)
        self._sc_col = arena.buf("col", (n,), np.intp)

    def held_flits(self, net) -> int:
        return net.buffers.occupancy()

    def held_view(self, net):
        return net.buffers.view()

    def held_at(self, net, node: int) -> int:
        return int(net.buffers.count[node].sum())

    def rewrite_dest(self, net, old: int, new: int) -> int:
        return net.buffers.rewrite_dest(old, new)

    def on_topology_change(self, net) -> None:
        _refresh_fault_routing(net)

    # ------------------------------------------------------------------
    def step(self, net: "RouterEngine", cycle: int) -> EjectedFlits:
        n, p = net.num_nodes, net.num_ports
        eject_port = p  # local delivery: first id past the link ports

        # --- Link arrivals drain into the input buffers -----------------
        slot_meta, slot_birth = net.arrival_slot()
        arr_birth = slot_birth.reshape(n, p)
        arr_rows, arr_ports = np.nonzero(arr_birth >= 0)
        if arr_rows.size:
            arr_meta = slot_meta.reshape(n, p)
            net.buffers.push(
                arr_rows, arr_ports,
                arr_meta[arr_rows, arr_ports], arr_birth[arr_rows, arr_ports],
            )
            net.reserved[arr_rows, arr_ports] -= 1
            net.stats.buffer_writes += arr_rows.size
        net.retire_arrivals()

        # --- Route computation for every head-of-queue flit -------------
        h_valid, h_meta, h_birth = net.buffers.heads_into(
            self._sc_h_valid, self._sc_h_meta, self._sc_h_birth
        )
        h_dest = meta_dest(h_meta, out=self._sc_h_dest)
        h_key = net.arbitration_keys_into(
            h_birth, h_meta, self._sc_h_key, self._sc_h_tmp
        )
        np.copyto(
            h_key, _KEY_MAX,
            where=np.logical_not(h_valid, out=self._sc_h_invalid),
        )
        if net._dist is None:
            # Fault-free: the topology's deterministic primary port (XY
            # on the grids — deadlock-free; shortest-hop on graphs),
            # gathered from the engine's route tables when present.
            if net._p0_flat is not None:
                net.productive_into(h_dest, self._sc_h_idx, self._sc_h_p0)
                h_p0 = self._sc_h_p0
            else:
                h_p0, _ = net.topology.productive_ports(net._node_col, h_dest)
            h_out = self._sc_h_out
            np.copyto(h_out, h_p0)
            np.copyto(
                h_out, eject_port,
                where=np.less(h_p0, 0, out=self._sc_h_invalid),
            )
        else:
            # Permanent faults: minimal routing on the healthy graph —
            # first port whose neighbor is strictly closer to dest.  A
            # flit with no such port (its dest drained away mid-rewrite)
            # waits; chaos re-addresses it before the link disappears.
            d_here = net._dist[net._node_col, h_dest]
            d_next = net._dist[net._neighbor_safe[:, None, :], h_dest[:, :, None]]
            good = net.link_up[:, None, :] & (d_next < d_here[:, :, None])
            h_out = np.where(
                h_dest == net._node_col,
                eject_port,
                np.where(good.any(axis=2), np.argmax(good, axis=2), -1),
            )

        # --- Output arbitration: one winner per output port --------------
        neighbor = net.topology.neighbor
        reverse = net.topology.reverse_port
        ejected = EjectedFlits.empty()
        mark = net.congested_nodes.any()
        # Faulted links cannot be granted; the flit stays buffered (XY
        # routing has no alternative path, unlike deflection routing).
        link_ok = net.link_up
        t_down = None
        quiesce = None
        if net.fault_model is not None:
            t_down = net.fault_model.transient_down(cycle)
            if t_down is not None:
                # Chaos-quiescing links still carry their last-hop
                # traffic (same exception as the deflection engine):
                # without it, a buffered flit destined to a draining
                # router waits at a neighbor forever and the drain
                # deadlocks against its own quiesce.
                q_mask = getattr(net.fault_model, "quiescing", None)
                if q_mask is not None and q_mask.any():
                    quiesce = q_mask
        pkey, col = self._sc_pkey, self._sc_col
        want = self._sc_h_invalid  # reuse: h_key masking is done
        for out_port in range(p + 1):
            np.equal(h_out, out_port, out=want)
            pkey.fill(_KEY_MAX)
            np.copyto(pkey, h_key, where=want)
            np.argmin(pkey, axis=1, out=col)
            rows = np.flatnonzero(pkey[net._node_ids, col] != _KEY_MAX)
            if rows.size == 0:
                continue
            in_ports = col[rows]
            if out_port == eject_port:
                meta, birth = net.buffers.pop(rows, in_ports)
                net.stats.buffer_reads += rows.size
                net.account_ejections(cycle, rows, meta, cycle - birth)
                net.trace_ejections(cycle, rows, meta)
                ejected = net.make_ejected(rows, meta)
                continue
            # Credit check: downstream input buffer must have space for
            # everything already there plus flits still on the wire; the
            # link itself must also be healthy this cycle.
            down = neighbor[rows, out_port].astype(np.int64)
            down_port = reverse[rows, out_port].astype(np.int64)
            space = (
                net.buffers.count[down, down_port]
                + net.reserved[down, down_port]
                < self.buffer_capacity
            )
            space &= link_ok[rows, out_port]
            if t_down is not None:
                blocked = t_down[rows, out_port]
                if quiesce is not None:
                    blocked = blocked & ~(
                        quiesce[rows, out_port]
                        & (h_dest[rows, in_ports] == down)
                    )
                space &= ~blocked
            rows, in_ports = rows[space], in_ports[space]
            down, down_port = down[space], down_port[space]
            if rows.size == 0:
                continue
            meta, birth = net.buffers.pop(rows, in_ports)
            net.stats.buffer_reads += rows.size
            meta = meta + HOP_ONE
            if mark:
                meta[net.congested_nodes[rows]] |= CBIT_MASK
            idx = down * p + down_port
            # Distinct directed links per (down, down_port) pair, so the
            # fancy-index writes and the credit increment never collide.
            slot = net.link_send_slot(net._lat_out[rows, out_port])
            net._ring_meta[slot, idx] = meta
            net._ring_birth[slot, idx] = birth
            net.reserved[down, down_port] += 1
            net.stats.flit_hops += rows.size
            if net.tracer is not None:
                net.tracer.record(
                    EV_HOP, cycle, rows, meta_src(meta), meta_dest(meta),
                    meta_kind(meta), meta_seq(meta), meta_hops(meta),
                )

        # --- Injection through the NI input buffer -----------------------
        ni_space = net.buffers.count[:, p] < self.buffer_capacity
        net.injection_stage(
            cycle, ni_space,
            lambda nodes, queue, cyc: self._place(net, nodes, queue, cyc),
        )
        return ejected

    # ------------------------------------------------------------------
    def _place(self, net, nodes, queue, cycle):
        if nodes.size == 0:
            return
        dest, kind, seq, _stamp, _ = queue.take_flit(nodes)
        if net.tracer is not None:
            net.tracer.record(
                EV_INJECT, cycle, nodes, nodes, dest, kind, seq, 0
            )
        ports = np.full(nodes.shape, net.num_ports, dtype=np.int64)
        net.buffers.push(
            nodes, ports,
            pack_meta(dest, nodes, kind, seq),
            np.full(nodes.shape, cycle, dtype=np.int64),
        )
        net.stats.buffer_writes += nodes.size
        net.stats.injected_flits += nodes.size
        net.stats.injected_per_node[nodes] += 1


class HybridFlowControl(DeflectFlowControl):
    """MinBD-style deflection + small side buffer (arXiv:2112.02516).

    Routes like FLIT-BLESS, but each router also has one small
    ``side_buffer_capacity``-flit FIFO.  Per cycle it may *capture* one
    flit that would otherwise deflect (buffer-eject width 1) and
    *redeem* one stored flit back into a free arrival slot, where it
    competes like any other arrival.  Captured flits neither traverse a
    link nor count as deflected — the side buffer absorbs exactly the
    misrouting that makes bufferless deflection expensive at load, with
    a fraction of the buffered baseline's storage.
    """

    def __init__(self, eject_width: int = 1, side_buffer_capacity: int = 4):
        super().__init__(eject_width)
        if side_buffer_capacity < 1:
            raise ValueError("side buffer capacity must be positive")
        self.side_buffer_capacity = side_buffer_capacity

    def attach(self, net: "RouterEngine") -> None:
        super().attach(net)
        net.side_buffer_capacity = self.side_buffer_capacity
        net.side_buffers = BufferBank(net.num_nodes, 1, self.side_buffer_capacity)
        self._can_capture = np.zeros(net.num_nodes, dtype=bool)

    def held_flits(self, net) -> int:
        return net.side_buffers.occupancy()

    def held_view(self, net):
        return net.side_buffers.view()

    def held_at(self, net, node: int) -> int:
        return int(net.side_buffers.count[node, 0])

    def rewrite_dest(self, net, old: int, new: int) -> int:
        return net.side_buffers.rewrite_dest(old, new)

    # ------------------------------------------------------------------
    def redeem(self, net, cycle, meta, birth) -> None:
        """Move one stored flit per node into a free arrival slot."""
        stored = net.side_buffers.count[:, 0] > 0
        if not stored.any():
            return
        empty = birth < 0
        nodes = np.flatnonzero(stored & empty.any(axis=1))
        if nodes.size == 0:
            return
        ports = np.argmax(empty[nodes], axis=1)
        m, b = net.side_buffers.pop(nodes, np.zeros(nodes.size, dtype=np.int64))
        meta[nodes, ports] = m
        birth[nodes, ports] = b
        net.stats.buffer_reads += nodes.size

    def begin_allocation(self, net) -> None:
        # Capture budget: at most one flit per router per cycle, and
        # only while the side buffer has space.
        np.less(
            net.side_buffers.count[:, 0], self.side_buffer_capacity,
            out=self._can_capture,
        )

    def resolve_blocked(self, net, cycle, meta, birth, rows, c, choice,
                        missing, free, spare):
        """Capture one would-be-deflected flit per node, deflect the rest."""
        cap = missing & self._can_capture[rows]
        if cap.any():
            taken = rows[cap]
            self._can_capture[taken] = False
            net.side_buffers.push(
                taken, np.zeros(taken.size, dtype=np.int64),
                meta[rows, c][cap], birth[rows, c][cap],
            )
            net.stats.buffer_writes += taken.size
            keep = ~cap
            rows, c, choice = rows[keep], c[keep], choice[keep]
            missing, free = missing[keep], free[keep]
            if not missing.any():
                return rows, c, choice
        return super().resolve_blocked(
            net, cycle, meta, birth, rows, c, choice, missing, free, spare
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class RouterEngine(NocModel):
    """Shared router machinery, specialized by policy objects.

    Owns the hop-delay ring (flits leaving at cycle *t* arrive
    ``hop_latency`` cycles later), the arbitration policy, and the
    stage helpers every flow control composes its cycle from.
    """

    def __init__(
        self,
        topology,
        flow: FlowControl,
        hop_latency: int = 3,
        queue_capacity: int = 64,
        starvation_window: int = 128,
        arbitration: str = "oldest_first",
        rng: Optional[np.random.Generator] = None,
        fault_model=None,
    ):
        super().__init__(topology, queue_capacity, starvation_window, fault_model)
        if arbitration not in ARBITRATION_POLICIES:
            raise ValueError(f"unknown arbitration policy: {arbitration!r}")
        if hop_latency < 1:
            raise ValueError("hop latency must be at least 1 cycle")
        self.hop_latency = hop_latency
        self.arbitration = arbitration
        self._arb = ARBITRATION_POLICIES[arbitration]()
        # Default-seed fallback for standalone construction; the
        # simulator passes its own "arbitration" stream, which this
        # label deliberately mirrors.
        self._rng = rng if rng is not None else child_rng(0, "arbitration")  # repro: noqa[RNG001]

        n, p = self.num_nodes, topology.num_ports
        self.num_ports = p
        # Per-(node, out port) hop latency: router pipeline plus that
        # link's wire cycles.  Grid topologies have uniform unit wires;
        # express/chiplet layouts stretch their long links.  The ring is
        # as deep as the slowest link; a flit entering a link with hop
        # latency L is written L-1 slots ahead of the arrival cursor, so
        # every row still retires all its flits on its arrival cycle.
        extra = topology.link_latency.astype(np.int64) - 1
        self._lat_out = np.where(topology.link_exists, hop_latency + extra,
                                 hop_latency)
        self._ring_depth = int(self._lat_out.max())
        self._uniform_latency = bool(
            (self._lat_out == hop_latency).all()
        )
        self._ring_meta = np.zeros((self._ring_depth, n * p), dtype=np.int64)
        self._ring_birth = np.full((self._ring_depth, n * p), -1, dtype=np.int64)
        self._cursor = 0
        # Static scatter map: flat arrival slot (neighbor, reverse port)
        # reached through each (node, out port).
        neighbor = topology.neighbor.astype(np.int64)
        rev = topology.reverse_port.astype(np.int64)
        self._target_flat = np.where(
            topology.link_exists, neighbor * p + rev, -1
        )
        self._node_ids = np.arange(n, dtype=np.int64)
        self._node_col = self._node_ids[:, None]
        # Scratch arena: every per-cycle working grid is preallocated
        # here and reused via out=/copyto, so the steady-state cycle
        # performs no numpy array allocations for its hot buffers.
        self.arena = ScratchArena()
        self._sc_moving = self.arena.buf("send_moving", (n, p), np.bool_)
        # Fault-free productive-port lookup tables ((n, n) int8): one
        # flat gather per cycle replaces the closed-form route math.
        # Bounded so giant topologies don't pay O(n^2) memory; beyond
        # the bound the engine falls back to computing routes per cycle.
        self._p0_table = self._p1_table = None
        self._p0_flat = self._p1_flat = None
        self._row_base_col = None
        if n <= _ROUTE_TABLE_MAX_NODES:
            t0, t1 = topology.productive_ports(
                self._node_ids[:, None], self._node_ids[None, :]
            )
            self._p0_table = np.ascontiguousarray(t0, dtype=np.int8)
            self._p1_table = np.ascontiguousarray(t1, dtype=np.int8)
            self._p0_flat = self._p0_table.reshape(-1)
            self._p1_flat = self._p1_table.reshape(-1)
            self._row_base_col = (self._node_ids * n)[:, None]
        # Injection-queueing latency statistics (time from enqueue at the
        # NI to entering the network), the paper's "injection latency";
        # only accumulated by flow controls that inject straight onto
        # links (buffered models charge queueing to in-network latency).
        self.injection_latency_sum = 0
        self.injection_latency_count = 0
        self.flow = flow
        flow.attach(self)

    # ------------------------------------------------------------------
    # NocModel interface
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> EjectedFlits:
        self.stats.cycles += 1
        ejected = self.flow.step(self, cycle)
        self.stats.buffer_occupancy_sum += self.flow.held_flits(self)
        return ejected

    def in_flight_flits(self) -> int:
        return int((self._ring_birth >= 0).sum()) + self.flow.held_flits(self)

    def in_flight_view(self):
        mask = self._ring_birth >= 0
        meta, birth = self._ring_meta[mask], self._ring_birth[mask]
        held = self.flow.held_view(self)
        if held is None:
            return meta, birth
        return (
            np.concatenate([meta, held[0]]),
            np.concatenate([birth, held[1]]),
        )

    # ------------------------------------------------------------------
    # Chaos support (mid-run topology transitions, repro.chaos)
    # ------------------------------------------------------------------
    def on_topology_change(self) -> None:
        """Refresh routing tables after a chaos link/router transition."""
        self.flow.on_topology_change(self)

    def held_at(self, node: int) -> int:
        """Flits stored inside router *node* (drain-completion checks)."""
        return self.flow.held_at(self, node)

    def rewrite_dest(self, old: int, new: int) -> int:
        """Re-address every flit destined *old* to *new*, everywhere.

        Covers the hop-delay ring, flow-control buffers, and the NI
        queues (packets enqueued before the destination re-striping took
        effect).  Returns the number of *in-network* flits rewritten;
        NI-queue rewrites touch stale slots harmlessly and are not
        counted.
        """
        mask = (self._ring_birth >= 0) & (meta_dest(self._ring_meta) == old)
        hits = int(mask.sum())
        if hits:
            self._ring_meta[mask] += new - old
        hits += self.flow.rewrite_dest(self, old, new)
        for queue in (self.request_queue, self.response_queue):
            stale = queue.dest == old
            if stale.any():
                queue.dest[stale] = new
        return hits

    def router_wire_empty(self, node: int) -> bool:
        """No flit on any wire into or out of *node*, in any ring stage."""
        p = self.num_ports
        inbound = self._ring_birth[:, node * p:(node + 1) * p]
        if (inbound >= 0).any():
            return False
        out = self._target_flat[node]
        out = out[out >= 0]
        return not (self._ring_birth[:, out] >= 0).any()

    def link_wire_empty(self, node: int, port: int) -> bool:
        """Both directions of link (node, port) are drained."""
        fwd = int(self._target_flat[node, port])
        neighbor = int(self.topology.neighbor[node, port])
        rev = int(self.topology.reverse_port[node, port])
        back = int(self._target_flat[neighbor, rev])
        slots = [s for s in (fwd, back) if s >= 0]
        return not (self._ring_birth[:, slots] >= 0).any()

    def purge_queues_at(self, node: int) -> int:
        """Drop un-injected NI packets at *node*; returns flits dropped.

        Only used by chaos when a fail-stopping router's queues refuse
        to drain (heavy throttling); the packets never entered the
        network, so flit conservation is unaffected.
        """
        return (
            self.request_queue.purge_node(node)
            + self.response_queue.purge_node(node)
        )

    # ------------------------------------------------------------------
    # Stage helpers (used by FlowControl implementations)
    # ------------------------------------------------------------------
    def arbitration_keys_into(self, birth, meta, out, scratch) -> np.ndarray:
        """Per-flit arbitration keys into scratch *out*; the smallest
        key wins a conflict."""
        return self._arb.keys_into(self, birth, meta, out, scratch)

    def productive_into(self, dest, idx, p0, p1=None):
        """Gather fault-free productive ports from the route tables.

        *dest* is a per-(node, port) destination grid; *idx*/*p0*/*p1*
        are same-shaped scratch buffers.  Callers must check
        ``self._p0_flat is not None`` first.
        """
        np.add(dest, self._row_base_col, out=idx)
        np.take(self._p0_flat, idx, out=p0)
        if p1 is not None:
            np.take(self._p1_flat, idx, out=p1)

    def arrival_slot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(meta, birth)`` views of this cycle's arrival slot."""
        return self._ring_meta[self._cursor], self._ring_birth[self._cursor]

    def retire_arrivals(self) -> None:
        """Clear the consumed arrival slot and advance the ring cursor."""
        self._ring_birth[self._cursor] = -1
        self._cursor = (self._cursor + 1) % self._ring_depth

    @property
    def send_slot(self) -> int:
        """Ring slot whose contents arrive ``hop_latency`` cycles out
        (the uniform-latency fast path)."""
        return (self._cursor + self.hop_latency - 1) % self._ring_depth

    def link_send_slot(self, lat_sel: np.ndarray) -> np.ndarray:
        """Per-flit ring slots for links with hop latencies *lat_sel*."""
        return (self._cursor + lat_sel - 1) % self._ring_depth

    def account_ejections(self, cycle, rows, meta, latencies) -> None:
        """Latency/hop statistics for a batch of delivered flits."""
        stats = self.stats
        stats.ejected_flits += rows.size
        stats.latency_sum += int(latencies.sum())
        stats.latency_count += rows.size
        stats.latency_max = max(stats.latency_max, int(latencies.max()))
        stats.record_latencies(latencies)
        stats.hops_sum += int(meta_hops(meta).sum())

    def trace_ejections(self, cycle, rows, meta) -> None:
        if self.tracer is not None:
            self.tracer.record(
                EV_EJECT, cycle, rows, meta_src(meta), rows,
                meta_kind(meta), meta_seq(meta), meta_hops(meta),
            )

    @staticmethod
    def make_ejected(rows, meta) -> EjectedFlits:
        return EjectedFlits(
            rows, meta_src(meta), meta_kind(meta), meta_seq(meta),
            meta_cbit(meta).astype(bool),
        )

    def injection_stage(self, cycle, capacity, place) -> None:
        """NI admission shared by all flow controls.

        Responses inject first (they are never throttled, §3.2), then
        requests pass the Algorithm-3 throttle gate; ``place(nodes,
        queue, cycle)`` performs the flow-specific placement.  Every
        node that wanted to inject but could not counts as starved.
        """
        resp_has = self.response_queue.nonempty
        req_has = self.request_queue.nonempty
        wanted = resp_has | req_has
        inject_resp = resp_has & capacity
        trying_req = req_has & capacity & ~inject_resp
        inject_req = trying_req & self.throttle.decide(trying_req)
        place(np.flatnonzero(inject_resp), self.response_queue, cycle)
        place(np.flatnonzero(inject_req), self.request_queue, cycle)
        self._record_starvation(wanted, inject_resp | inject_req, capacity)

    def mark_congestion(self, out_meta, out_birth) -> None:
        """Distributed-control congestion bit (§6.6) on departing flits."""
        if self.congested_nodes.any():
            mark = self.congested_nodes[:, None] & (out_birth >= 0)
            out_meta[mark] |= CBIT_MASK

    def send_grid(self, cycle, out_meta, out_birth) -> None:
        """Scatter granted ``(node, out port)`` flits into the ring."""
        moving = np.greater_equal(out_birth, 0, out=self._sc_moving)
        idx = self._target_flat[moving]
        if self._uniform_latency:
            slot = self.send_slot
        else:
            slot = self.link_send_slot(self._lat_out[moving])
        self._ring_meta[slot, idx] = out_meta[moving]
        self._ring_birth[slot, idx] = out_birth[moving]
        self.stats.flit_hops += idx.size
        if self.tracer is not None and idx.size:
            hop_rows = np.nonzero(moving)[0]
            hm = out_meta[moving]
            self.tracer.record(
                EV_HOP, cycle, hop_rows, meta_src(hm), meta_dest(hm),
                meta_kind(hm), meta_seq(hm), meta_hops(hm),
            )
