"""Common structure shared by the router models.

A network model owns the injection-side state (request/response queues,
starvation meter, throttle gate) and the run-level statistics; the
subclasses implement one simulated cycle each in :meth:`NocModel.step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.network.flit import FLIT_REPLY, FLIT_REQUEST
from repro.network.injection import InjectionThrottleGate, StarvationMeter
from repro.network.queues import FlitQueueArray

__all__ = ["EjectedFlits", "NetworkStats", "NocModel"]


@dataclass
class EjectedFlits:
    """Flits delivered to their destination NI this cycle."""

    node: np.ndarray  # destination node (where the flit ejected)
    src: np.ndarray  # injecting node
    kind: np.ndarray  # FLIT_REQUEST / FLIT_REPLY / FLIT_CONTROL
    seq: np.ndarray  # packet sequence tag (miss matching)
    cbit: np.ndarray  # congestion bit (distributed controller, §6.6)

    @classmethod
    def empty(cls) -> "EjectedFlits":
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero, zero, zero, zero.astype(bool))


@dataclass
class NetworkStats:
    """Run-level counters, accumulated every cycle."""

    cycles: int = 0
    injected_flits: int = 0
    ejected_flits: int = 0
    flit_hops: int = 0
    deflections: int = 0
    buffer_writes: int = 0
    buffer_reads: int = 0
    #: sum over cycles of flits held in in-router buffers (occupancy
    #: integral; divide by cycles for the mean — bufferless models stay 0)
    buffer_occupancy_sum: int = 0
    latency_sum: int = 0
    latency_count: int = 0
    latency_max: int = 0
    hops_sum: int = 0
    #: modeled control-plane flits (§6.6): every epoch the simulator
    #: attempts 2 flits per active node (report + rate update, per-hub
    #: with control domains).  A full hub queue rejects the overflow —
    #: those flits are *dropped*, not silently forgotten, and
    #: attempted == sent + dropped is an invariant-checker assertion.
    control_flits_attempted: int = 0
    control_flits_sent: int = 0
    control_flits_dropped: int = 0
    injected_per_node: Optional[np.ndarray] = field(default=None)
    starved_cycles: Optional[np.ndarray] = field(default=None)
    port_starved_cycles: Optional[np.ndarray] = field(default=None)
    #: per-flit latency histogram; the last bucket absorbs the tail
    latency_hist: Optional[np.ndarray] = field(default=None)

    LATENCY_HIST_BUCKETS = 1024

    def init_arrays(self, num_nodes: int) -> None:
        self.injected_per_node = np.zeros(num_nodes, dtype=np.int64)
        self.starved_cycles = np.zeros(num_nodes, dtype=np.int64)
        self.port_starved_cycles = np.zeros(num_nodes, dtype=np.int64)
        self.latency_hist = np.zeros(self.LATENCY_HIST_BUCKETS, dtype=np.int64)

    def record_latencies(self, latencies: np.ndarray) -> None:
        """Bucket delivered-flit latencies for percentile queries."""
        clipped = np.minimum(latencies, self.LATENCY_HIST_BUCKETS - 1)
        np.add.at(self.latency_hist, clipped, 1)

    def latency_percentile(self, p: float) -> int:
        """The *p*-th percentile (0-100) of delivered-flit latency."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        total = int(self.latency_hist.sum())
        if total == 0:
            return 0
        cum = np.cumsum(self.latency_hist)
        # Nearest-rank with a floor of 1 so p=0 returns the minimum
        # observed latency instead of (possibly empty) bucket 0; the
        # clamp keeps float rounding at p=100 inside the histogram.
        rank = max(p / 100.0 * total, 1)
        idx = int(np.searchsorted(cum, rank, side="left"))
        return min(idx, len(cum) - 1)

    @property
    def avg_latency(self) -> float:
        """Mean in-network latency (injection to ejection) per flit."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    @property
    def avg_hops(self) -> float:
        """Mean hops traversed per delivered flit (includes deflections)."""
        if self.latency_count == 0:
            return 0.0
        return self.hops_sum / self.latency_count

    @property
    def avg_buffer_occupancy(self) -> float:
        """Mean flits held in in-router buffers per cycle (network-wide)."""
        if self.cycles == 0:
            return 0.0
        return self.buffer_occupancy_sum / self.cycles

    @property
    def deflection_rate(self) -> float:
        """Deflections per link traversal."""
        if self.flit_hops == 0:
            return 0.0
        return self.deflections / self.flit_hops

    def utilization(self, num_links: int) -> float:
        """Mean fraction of directed links busy per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.flit_hops / (self.cycles * num_links)

    def starvation_rate(self) -> np.ndarray:
        """Per-node fraction of cycles spent starved over the whole run.

        Counts every blocked injection attempt, including those blocked
        by the Algorithm-3 throttle gate (the sigma the controller sees).
        """
        if self.cycles == 0:
            return np.zeros_like(self.starved_cycles, dtype=float)
        return self.starved_cycles / self.cycles

    def port_starvation_rate(self) -> np.ndarray:
        """Starvation from network admission only (no free output link
        / NI buffer full), excluding throttle-gate blocks.  This is the
        congestion signal itself, used for Fig 9-style comparisons."""
        if self.cycles == 0:
            return np.zeros_like(self.port_starved_cycles, dtype=float)
        return self.port_starved_cycles / self.cycles


class NocModel:
    """Base class for the BLESS and buffered networks."""

    def __init__(
        self,
        topology,
        queue_capacity: int = 64,
        starvation_window: int = 128,
        fault_model=None,
    ):
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self.request_queue = FlitQueueArray(self.num_nodes, queue_capacity)
        self.response_queue = FlitQueueArray(self.num_nodes, queue_capacity)
        self.starvation = StarvationMeter(self.num_nodes, starvation_window)
        self.throttle = InjectionThrottleGate(self.num_nodes)
        self.stats = NetworkStats()
        self.stats.init_arrays(self.num_nodes)
        # Fault injection (repro.guardrails.faults): healthy-link mask and
        # destination re-striping around fail-stopped routers.
        self.fault_model = fault_model
        if fault_model is not None:
            if fault_model.topology is not topology:
                raise ValueError("fault model was built for a different topology")
            self.link_up = fault_model.link_up
        else:
            self.link_up = topology.link_exists
        # Distributed controller support: nodes currently asserting the
        # congestion bit on passing flits (§6.6); unused otherwise.
        self.congested_nodes = np.zeros(self.num_nodes, dtype=bool)
        # Sampled flit-event tracing (repro.observability.FlitTracer);
        # installed by the simulator when tracing is enabled.  A None
        # tracer costs one branch per step section.
        self.tracer = None

    def _sanitize_dest(self, dest: np.ndarray) -> np.ndarray:
        """Re-stripe destinations that target fail-stopped routers.

        The shared L2 is interleaved across nodes; when a router
        fail-stops, its slice's traffic moves to the nearest live node so
        no packet is ever addressed to a router that cannot eject it.
        """
        if self.fault_model is None:
            return dest
        return self.fault_model.remap[np.asarray(dest, dtype=np.int64)]

    # ------------------------------------------------------------------
    # Producer-side API (used by the core/memory models)
    # ------------------------------------------------------------------
    def enqueue_requests(
        self, nodes: np.ndarray, dest: np.ndarray, flits, cycle: int = 0, seq=0
    ) -> np.ndarray:
        """Queue L1-miss request packets; returns acceptance mask."""
        return self.request_queue.push(
            nodes, self._sanitize_dest(dest), FLIT_REQUEST, flits,
            stamp=cycle, seq=seq,
        )

    def enqueue_replies(
        self, nodes: np.ndarray, dest: np.ndarray, flits, cycle: int = 0, seq=0
    ) -> np.ndarray:
        """Queue data-reply packets at the serving node (never throttled)."""
        return self.response_queue.push(
            nodes, self._sanitize_dest(dest), FLIT_REPLY, flits,
            stamp=cycle, seq=seq,
        )

    def request_backpressure(self) -> np.ndarray:
        """Mask of nodes whose request queue cannot take another packet."""
        return self.request_queue.is_full

    # ------------------------------------------------------------------
    # Control API
    # ------------------------------------------------------------------
    def set_throttle_rates(self, rates: np.ndarray) -> None:
        self.throttle.set_rates(rates)

    def step(self, cycle: int) -> EjectedFlits:
        """Advance the network by one cycle; returns delivered flits."""
        raise NotImplementedError

    def in_flight_flits(self) -> int:
        """Flits currently inside the network (for conservation checks)."""
        raise NotImplementedError

    def in_flight_view(self):
        """``(meta, birth)`` flat arrays of every in-flight flit.

        Used by the guardrails (invariant checker, watchdog) for age and
        identity checks; must visit links plus any in-network buffering.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _record_starvation(
        self,
        wanted: np.ndarray,
        injected: np.ndarray,
        had_capacity: np.ndarray,
    ) -> None:
        starved = wanted & ~injected
        self.starvation.update(starved)
        self.stats.starved_cycles += starved
        self.stats.port_starved_cycles += wanted & ~had_capacity
