"""Parallel sweep executor with caching and progress telemetry.

:func:`run_jobs` is the one entry point: give it a list of
:class:`~repro.harness.jobs.JobSpec` and it returns a
:class:`HarnessReport` whose ``results`` align 1:1 with the input specs.

Execution strategy:

- every spec is first looked up in the optional
  :class:`~repro.harness.cache.ResultCache`; hits never execute;
- the remaining specs run on a ``ProcessPoolExecutor`` when
  ``jobs > 1`` (worker processes import ``repro`` and call
  :func:`~repro.harness.jobs.run_job`), or inline when ``jobs == 1`` —
  the serial path exists both as a fallback for restricted environments
  and as the reference the determinism tests compare against;
- because a job derives every RNG stream from its spec, parallel
  execution is bit-identical to serial: there is no shared mutable
  state to race on, only an embarrassingly parallel fan-out;
- a :class:`~repro.guardrails.errors.GuardrailError` inside one job
  (livelock, invariant violation, wall-clock timeout) marks that job
  failed (``result is None``) without sinking the sweep; every other
  exception propagates, since it indicates a bug rather than a
  diverging simulation.  Completed points are cached as they finish, so
  a crashed or aborted sweep resumes from where it stopped;
- a **worker process dying mid-job** (OOM kill, segfault, ``os._exit``)
  breaks the whole ``ProcessPoolExecutor`` and poisons every in-flight
  future.  Instead of sinking the sweep, each affected job is re-run
  once in its own fresh single-worker pool: innocent bystanders
  complete normally, and only the job that kills its worker *again* is
  recorded failed;
- each job gets an optional **wall-clock timeout** (``timeout_s=`` or
  ``$REPRO_JOB_TIMEOUT_S``), enforced inside the worker with a timer
  thread, so one wedged simulation cannot stall a sweep forever — the
  timed-out job is recorded failed like a guardrail abort.
"""

from __future__ import annotations

import _thread
import os
import signal
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.guardrails.errors import GuardrailError
from repro.harness.cache import ResultCache
from repro.harness.jobs import JobSpec, run_job
from repro.sim.results import SimulationResult

__all__ = ["run_jobs", "HarnessReport", "JobRecord", "default_jobs",
           "job_timeout_s"]


def default_jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable.

    Defaults to 1 (serial) so library users opt in to parallelism; the
    CLI's ``--jobs`` flag overrides it.  ``REPRO_JOBS=0`` means "all
    cores".
    """
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    return resolve_jobs(jobs)


def resolve_jobs(jobs: int) -> int:
    """Normalize a worker-count request (``<= 0`` selects all cores)."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class JobRecord:
    """Telemetry for one job: where its result came from and how long."""

    label: str
    key: str  # spec content hash
    cached: bool
    seconds: float  # execution time (0.0 for cache hits)
    error: Optional[str] = None  # GuardrailError message, if the job failed

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class HarnessReport:
    """Outcome of one :func:`run_jobs` call."""

    results: List[Optional[SimulationResult]]
    records: List[JobRecord]
    workers: int
    wall_seconds: float
    description: str = "sweep"
    cache_stats: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None)

    @property
    def all_cached(self) -> bool:
        return self.total > 0 and self.cache_hits == self.total

    @property
    def job_seconds(self) -> float:
        """Total per-job execution time (> wall time when parallel)."""
        return sum(r.seconds for r in self.records)

    def summary(self) -> str:
        return (
            f"[{self.description}] {self.total} jobs: "
            f"{self.cache_hits} cache hits, {self.executed} executed, "
            f"{self.failed} failed; wall {self.wall_seconds:.2f}s "
            f"(job time {self.job_seconds:.2f}s, {self.workers} worker"
            f"{'s' if self.workers != 1 else ''})"
        )

    def perf_summary(self) -> dict:
        """Aggregate perf counters across the sweep (observability layer).

        Throughput is computed over *executed* jobs only (cache hits cost
        no simulation time); per-phase seconds are summed from every
        result that carries a :class:`~repro.observability.PerfCounters`
        snapshot, i.e. from jobs whose spec enabled profiling.  The cache
        hit rate folds in the on-disk cache statistics the report was
        built with.
        """
        executed = [
            (rec, res)
            for rec, res in zip(self.records, self.results)
            if not rec.cached and res is not None
        ]
        sim_cycles = sum(res.cycles for _, res in executed)
        sim_flits = sum(res.ejected_flits for _, res in executed)
        exec_seconds = sum(rec.seconds for rec, _ in executed)
        phase_seconds: Dict[str, float] = {}
        for _, res in executed:
            if res.perf is not None:
                for name, secs in res.perf.phase_seconds.items():
                    phase_seconds[name] = phase_seconds.get(name, 0.0) + secs
        total_phase = sum(phase_seconds.values())
        return {
            "jobs": self.total,
            "executed": len(executed),
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (
                self.cache_hits / self.total if self.total else 0.0
            ),
            "sim_cycles": sim_cycles,
            "sim_flits": sim_flits,
            "cycles_per_sec": (
                sim_cycles / exec_seconds if exec_seconds > 0 else 0.0
            ),
            "flits_per_sec": (
                sim_flits / exec_seconds if exec_seconds > 0 else 0.0
            ),
            "wall_seconds": self.wall_seconds,
            "job_seconds": self.job_seconds,
            "phase_seconds": phase_seconds,
            "phase_shares": (
                {n: s / total_phase for n, s in phase_seconds.items()}
                if total_phase > 0
                else {}
            ),
            "cache_stats": dict(self.cache_stats),
        }


def job_timeout_s() -> Optional[float]:
    """Per-job wall-clock budget from ``$REPRO_JOB_TIMEOUT_S`` (seconds).

    Unset, empty, or non-positive means no timeout.
    """
    raw = os.environ.get("REPRO_JOB_TIMEOUT_S", "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


def _interrupt_main_thread() -> None:
    """Raise KeyboardInterrupt in the process's main thread, now.

    A real ``SIGINT`` via ``pthread_kill`` interrupts even a blocking C
    call (a stuck filesystem read, a wedged native extension), which
    ``_thread.interrupt_main``'s interpreter-level flag cannot; the
    flag is the fallback where pthread signals are unavailable.
    """
    try:
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    except (AttributeError, ProcessLookupError, RuntimeError, OSError):
        _thread.interrupt_main()


def _timed_run(
    spec: JobSpec,
    timeout_s: Optional[float] = None,
) -> Tuple[Optional[SimulationResult], float, Optional[str]]:
    """Worker entry point: run one spec, returning (result, secs, error).

    Guardrail aborts come back as strings — exception instances with
    custom constructors do not all survive pickling, and the parent
    only needs the message for the job record.

    ``timeout_s`` (defaulting to ``$REPRO_JOB_TIMEOUT_S``, read here so
    pool workers honor it too) arms a daemon timer that interrupts the
    worker's main thread when the budget expires; the interrupted job
    is reported as a failure string like any guardrail abort.  A real
    Ctrl-C (no expired timer) still propagates.
    """
    if timeout_s is None:
        timeout_s = job_timeout_s()
    start = time.perf_counter()
    timer: Optional[threading.Timer] = None
    if timeout_s is not None and timeout_s > 0:
        timer = threading.Timer(timeout_s, _interrupt_main_thread)
        timer.daemon = True
        timer.start()
    try:
        result = run_job(spec)
        return result, time.perf_counter() - start, None
    except GuardrailError as error:
        return None, time.perf_counter() - start, f"{type(error).__name__}: {error}"
    except KeyboardInterrupt:
        if timer is None or not timer.finished.is_set():
            raise
        return (
            None,
            time.perf_counter() - start,
            f"JobTimeout: exceeded wall-clock budget of {timeout_s:g}s",
        )
    finally:
        if timer is not None:
            timer.cancel()


class _Progress:
    """Live one-line progress meter on stderr."""

    def __init__(self, enabled: bool, description: str, total: int):
        self.enabled = enabled
        self.description = description
        self.total = total
        self.done = 0
        self.hits = 0
        self.failed = 0
        self.start = time.perf_counter()

    def update(self, record: JobRecord) -> None:
        self.done += 1
        self.hits += int(record.cached)
        self.failed += int(record.error is not None)
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self.start
        line = (
            f"\r[{self.description}] {self.done}/{self.total} jobs  "
            f"{self.hits} cached  {self.done - self.hits} run  "
            f"{self.failed} failed  {elapsed:.1f}s"
        )
        sys.stderr.write(line)
        sys.stderr.flush()

    def finish(self) -> None:
        if self.enabled and self.total:
            sys.stderr.write("\n")
            sys.stderr.flush()


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, os.PathLike, None, bool] = None,
    progress: Union[bool, Callable[[JobRecord], None]] = False,
    description: str = "sweep",
    timeout_s: Optional[float] = None,
) -> HarnessReport:
    """Execute *specs*, in parallel and against the cache, in order.

    Parameters
    ----------
    specs:
        The experiment points.  ``results[i]`` in the returned report
        corresponds to ``specs[i]``.
    jobs:
        Worker processes; ``1`` runs inline (serial fallback), ``<= 0``
        uses every core, ``None`` reads ``$REPRO_JOBS`` (default 1).
    cache:
        A :class:`ResultCache`, a directory path to build one in,
        ``None`` to read ``$REPRO_CACHE_DIR`` (no caching when unset),
        or ``False`` to force caching off.
    progress:
        ``True`` draws a live progress line on stderr; a callable is
        invoked with each finished :class:`JobRecord` instead (testing /
        custom UIs).
    description:
        Tag used in the progress line and report summary.
    timeout_s:
        Per-job wall-clock budget in seconds; a job over budget is
        interrupted and recorded failed.  ``None`` reads
        ``$REPRO_JOB_TIMEOUT_S`` (no timeout when unset).
    """
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            raise TypeError(f"expected JobSpec, got {type(spec).__name__}")
    result_cache: Optional[ResultCache]
    if isinstance(cache, ResultCache):
        result_cache = cache
    elif isinstance(cache, bool):
        # Only ``False`` is documented; a bare ``True`` names no
        # directory to build a cache in, so both mean "no cache".
        result_cache = None
    elif cache is None:
        env_dir = os.environ.get("REPRO_CACHE_DIR") or None
        result_cache = ResultCache(env_dir) if env_dir else None
    else:
        result_cache = ResultCache(cache)
    jobs = default_jobs() if jobs is None else resolve_jobs(jobs)

    results: List[Optional[SimulationResult]] = [None] * len(specs)
    by_index: Dict[int, JobRecord] = {}
    on_record = progress if callable(progress) else None
    meter = _Progress(progress is True, description, len(specs))
    start = time.perf_counter()

    # ---- cache pass ---------------------------------------------------
    pending: List[int] = []
    for i, spec in enumerate(specs):
        hit = result_cache.get(spec) if result_cache is not None else None
        if hit is not None:
            results[i] = hit
            record = JobRecord(
                label=spec.label(),
                key=spec.content_hash(),
                cached=True,
                seconds=0.0,
            )
            by_index[i] = record
            meter.update(record)
            if on_record:
                on_record(record)
        else:
            pending.append(i)

    # ---- execution pass ----------------------------------------------
    def finish(
        i: int,
        result: Optional[SimulationResult],
        seconds: float,
        error: Optional[str],
    ) -> None:
        results[i] = result
        record = JobRecord(
            label=specs[i].label(),
            key=specs[i].content_hash(),
            cached=False,
            seconds=seconds,
            error=error,
        )
        by_index[i] = record
        if result_cache is not None and result is not None:
            result_cache.put(specs[i], result)
        meter.update(record)
        if on_record:
            on_record(record)

    workers = min(jobs, len(pending)) if pending else jobs
    if workers <= 1:
        for i in pending:
            finish(i, *_timed_run(specs[i], timeout_s))
    else:
        broken: List[int] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for n, i in enumerate(pending):
                try:
                    futures[pool.submit(_timed_run, specs[i], timeout_s)] = i
                except BrokenProcessPool:
                    # A worker died before every job was submitted: the
                    # unsubmitted jobs join the isolated retry below.
                    broken.extend(pending[n:])
                    break
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # A worker died (OOM kill, segfault, os._exit):
                        # this future and every other in-flight one are
                        # poisoned regardless of whose job was at fault.
                        broken.append(futures[future])
                        continue
                    finish(futures[future], *outcome)
        # Re-run each poisoned job once, isolated in its own fresh
        # single-worker pool: bystanders of the crash complete
        # normally, and only a job that kills its worker *again* is
        # abandoned.
        for i in sorted(broken):
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    outcome = pool.submit(
                        _timed_run, specs[i], timeout_s
                    ).result()
            except BrokenProcessPool:
                finish(
                    i, None, 0.0,
                    "WorkerDeath: worker process died twice running "
                    "this job; abandoned",
                )
                continue
            finish(i, *outcome)

    meter.finish()
    return HarnessReport(
        results=results,
        records=[by_index[i] for i in range(len(specs))],
        workers=workers,
        wall_seconds=time.perf_counter() - start,
        description=description,
        cache_stats=result_cache.stats() if result_cache is not None else {},
    )
