"""Robustness tests for the harness: worker death and job timeouts.

The worker-death tests patch ``repro.harness.executor.run_job`` and rely
on the ``fork`` start method to carry the patch into pool workers; they
skip on platforms where workers are spawned fresh.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.harness import JobSpec, ResultCache, run_jobs
from repro.harness.executor import _timed_run, job_timeout_s
from repro.harness.jobs import run_job as real_run_job

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-death injection requires fork-inherited patches",
)

#: Sentinel seed: the patched run_job kills its worker for this spec.
CRASH_SEED = 666


def small_spec(**overrides) -> JobSpec:
    kw = dict(app_names=("mcf",) * 16, cycles=1200, seed=1, epoch=400)
    kw.update(overrides)
    return JobSpec(**kw)


def _crash_or_run(spec):
    if spec.seed == CRASH_SEED:
        os._exit(13)  # simulate an OOM kill / segfault: no cleanup, no excuses
    return real_run_job(spec)


def _sleep_or_run(spec):
    if spec.seed == CRASH_SEED:
        time.sleep(60)
    return real_run_job(spec)


class TestWorkerDeath:
    @needs_fork
    def test_dead_worker_fails_only_its_job(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _crash_or_run)
        specs = [small_spec(seed=s) for s in (1, CRASH_SEED, 2, 3)]
        report = run_jobs(specs, jobs=2, cache=False)
        victim = report.records[1]
        assert not victim.ok
        assert "WorkerDeath" in victim.error
        assert report.results[1] is None
        # Innocent bystanders — including futures poisoned by the pool
        # break — all complete.
        assert report.failed == 1
        for i in (0, 2, 3):
            assert report.records[i].ok
            assert report.results[i] is not None
            assert report.results[i].to_dict() == real_run_job(specs[i]).to_dict()

    @needs_fork
    def test_crash_results_are_not_cached(self, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.harness.executor.run_job", _crash_or_run)
        specs = [small_spec(seed=CRASH_SEED), small_spec(seed=2)]
        run_jobs(specs, jobs=2, cache=tmp_path)
        # Only the surviving job may populate the cache.
        cache = ResultCache(tmp_path)
        assert cache.get(specs[0]) is None
        assert cache.get(specs[1]) is not None


    @needs_fork
    def test_worker_death_during_submission(self, monkeypatch, tmp_path):
        """A worker that dies while jobs are still being submitted must
        not abort the sweep: the unsubmitted jobs are retried too."""
        monkeypatch.setattr("repro.harness.executor.run_job", _crash_or_run)
        real_submit = ProcessPoolExecutor.submit

        def slow_submit(pool, *args, **kwargs):
            time.sleep(0.5)  # the crash lands before the next submit
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", slow_submit)
        specs = [small_spec(seed=s) for s in (CRASH_SEED, 2, 3)]
        report = run_jobs(specs, jobs=2, cache=tmp_path)
        assert len(report.records) == len(specs)
        assert "WorkerDeath" in report.records[0].error
        assert [r.ok for r in report.records[1:]] == [True, True]
        cache = ResultCache(tmp_path)
        assert cache.get(specs[0]) is None
        for spec in specs[1:]:
            assert cache.get(spec) is not None


class TestJobTimeout:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT_S", raising=False)
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "")
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "0")
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "2.5")
        assert job_timeout_s() == 2.5

    def test_serial_timeout_records_failure(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        # The innocent job (~0.6s) fits well inside the 3s budget; the
        # wedged one sleeps 60s and must be cut off at the budget.
        specs = [small_spec(seed=CRASH_SEED),
                 small_spec(seed=2, cycles=600, epoch=300)]
        start = time.perf_counter()
        report = run_jobs(specs, jobs=1, cache=False, timeout_s=3.0)
        assert time.perf_counter() - start < 30
        assert report.results[0] is None
        assert "JobTimeout" in report.records[0].error
        # The budget is per job: the fast job still fits in it.
        assert report.records[1].ok
        assert report.results[1] is not None

    def test_env_var_applies_without_kwarg(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "1.0")
        report = run_jobs([small_spec(seed=CRASH_SEED)], jobs=1, cache=False)
        assert report.failed == 1
        assert "JobTimeout" in report.records[0].error

    @needs_fork
    def test_parallel_timeout_does_not_break_the_pool(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        specs = [small_spec(seed=CRASH_SEED),
                 small_spec(seed=2, cycles=600, epoch=300)]
        report = run_jobs(specs, jobs=2, cache=False, timeout_s=3.0)
        assert "JobTimeout" in report.records[0].error
        assert report.records[1].ok

    def test_generous_budget_leaves_result_intact(self):
        spec = small_spec()
        result, seconds, error = _timed_run(spec, timeout_s=300.0)
        assert error is None and seconds > 0
        assert result.to_dict() == real_run_job(spec).to_dict()
        # The timer must be cancelled: no stray KeyboardInterrupt later.
        time.sleep(0.05)

    def test_real_ctrl_c_still_propagates(self, monkeypatch):
        def interrupted(_spec):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.harness.executor.run_job", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _timed_run(small_spec(), timeout_s=300.0)
