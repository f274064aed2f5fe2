"""Closed-loop policy tuning tests (``repro serve --tune``).

The scenario is the regime micro-batching exists for: a device with a
large per-invocation overhead (50 ms) under a load that saturates the
unbatched server.  Batch-size 1 policies blow the p99 target, batch-8
policies meet it — the tuner must pick a feasible point, report the
infeasible ones as such, and serve a complete re-tune from the cache.
"""

import pytest

from repro.api.session import Session
from repro.api.spec import DatasetSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.serve import LoadSpec, ServePolicy, ServiceModel
from repro.serve.tune import tune_policy

SLO_P99_MS = 300.0
BATCH_GRID = (1, 8)
WAIT_GRID = (0.0, 40.0)


def _base_spec():
    return ServeSpec(
        system=SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False),
        dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=20),
        load=LoadSpec(
            pattern="uniform", num_streams=2, rate_hz=10.0, frames_per_stream=15
        ),
        policy=ServePolicy(slo_ms=500.0),
        # Overhead-dominated accelerator: unbatched service costs 100 ms
        # per frame against a 100 ms per-stream inter-arrival — saturated.
        service=ServiceModel(invocation_overhead_ms=50.0, gops_per_second=1e6),
    )


@pytest.fixture(scope="module")
def tuned(tmp_path_factory):
    session = Session(cache_dir=tmp_path_factory.mktemp("tune-cache"))
    result = session.tune_serve(
        _base_spec(),
        slo_p99_ms=SLO_P99_MS,
        batch_sizes=BATCH_GRID,
        max_waits_ms=WAIT_GRID,
    )
    return session, result


class TestTunePolicy:
    def test_best_meets_slo_and_rejected_does_not(self, tuned):
        _, result = tuned
        assert result.best is not None
        assert result.best.feasible
        assert result.best.p99_ms <= SLO_P99_MS
        assert result.best.report.frames_shed == 0
        rejected = [c for c in result.candidates if not c.feasible]
        assert rejected, "the grid must contain an infeasible policy"
        assert all(c.p99_ms > SLO_P99_MS for c in rejected)
        # The saturating unbatched policies are the infeasible ones.
        assert {c.spec.policy.max_batch_size for c in rejected} == {1}
        assert result.best.spec.policy.max_batch_size == 8

    def test_best_is_cheapest_feasible(self, tuned):
        _, result = tuned
        feasible = [c for c in result.candidates if c.feasible]
        assert result.best.cost_seconds == min(c.cost_seconds for c in feasible)

    def test_grid_covers_all_points(self, tuned):
        _, result = tuned
        points = {
            (c.spec.policy.max_batch_size, c.spec.policy.max_wait_ms)
            for c in result.candidates
        }
        assert points == {(b, w) for b in BATCH_GRID for w in WAIT_GRID}

    def test_retune_is_pure_cache_hits(self, tuned):
        session, first = tuned
        hits_before = session.cache_hits
        misses_before = session.cache_misses
        again = session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
        )
        assert session.cache_misses == misses_before  # zero new computes
        # Aliases never touch the cache: only canonical points are served.
        unique = [c for c in first.candidates if c.alias_of is None]
        assert session.cache_hits == hits_before + len(unique)
        assert again.best.spec.fingerprint == first.best.spec.fingerprint
        assert again.best.report.to_dict() == first.best.report.to_dict()

    def test_format_names_best_policy(self, tuned):
        _, result = tuned
        text = result.format()
        assert "Policy sweep" in text
        assert "best policy: max_batch_size=8" in text

    def test_candidates_surface_cost_per_frame(self, tuned):
        import math

        _, result = tuned
        for cand in result.candidates:
            if cand.report.frames_served:
                cpf = cand.cost_per_frame
                assert math.isfinite(cpf) and cpf >= 0.0
                rate = cand.spec.service.cost_model().profile.cost_per_second
                assert cpf == pytest.approx(
                    cand.cost_seconds * rate / cand.report.frames_served
                )
        assert "cost/kf" in result.format()

    def test_infeasible_everywhere_returns_none(self, tuned):
        session, _ = tuned
        result = tune_policy(
            session,
            _base_spec(),
            slo_p99_ms=1.0,  # nothing meets 1 ms end-to-end
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
        )
        assert result.best is None
        assert "infeasible" in result.format()

    def test_validation(self, tuned):
        session, _ = tuned
        with pytest.raises(ValueError, match="slo_p99_ms"):
            tune_policy(session, _base_spec(), slo_p99_ms=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            tune_policy(
                session, _base_spec(), slo_p99_ms=100.0, batch_sizes=()
            )

    def test_progress_callback_fires_per_point(self, tuned):
        session, _ = tuned
        seen = []
        tune_policy(
            session,
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
            on_progress=lambda done, total, label: seen.append((done, total)),
        )
        assert seen == [(i + 1, 4) for i in range(4)]


class TestGridDedupe:
    def test_wait_axis_collapses_at_batch_one(self, tuned):
        """Any ``max_wait_ms`` at ``max_batch_size=1`` is the same
        effective policy: one simulation, the rest are marked aliases."""
        _, result = tuned
        aliases = [c for c in result.candidates if c.alias_of is not None]
        assert len(aliases) == 1
        (alias,) = aliases
        assert alias.spec.policy.max_batch_size == 1
        assert alias.spec.policy.max_wait_ms == 40.0
        assert alias.alias_of == "batch=1 wait=0ms"
        canonical = next(
            c for c in result.candidates
            if c.spec.policy.max_batch_size == 1
            and c.spec.policy.max_wait_ms == 0.0
        )
        assert canonical.alias_of is None
        assert alias.report is canonical.report
        assert alias.feasible == canonical.feasible

    def test_cold_sweep_simulates_only_unique_points(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        result = session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
        )
        unique = [c for c in result.candidates if c.alias_of is None]
        assert len(unique) == 3  # (1,*) collapsed; (8,0) and (8,40) distinct
        assert session.cache_misses == len(unique)

    def test_best_is_never_an_alias(self, tuned):
        _, result = tuned
        assert result.best.alias_of is None

    def test_format_marks_aliases(self, tuned):
        _, result = tuned
        assert "= batch=1 wait=0ms" in result.format()


class TestParallelSweep:
    def test_workers_match_serial_byte_for_byte(self, tmp_path):
        serial_session = Session(cache_dir=tmp_path / "a")
        serial = serial_session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
        )
        par_session = Session(cache_dir=tmp_path / "b")
        par = par_session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
            workers=2,
        )
        assert par.best.spec.fingerprint == serial.best.spec.fingerprint
        for a, b in zip(serial.candidates, par.candidates):
            assert a.spec.fingerprint == b.spec.fingerprint
            assert a.feasible == b.feasible
            assert a.alias_of == b.alias_of
            assert a.report.to_dict() == b.report.to_dict()

    def test_parallel_progress_covers_every_point_once(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        seen = []
        session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
            workers=2,
            on_progress=lambda done, total, label: seen.append(
                (done, total, label)
            ),
        )
        # As-completed ordering, but the counter is dense and total fixed.
        assert [d for d, _, _ in seen] == [1, 2, 3, 4]
        assert all(t == 4 for _, t, _ in seen)
        labels = {label.split(" (= ")[0] for _, _, label in seen}
        assert labels == {
            f"batch={b} wait={w:g}ms" for b in BATCH_GRID for w in WAIT_GRID
        }

    def test_parallel_retune_is_serial_cache_hits(self, tmp_path):
        """A warm re-tune never spawns a pool: every unique point is
        already cached, so hits land on the parent session."""
        session = Session(cache_dir=tmp_path / "cache")
        first = session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
            workers=2,
        )
        hits_before = session.cache_hits
        again = session.tune_serve(
            _base_spec(),
            slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID,
            max_waits_ms=WAIT_GRID,
            workers=2,
        )
        unique = [c for c in first.candidates if c.alias_of is None]
        assert session.cache_hits == hits_before + len(unique)
        assert again.best.report.to_dict() == first.best.report.to_dict()

    def test_parallel_cold_sweep_counts_like_serial(self, tmp_path):
        """Worker processes' cache and trace counters reach the parent: a
        ``workers=2`` cold sweep leaves the session counting exactly what
        the serial sweep counts."""

        def counters(name, workers):
            session = Session(cache_dir=tmp_path / name)
            session.tune_serve(
                _base_spec(),
                slo_p99_ms=SLO_P99_MS,
                batch_sizes=BATCH_GRID,
                max_waits_ms=WAIT_GRID,
                workers=workers,
            )
            return {
                "cache_hits": session.cache_hits,
                "cache_misses": session.cache_misses,
                "trace_hits": session.trace_hits,
                "trace_misses": session.trace_misses,
                "frames_replayed": session.frames_replayed,
            }

        serial = counters("serial", None)
        assert serial["trace_hits"] > 0 and serial["frames_replayed"] > 0
        assert counters("parallel", 2) == serial


class TestQueueWaitBound:
    def test_wait_bound_tightens_feasibility(self, tuned):
        """A generous p99 with a tiny queue-wait bound must reject more
        candidates than the p99 target alone."""
        session, _ = tuned
        unbounded = tune_policy(
            session, _base_spec(), slo_p99_ms=10_000.0,
            batch_sizes=BATCH_GRID, max_waits_ms=WAIT_GRID,
        )
        bounded = tune_policy(
            session, _base_spec(), slo_p99_ms=10_000.0, slo_wait_p95_ms=0.001,
            batch_sizes=BATCH_GRID, max_waits_ms=WAIT_GRID,
        )
        assert all(c.feasible for c in unbounded.candidates)
        assert not any(c.feasible for c in bounded.candidates)
        assert bounded.best is None
        assert bounded.slo_wait_p95_ms == 0.001
        # The verdict names the wait bound, not just the p99 target.
        assert "queue-wait p95" in bounded.format()

    def test_loose_wait_bound_changes_nothing(self, tuned):
        session, _ = tuned
        plain = tune_policy(
            session, _base_spec(), slo_p99_ms=SLO_P99_MS,
            batch_sizes=BATCH_GRID, max_waits_ms=WAIT_GRID,
        )
        bounded = tune_policy(
            session, _base_spec(), slo_p99_ms=SLO_P99_MS,
            slo_wait_p95_ms=1e6,
            batch_sizes=BATCH_GRID, max_waits_ms=WAIT_GRID,
        )
        assert [c.feasible for c in bounded.candidates] == [
            c.feasible for c in plain.candidates
        ]
        assert bounded.best.spec.fingerprint == plain.best.spec.fingerprint

    def test_candidates_surface_wait_percentile(self, tuned):
        _, result = tuned
        assert all(c.wait_p95_ms >= 0.0 for c in result.candidates)
        # Saturating unbatched policies park frames in the queue; the
        # batched ones drain it — waits must reflect that ordering.
        slow = max(c.wait_p95_ms for c in result.candidates
                   if c.spec.policy.max_batch_size == 1)
        fast = min(c.wait_p95_ms for c in result.candidates
                   if c.spec.policy.max_batch_size == 8)
        assert slow > fast

    def test_validation(self, tuned):
        session, _ = tuned
        with pytest.raises(ValueError, match="slo_wait_p95_ms"):
            tune_policy(
                session, _base_spec(), slo_p99_ms=100.0, slo_wait_p95_ms=0.0
            )
