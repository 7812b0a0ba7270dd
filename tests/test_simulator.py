import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from wedgeq import (
    ErrorCurve,
    InfeasibleError,
    ManualRoute,
    QueueInputs,
    ReworkModel,
    RiskMap,
    SignalEnvironment,
    SimConfig,
    SimStats,
    ValidationError,
    WorkflowSpec,
    ai_route_moments,
    fixture_path,
    load_config,
    mixed_moments,
    policy_route_moments,
    replicate,
    residual_risk,
    run,
    simulator,
    solve_equilibrium,
    verification,
    wq_pk,
)
from wedgeq._kernels import QueueState, simulate_fifo
from wedgeq.cli import main
from wedgeq.config import MAX_ARRIVALS, MAX_BATCHES, MAX_REPS, SimSettings
from wedgeq.service_model import sample_gamma
from wedgeq.simulator import _CHUNK, _sorted_quantiles

from test_kernels import _heap_oracle

RISK = RiskMap(a=0.02, b=0.88, g=10.0, s0=0.55)
ENV = SignalEnvironment(
    risk_map=RISK, signal_alpha=2.0, signal_beta=2.0, K=2.0, kappa=2.0, c_w=0.5
)


def _fixed_workflow(lam=0.5, c2_H=1.0, x=0.0, c2_a=1.0, tau_H=1.0, review_r=0.5,
                    capacity=1.0):
    return WorkflowSpec(
        lam=lam,
        capacity=capacity,
        manual=ManualRoute(tau_H=tau_H, c2_H=c2_H),
        rework=ReworkModel(mu_R=7.0 / 3.0, mu_R2=6.8375),
        x=x,
        c2_a=c2_a,
        curve=ErrorCurve(p0=0.15, p_inf=0.15, kappa=2.0),
        review_r=review_r,
    )


def _policy_workflow(lam=0.75):
    return WorkflowSpec(
        lam=lam,
        capacity=1.0,
        manual=ManualRoute(tau_H=1.0, c2_H=0.10),
        rework=ReworkModel(mu_R=1.5, mu_R2=4.0),
        env=ENV,
    )


def _count_calls(monkeypatch, *names):
    """Count the calls of each of names, through the simulator's binding and verification's."""
    calls = dict.fromkeys(names, 0)
    for module in (simulator, verification):
        for name in names:
            def counted(*args, _name=name, _func=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _func(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def _config(workflow, n=16_000, seed=11, **kw):
    return SimConfig(workflow=workflow, n_arrivals=n, seed=seed, **kw)


def _digest(stats) -> str:
    """The first 16 hex digits of the sha256 of repr(astuple(stats))."""
    return hashlib.sha256(repr(dataclasses.astuple(stats)).encode()).hexdigest()[:16]


def _pinned_workflow(kind, x):
    """The fixed-effort or policy workflow of TestStreaming.PINS at route share x."""
    if kind == "fixed":
        return _fixed_workflow(lam=0.6, x=x)
    return dataclasses.replace(_policy_workflow(), x=x)


def _perfbench_tracing():
    """perfbench's tracing module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _analytic_wq(workflow):
    ai = ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
    mix = mixed_moments(workflow.manual, ai, workflow.x)
    return wq_pk(
        QueueInputs(lam=workflow.lam, capacity=workflow.capacity, service=mix,
                    c2_a=workflow.c2_a)
    ).wq


class TestDeterminism:
    def test_same_seed_same_stats(self):
        config = _config(_fixed_workflow(x=1.0))
        assert run(config) == run(config)

    def test_different_seed_differs(self):
        config = _config(_fixed_workflow(x=1.0))
        assert run(config).wq_mean != run(dataclasses.replace(config, seed=12)).wq_mean

    def test_replicate_one_equals_run(self):
        config = _config(_fixed_workflow(x=0.3), reps=1)
        assert replicate(config) == run(config)

    def test_replications_are_independent_substreams(self):
        config = _config(_fixed_workflow(x=0.3), reps=3)
        agg = replicate(config)
        assert len(agg.batch_means) == 3
        assert len(set(agg.batch_means)) == 3
        assert agg.n_arrivals == 3 * config.n_arrivals
        assert agg.batch_means[0] == run(config).wq_mean
        assert agg.wq_mean == pytest.approx(np.mean(agg.batch_means), rel=1e-12)


class TestAgainstClosedForms:
    def test_poisson_exponential_service(self):
        # lam=0.5 against an exponential unit-mean manual route: wq = 1.
        workflow = _fixed_workflow(lam=0.5, c2_H=1.0, x=0.0)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert not stats.unstable
        assert abs(stats.wq_mean - 1.0) <= stats.wq_ci_half_width

    def test_poisson_deterministic_service(self):
        workflow = _fixed_workflow(lam=0.5, c2_H=0.0, x=0.0)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert abs(stats.wq_mean - 0.5) <= stats.wq_ci_half_width

    def test_fully_deterministic_flow_never_waits(self):
        workflow = _fixed_workflow(lam=0.5, c2_H=0.0, x=0.0, c2_a=0.0)
        stats = run(_config(workflow, n=20_000))
        assert stats.wq_mean == 0.0
        assert stats.wq_ci_half_width == 0.0
        assert stats.wq_p99 == 0.0
        assert stats.rho_hat == pytest.approx(0.5, rel=1e-6)

    def test_mixed_route_covers_pk(self):
        workflow = _fixed_workflow(lam=0.6, c2_H=0.10, x=0.5, review_r=0.5)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert abs(stats.wq_mean - _analytic_wq(workflow)) <= stats.wq_ci_half_width

    def test_capacity_rescales_time(self):
        # Doubling capacity halves every attention-hour of service time.
        workflow = _fixed_workflow(lam=1.0, c2_H=1.0, x=0.0, capacity=2.0)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert abs(stats.wq_mean - _analytic_wq(workflow)) <= stats.wq_ci_half_width
        assert stats.rho_hat == pytest.approx(0.5, rel=0.02)


class TestEstimatorInternals:
    def test_shapes_and_bookkeeping(self):
        config = _config(_fixed_workflow(x=0.4), n=16_000)
        stats = run(config)
        assert stats.warmup_skipped == 3_200
        assert len(stats.batch_means) == 32
        assert stats.wq_p50 <= stats.wq_p90 <= stats.wq_p99

    def test_sojourn_decomposes_in_folded_mode(self):
        config = _config(_fixed_workflow(x=0.4), n=16_000)
        stats = run(config)
        assert stats.sojourn_mean == pytest.approx(
            stats.wq_mean + stats.service_mean, rel=1e-9
        )

    def test_occupancy_tracks_offered_load(self):
        workflow = _fixed_workflow(lam=0.6, x=0.5)
        ai = ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
        offered = 0.6 * mixed_moments(workflow.manual, ai, 0.5).mean
        stats = run(_config(workflow, n=100_000))
        assert stats.rho_hat == pytest.approx(offered, rel=0.03)
        assert stats.busy_fraction == pytest.approx(stats.rho_hat, rel=0.03)

    def test_escape_rate_matches_error_curve(self):
        stats = run(_config(_fixed_workflow(x=1.0), n=100_000))
        n_ai = stats.n_arrivals - stats.warmup_skipped
        se = math.sqrt(0.15 * 0.85 / n_ai)
        assert stats.escape_rate == pytest.approx(0.15, abs=4 * se)

    @pytest.mark.parametrize("mode", ["folded", "feedback"])
    @pytest.mark.parametrize("x", [1.0, 0.5, 0.0])
    def test_escape_counts_split_exactly_at_the_warmup(self, mode, x):
        # The route coins and escape flags, regenerated from the run's
        # substreams (route choice is the second of six, escape flags the
        # fourth): the k-th AI task takes the k-th escape draw.  The warm-up
        # ends inside the second chunk, on an escaped arrival.
        n, seed = 40_000, 11
        workflow = _fixed_workflow(x=x)
        streams = np.random.SeedSequence(entropy=seed, spawn_key=(0,)).spawn(6)
        rng_route, rng_escape = (np.random.default_rng(streams[i]) for i in (1, 3))
        is_ai = rng_route.random(n) < x if 0.0 < x < 1.0 else np.full(n, x >= 1.0)
        escaped = np.zeros(n, dtype=bool)
        escaped[is_ai] = rng_escape.random(int(is_ai.sum())) < 0.15
        k0 = int(np.flatnonzero(escaped[_CHUNK + 100 :])[0]) + _CHUNK + 100 if x else 18_000
        assert _CHUNK < k0 < 2 * _CHUNK
        stats = run(_config(workflow, n=n, seed=seed, rework_mode=mode,
                            warmup_fraction=(k0 + 0.5) / n))
        assert stats.warmup_skipped == k0
        if x:
            assert escaped[k0]
            assert stats.escape_rate == escaped[k0:].sum() / is_ai[k0:].sum()
        else:
            assert stats.escape_rate is None
        assert stats.n_rework_jobs == (escaped.sum() if mode == "feedback" else 0)

    def test_no_ai_traffic_no_escape_estimate(self):
        stats = run(_config(_fixed_workflow(x=0.0)))
        assert stats.escape_rate is None
        assert stats.n_rework_jobs == 0

    def test_unstable_flag(self):
        stats = run(_config(_fixed_workflow(lam=1.2, x=0.0), n=20_000))
        assert stats.unstable

    def test_interarrival_families(self):
        rng = np.random.default_rng(0)
        workflow = _fixed_workflow(lam=0.5, c2_a=0.4)
        gaps = sample_gamma(rng, *_config(workflow).gap, 400_000)
        assert gaps.mean() == pytest.approx(2.0, rel=0.02)
        c2 = gaps.var() / gaps.mean() ** 2
        assert c2 == pytest.approx(0.4, rel=0.03)
        assert _config(workflow).arrival_family == "gamma-renewal"
        assert _config(_fixed_workflow(c2_a=0.0)).arrival_family == "deterministic"
        assert _config(_fixed_workflow(c2_a=1.0)).arrival_family == "poisson"


class TestStreaming:
    """simulator.run draws, walks and reduces one chunk of arrivals at a time."""

    # Every Generator call the simulator makes, as (name, draw(rng, size)), and
    # the exponential and shape-1 gamma calls whose bits its shape-1 draws equal.
    DRAWS = [
        ("exponential", lambda rng, k: rng.exponential(2.0, k)),
        ("standard_exponential", lambda rng, k: rng.standard_exponential(k)),
        ("gamma shape < 1", lambda rng, k: rng.gamma(0.3, 1.5, k)),
        ("gamma shape = 1", lambda rng, k: rng.gamma(1.0, 1.5, k)),
        ("gamma shape > 1", lambda rng, k: rng.gamma(4.2, 0.5, k)),
        ("random", lambda rng, k: rng.random(k)),
        ("beta", lambda rng, k: rng.beta(5.0, 2.0, k)),
    ]

    @pytest.mark.parametrize("draw", [d for _, d in DRAWS], ids=[n for n, _ in DRAWS])
    def test_chunked_draws_continue_one_stream(self, draw):
        # The premise of streaming: draws in chunks of any sizes, concatenated,
        # are bit for bit one draw of the total size.
        sizes = [1, 7, 0, _CHUNK, 3, 5_000, 11]
        whole = draw(np.random.default_rng(3), sum(sizes))
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal(np.concatenate([draw(rng, k) for k in sizes]), whole)

    @pytest.mark.parametrize("mode", ["folded", "feedback"])
    @pytest.mark.parametrize("n", [5 * _CHUNK, 70_001], ids=["k0-on-boundary", "k0-inside"])
    def test_running_sums_match_the_whole_run(self, monkeypatch, mode, n):
        # The chunk calls, replayed through a fresh queue state and joined,
        # give the same statistics: the waits-derived ones bit for bit, the
        # running sums to rounding, and the mean sojourn that of an event-heap
        # replay of the whole run.  At n = 5 chunks the warm-up ends on a
        # chunk boundary, and a warm-up parent's rework is carried into the
        # first measured chunk.
        workflow = _fixed_workflow(lam=0.6, x=0.5)
        calls, carried = [], []

        def capture(*args, **kwargs):
            calls.append(([np.copy(a) for a in args], kwargs["last"]))
            result = simulate_fifo(*args, **kwargs)
            carried.append(kwargs["state"].entries.size)
            return result

        monkeypatch.setattr(simulator, "simulate_fifo", capture)
        stats = run(_config(workflow, n=n, seed=9, rework_mode=mode))
        gaps, services, spawn_mask, rework_services = (
            np.concatenate(chunks) for chunks in zip(*(args for args, _ in calls))
        )
        k0 = stats.warmup_skipped
        if n == 5 * _CHUNK and mode == "feedback":
            assert carried[0] > 0
        state, outputs, busy = QueueState(), [], 0.0
        for args, last in calls:
            *output, end, call_busy = simulate_fifo(*args, state=state, last=last)
            outputs.append(output)
            busy += call_busy
        waits, rework_waits = (np.concatenate(parts) for parts in zip(*outputs))
        post = waits[k0:]
        assert stats.n_rework_jobs == rework_waits.size
        assert [stats.wq_p50, stats.wq_p90, stats.wq_p99] == list(
            np.quantile(post, [0.5, 0.9, 0.99])
        )
        batches = post[: post.size // 32 * 32].reshape(32, -1)
        assert stats.wq_mean == batches.mean(axis=1).mean()
        # Capacity is 1, so a service is its attention.
        chain_attention = services.copy()
        chain_attention[spawn_mask.astype(bool)] += rework_services
        assert stats.rho_hat == pytest.approx(
            chain_attention[k0:].sum() / gaps[k0:].sum(), rel=1e-13
        )
        assert stats.service_m2 == pytest.approx(np.square(chain_attention[k0:]).mean(), rel=1e-13)
        assert stats.busy_fraction == pytest.approx(busy / end, rel=1e-13)
        if mode == "folded":  # folded calls pass an empty spawn mask
            spawn_mask = np.zeros(gaps.size, dtype=bool)
        arrivals = np.cumsum(gaps)
        chain = _heap_oracle(arrivals, services, spawn_mask, rework_services)[4]
        assert stats.sojourn_mean == pytest.approx((chain - arrivals)[k0:].mean(), rel=1e-12)

    @pytest.mark.parametrize("mode", ["folded", "feedback"])
    @pytest.mark.parametrize("name", ["fig2", "fig5-beta52"])
    def test_memory_is_the_post_warmup_waits(self, mode, name):
        # A run keeps 8 bytes per post-warm-up arrival (its waits); the rest
        # is a fixed allowance of chunk-sized float arrays, whatever n is:
        # the chunk being walked and the one drawn ahead of it.  Over the
        # six fixtures at 2e5 and 1e6 arrivals a folded run peaks at 4.3-6.8
        # of them and a feedback run at 14.0-20.8, on two cores or pinned to
        # one; the allowance was set before the chunks were drawn ahead, at
        # the maxima then (8.0 and 18.4) plus about two and five.
        config = dataclasses.replace(
            SimConfig.from_workflow(load_config(fixture_path(f"{name}.json"))),
            n_arrivals=200_000, rework_mode=mode,
        )
        run(config)  # any lazy set-up outside the measurement
        tracemalloc.start()
        try:
            stats = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowance = {"folded": 10, "feedback": 24}[mode]
        assert peak <= 8 * (stats.n_arrivals - stats.warmup_skipped) + allowance * 8 * _CHUNK

    # Pins of whole runs, taken before post-warm-up chunks were walked in
    # place: the first 16 hex digits of the sha256 of repr(astuple(stats)),
    # at seed 9, so any moved bit of any statistic shows.  The runs are part
    # of a chunk, one chunk, one chunk and one arrival (a last chunk of one,
    # walked in place), five chunks (the warm-up ends on a chunk edge) and a
    # run ending in part of a chunk; x = 1 and x = 0 draw no routing coin.
    # At x = 0 no draft reworks, so a folded and a feedback run are the same
    # run and share a pin.
    PINS = {
        ("fixed", "folded", 3200, 1.0): "fe7b99813611f1a2",
        ("fixed", "folded", 3200, 0.5): "2e0696d80e1be97f",
        ("fixed", "folded", 3200, 0.0): "ccc2f8d9429630a3",
        ("fixed", "folded", 16384, 1.0): "6013410e45ff8bea",
        ("fixed", "folded", 16384, 0.5): "e591a193fae2641c",
        ("fixed", "folded", 16384, 0.0): "3c7b299d37c4eda4",
        ("fixed", "folded", 16385, 1.0): "509c1fb20441b2dc",
        ("fixed", "folded", 16385, 0.5): "986fba1f6b9bf98e",
        ("fixed", "folded", 16385, 0.0): "6c93e33b535d7f3f",
        ("fixed", "folded", 81920, 1.0): "82d1fc3587903a50",
        ("fixed", "folded", 81920, 0.5): "0cb8120bd98b3b5f",
        ("fixed", "folded", 81920, 0.0): "84966f2a407dbc34",
        ("fixed", "folded", 70001, 1.0): "78acb2d9fab95714",
        ("fixed", "folded", 70001, 0.5): "b20b750e971e2aa8",
        ("fixed", "folded", 70001, 0.0): "f5b2bea8db83b562",
        ("fixed", "feedback", 3200, 1.0): "7930c074a9920b98",
        ("fixed", "feedback", 3200, 0.5): "1d7dfa74c19ebbb2",
        ("fixed", "feedback", 3200, 0.0): "ccc2f8d9429630a3",
        ("fixed", "feedback", 16384, 1.0): "4867f44257587971",
        ("fixed", "feedback", 16384, 0.5): "44258ef16cdb45a3",
        ("fixed", "feedback", 16384, 0.0): "3c7b299d37c4eda4",
        ("fixed", "feedback", 16385, 1.0): "63dc2690ce0af060",
        ("fixed", "feedback", 16385, 0.5): "7c05b444fb87158a",
        ("fixed", "feedback", 16385, 0.0): "6c93e33b535d7f3f",
        ("fixed", "feedback", 81920, 1.0): "1c0db084e0fbef15",
        ("fixed", "feedback", 81920, 0.5): "6d4aba1f5d161790",
        ("fixed", "feedback", 81920, 0.0): "84966f2a407dbc34",
        ("fixed", "feedback", 70001, 1.0): "e5cc5b77542ffe06",
        ("fixed", "feedback", 70001, 0.5): "642303a8f433db6f",
        ("fixed", "feedback", 70001, 0.0): "f5b2bea8db83b562",
        ("policy", "folded", 3200, 1.0): "8feb95f5824e8798",
        ("policy", "folded", 3200, 0.5): "0d48938c815be808",
        ("policy", "folded", 3200, 0.0): "e7c514233550d5ed",
        ("policy", "folded", 16384, 1.0): "91c88be79f4c86c1",
        ("policy", "folded", 16384, 0.5): "eabcb177bab86cf0",
        ("policy", "folded", 16384, 0.0): "f76e7018387ee928",
        ("policy", "folded", 16385, 1.0): "cd50478781c837c6",
        ("policy", "folded", 16385, 0.5): "f57c1efc648abe5f",
        ("policy", "folded", 16385, 0.0): "bcd654f09daf9342",
        ("policy", "folded", 81920, 1.0): "1551ceb6cdfab4fd",
        ("policy", "folded", 81920, 0.5): "b62c68b11e745f88",
        ("policy", "folded", 81920, 0.0): "10d3080a986286a1",
        ("policy", "folded", 70001, 1.0): "c30574f2b7062a51",
        ("policy", "folded", 70001, 0.5): "91d3cd118d3b4e6a",
        ("policy", "folded", 70001, 0.0): "8a100e73a7a218e4",
        ("policy", "feedback", 3200, 1.0): "65c74be816720c41",
        ("policy", "feedback", 3200, 0.5): "c9b1e3b7693feea5",
        ("policy", "feedback", 3200, 0.0): "e7c514233550d5ed",
        ("policy", "feedback", 16384, 1.0): "34e05d0ffdd8a55b",
        ("policy", "feedback", 16384, 0.5): "fcd44866d93a500f",
        ("policy", "feedback", 16384, 0.0): "f76e7018387ee928",
        ("policy", "feedback", 16385, 1.0): "8cb6ba1565327120",
        ("policy", "feedback", 16385, 0.5): "ded3d417fa4a06e7",
        ("policy", "feedback", 16385, 0.0): "bcd654f09daf9342",
        ("policy", "feedback", 81920, 1.0): "f8b7726cdacf5264",
        ("policy", "feedback", 81920, 0.5): "b8e9c4af4ca05e56",
        ("policy", "feedback", 81920, 0.0): "10d3080a986286a1",
        ("policy", "feedback", 70001, 1.0): "18b6ebdec9a66ac3",
        ("policy", "feedback", 70001, 0.5): "629292f772130080",
        ("policy", "feedback", 70001, 0.0): "8a100e73a7a218e4",
    }

    @pytest.mark.parametrize("kind, mode, n, x", list(PINS))
    def test_stats_are_pinned(self, kind, mode, n, x):
        stats = run(_config(_pinned_workflow(kind, x), n=n, seed=9, rework_mode=mode))
        assert _digest(stats) == self.PINS[kind, mode, n, x]

    def test_tracer_sees_one_kernel_call_per_chunk(self):
        # perfbench's tracer wraps the simulator's simulate_fifo binding; a
        # run of five chunks, whose warm-up is the first, is five kernel
        # spans that count every arrival once.
        tracing = _perfbench_tracing()
        config = dataclasses.replace(
            SimConfig.from_workflow(load_config(fixture_path("fig2.json"))),
            n_arrivals=5 * _CHUNK,
        )
        assert config.rework_mode == "folded"
        tracer = tracing.Tracer().install()
        try:
            assert tracer.missing == []
            with tracer.op(0):
                simulator.run(config)
        finally:
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        assert names.count("kernels.simulate_fifo") == 5
        run_span = names.index("simulator.run")
        assert all(span[3] == run_span for span in tracer.spans
                   if span[0] == "kernels.simulate_fifo")
        assert tracer.counters["kernels.jobs"] == config.n_arrivals

    @pytest.mark.parametrize("mode", ["folded", "feedback"])
    def test_tracer_sees_the_calling_thread_only(self, monkeypatch, mode):
        # The tracer keeps one stack of spans, so only the calling thread may
        # reach a name it wraps.  The two samplers and the kernel it wraps in
        # the simulator stay there, once per chunk, under simulator.run, and
        # count the draws and jobs of an untraced run.
        tracing = _perfbench_tracing()
        config = _config(_pinned_workflow("fixed", 0.5), n=5 * _CHUNK, seed=9,
                         rework_mode=mode)
        drawn = []
        with monkeypatch.context() as patch:
            for name in ("sample_manual", "sample_rework"):
                def counted(*args, _func=getattr(simulator, name), **kwargs):
                    draws = _func(*args, **kwargs)
                    drawn.append(draws.size)
                    return draws
                patch.setattr(simulator, name, counted)
            stats = run(config)
        tracer = tracing.Tracer().install()
        try:
            assert tracer.missing == []
            with tracer.op(0):
                assert simulator.run(config) == stats
        finally:
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        run_span = names.index("simulator.run")
        inner = ("service_model.sample_manual", "service_model.sample_rework",
                 "kernels.simulate_fifo")
        assert [names.count(name) for name in inner] == [5, 5, 5]
        assert all(span[3] == run_span for span in tracer.spans if span[0] in inner)
        assert all(span[2] is not None for span in tracer.spans)
        # A feedback run's kernel calls count its reworks as jobs too.
        reworks = stats.n_rework_jobs if mode == "feedback" else 0
        assert tracer.counters["kernels.jobs"] == config.n_arrivals + reworks
        assert tracer.counters["service_model.draws"] == sum(drawn) > 0


class TestDrawAhead:
    """A run's helper thread draws each chunk while the one before is walked."""

    @staticmethod
    def _before_each_call(monkeypatch, name, hook):
        """Call hook(k) before the k-th call, from 0, of the simulator's binding of name."""
        calls = itertools.count()

        def hooked(*args, _func=getattr(simulator, name), **kwargs):
            hook(next(calls))
            return _func(*args, **kwargs)

        monkeypatch.setattr(simulator, name, hooked)

    @staticmethod
    def _within(func, *args, seconds=60.0):
        """func(*args) on a thread of its own, joined with a timeout: (result,
        None) or (None, the exception).  A lost hand-over fails, not hangs."""
        out = []

        def target():
            try:
                out.append((func(*args), None))
            except Exception as exc:
                out.append((None, exc))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), f"{func.__name__} did not return in {seconds} s"
        return out[0]

    @classmethod
    def _fail_third_call(cls, monkeypatch, name, error):
        def fail(k):
            if k == 2:
                raise error

        cls._before_each_call(monkeypatch, name, fail)

    def test_a_run_joins_its_helper(self):
        before = threading.active_count()
        stats, error = self._within(
            run, _config(_pinned_workflow("fixed", 0.5), n=5 * _CHUNK, seed=9)
        )
        assert error is None and stats.n_arrivals == 5 * _CHUNK
        assert threading.active_count() == before

    def test_draws_run_under_the_callers_error_state(self, monkeypatch):
        seen = []
        self._before_each_call(
            monkeypatch, "sample_gamma",
            lambda k: seen.append((threading.get_ident(), np.geterr())),
        )
        with np.errstate(over="raise", under="warn"):
            want = np.geterr()
            run(_config(_pinned_workflow("fixed", 0.5), n=3 * _CHUNK, seed=9))
        assert len(seen) == 3
        assert threading.get_ident() not in {ident for ident, _ in seen}
        assert all(state == want for _, state in seen)

    # The gaps are drawn on the helper thread, the manual times on this one;
    # when these fail, the helper is still drawing the chunk after.
    @pytest.mark.parametrize("name", ["sample_gamma", "sample_manual"])
    def test_a_raise_in_either_stage_joins_the_helper(self, monkeypatch, name):
        error = ValidationError("drawn to fail", field="lambda")
        self._fail_third_call(monkeypatch, name, error)
        if name == "sample_manual":
            self._before_each_call(monkeypatch, "sample_gamma",
                                   lambda k: time.sleep(0.02 if k == 3 else 0.0))
        before = threading.active_count()
        _, raised = self._within(
            run, _config(_pinned_workflow("fixed", 0.5), n=5 * _CHUNK, seed=9)
        )
        assert raised is error
        assert threading.active_count() == before

    def test_cli_reports_a_draw_stage_error(self, monkeypatch, capsys, tmp_path):
        doc = json.loads(fixture_path("fig2.json").read_text())
        doc["sim"] = {"seed": 3, "n_arrivals": 5 * _CHUNK}
        path = tmp_path / "five-chunks.json"
        path.write_text(json.dumps(doc))
        self._fail_third_call(
            monkeypatch, "sample_gamma", ValidationError("drawn to fail", field="lambda")
        )
        before = threading.active_count()
        code, _ = self._within(main, ["simulate", "--config", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "validation", "message": "drawn to fail",
                                   "field": "lambda"}
        assert threading.active_count() == before

    @pytest.mark.parametrize("x", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("kind", ["fixed", "policy"])
    @pytest.mark.parametrize("mode", ["folded", "feedback"])
    def test_stats_do_not_depend_on_which_thread_runs_ahead(self, monkeypatch, kind, mode, x):
        # The draw stage sleeps on odd chunks and this thread's manual draws
        # on even ones, so each thread in turn waits for the other.
        config = _config(_pinned_workflow(kind, x), n=5 * _CHUNK, seed=9, rework_mode=mode)
        undelayed = run(config)
        for name, parity in (("sample_gamma", 1), ("sample_manual", 0)):
            self._before_each_call(monkeypatch, name,
                                   lambda k, parity=parity: time.sleep(1e-3 * (k % 2 == parity)))
        stats = run(config)
        for field in dataclasses.fields(SimStats):
            assert getattr(stats, field.name) == getattr(undelayed, field.name), field.name
        assert _digest(stats) == TestStreaming.PINS[kind, mode, 5 * _CHUNK, x]


def _longdouble_lindley(gaps, services):
    """Lindley's recursion in np.longdouble, one job at a time, from an
    empty queue."""
    gaps, services = gaps.astype(np.longdouble), services.astype(np.longdouble)
    waits = np.zeros(gaps.size, dtype=np.longdouble)
    w = zero = np.longdouble(0.0)
    for i in range(1, gaps.size):
        w = w + services[i - 1] - gaps[i]
        if w < zero:
            w = zero
        waits[i] = w
    return waits


class TestPrecision:
    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_folded_waits_match_a_longdouble_walk_of_the_draws(self, monkeypatch, name):
        # The kernel walks the drawn gaps, so a wait rounds at the scale of
        # its chunk's drift path: 1.3e-11 and 1.2e-11 here.  Walking calendar
        # arrivals instead, whose differences round at the scale of the run,
        # reads 2.2e-10 and 3.0e-10.
        config = dataclasses.replace(
            SimConfig.from_workflow(load_config(fixture_path(f"{name}.json"))),
            n_arrivals=200_000,
        )
        assert config.rework_mode == "folded"
        services, waits = [], []

        def capture(*args, **kwargs):
            result = simulate_fifo(*args, **kwargs)
            services.append(np.copy(args[1]))
            # A copy: a post-warm-up chunk's waits are the run's own, which
            # the run sorts for its quantiles.
            waits.append(np.copy(result[0]))
            return result

        monkeypatch.setattr(simulator, "simulate_fifo", capture)
        stats = run(config)
        # The arrival substream is the first of replication 0's six.
        arrival_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)).spawn(6)[0]
        gaps = sample_gamma(np.random.default_rng(arrival_seed), *config.gap, config.n_arrivals)
        want = _longdouble_lindley(gaps, np.concatenate(services))
        k0 = stats.warmup_skipped
        assert np.max(np.abs(np.concatenate(waits)[k0:] - want[k0:])) <= 2.5e-11


class TestSortedQuantiles:
    def test_matches_numpy_quantile(self):
        # np.quantile's linear method, bit for bit, on sorted waits: mostly
        # exact zeros, ties, all zeros, and the small n = 1 and n = 2.
        rng = np.random.default_rng(0)
        qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0 - 2.0**-53]
        for case in range(3000):
            n = case + 1 if case < 3 else int(rng.integers(1, 3000))
            values = np.where(rng.random(n) < rng.random(), 0.0, rng.exponential(1.0, n))
            if case % 4 == 1:
                values = np.round(values, 1)
            if case % 50 == 2:
                values[:] = 0.0
            values.sort()
            assert _sorted_quantiles(values, qs) == list(np.quantile(values, qs)), case


class TestReworkModes:
    def test_same_total_attention_either_way(self):
        # Folded and feedback runs consume identical random draws, so the
        # measured occupancy and chain service moments match exactly.
        workflow = _fixed_workflow(lam=0.5, x=1.0)
        folded = run(_config(workflow, rework_mode="folded"))
        feedback = run(_config(workflow, rework_mode="feedback"))
        assert folded.rho_hat == feedback.rho_hat
        assert folded.service_mean == feedback.service_mean
        assert folded.service_m2 == feedback.service_m2
        assert folded.escape_rate == feedback.escape_rate
        assert folded.n_rework_jobs == 0
        assert feedback.n_rework_jobs > 0
        assert folded.wq_mean != feedback.wq_mean

    def test_feedback_spawns_match_escapes(self):
        workflow = _fixed_workflow(lam=0.5, x=1.0)
        stats = run(_config(workflow, rework_mode="feedback", n=50_000))
        expected = 0.15 * 50_000
        assert stats.n_rework_jobs == pytest.approx(expected, rel=0.05)


class TestPolicyMode:
    def test_resolves_equilibrium_price(self):
        workflow = _policy_workflow()
        stats = run(_config(workflow, n=50_000))
        solution = solve_equilibrium(ENV, workflow.rework, 0.75, 1.0)
        assert stats.theta_star == solution.primary.theta_star

    def test_covers_equilibrium_wait(self):
        workflow = _policy_workflow()
        stats = run(_config(workflow, n=200_000, seed=5))
        solution = solve_equilibrium(ENV, workflow.rework, 0.75, 1.0)
        assert abs(stats.wq_mean - solution.primary.wq) <= stats.wq_ci_half_width

    def test_escape_rate_matches_clipped_risk(self):
        workflow = _policy_workflow()
        stats = run(_config(workflow, n=100_000, seed=5))
        theta = stats.theta_star
        dist = beta_dist(2.0, 2.0)
        expected = quad(
            lambda s: residual_risk(ENV, theta, s) * dist.pdf(s), 0.0, 1.0,
            points=[RISK.s0], limit=200,
        )[0]
        n_ai = stats.n_arrivals - stats.warmup_skipped
        se = math.sqrt(expected * (1.0 - expected) / n_ai)
        assert stats.escape_rate == pytest.approx(expected, abs=4 * se)

    def test_config_resolves_once(self, monkeypatch):
        # A config solves the equilibrium when it is built, and takes its
        # route moments from the solve's one certification of its root; its
        # runs and replications only read them.
        calls = _count_calls(monkeypatch, "solve_equilibrium", "policy_route_moments")
        config = _config(_policy_workflow(), n=3_200, reps=2)
        first, second = run(config), run(config)
        replicate(config)
        assert calls == {"solve_equilibrium": 1, "policy_route_moments": 1}
        assert first == second
        assert first.theta_star == config.theta_star
        workflow = config.workflow
        ai = policy_route_moments(ENV, config.theta_star, workflow.rework)
        assert config.mixed == mixed_moments(workflow.manual, ai, workflow.x)

    def test_replace_resolves_again(self, monkeypatch):
        calls = _count_calls(monkeypatch, "solve_equilibrium", "policy_route_moments")
        config = _config(_policy_workflow(), n=3_200)
        resized = dataclasses.replace(config, n_arrivals=6_400)
        assert calls == {"solve_equilibrium": 2, "policy_route_moments": 2}
        assert resized.n_arrivals == 6_400
        assert (resized.gap, resized.theta_star, resized.mixed) == (
            config.gap, config.theta_star, config.mixed)
        faster = dataclasses.replace(config, workflow=_policy_workflow(lam=0.8))
        assert faster.gap[0] == 1.0 / 0.8
        assert faster.theta_star != config.theta_star
        assert faster.mixed.mean != config.mixed.mean

    @pytest.mark.parametrize("name, roots", [("fig5-beta22", 1), ("fig5-beta52", 3), ("fig6", 1)])
    def test_policy_config_certifies_each_root_once(self, monkeypatch, name, roots):
        # One certification per root: its quadrature at 12 and at 24 nodes.
        kernel = verification._policy_moments
        calls = []
        monkeypatch.setattr(
            verification, "_policy_moments", lambda *args: calls.append(args[1]) or kernel(*args)
        )
        config = SimConfig.from_workflow(load_config(fixture_path(f"{name}.json")))
        assert len(calls) == 2 * roots
        assert config.theta_star == calls[0] == calls[1]

    def test_degenerate_equilibrium_refused(self):
        env = SignalEnvironment(
            risk_map=RISK, signal_alpha=2.0, signal_beta=2.0,
            K=2.0, kappa=2.0, c_w=0.0,
        )
        workflow = WorkflowSpec(
            lam=0.75, capacity=1.0, manual=ManualRoute(tau_H=1.0, c2_H=0.10),
            rework=ReworkModel(mu_R=1.5, mu_R2=4.0), env=env,
        )
        with pytest.raises(InfeasibleError):
            run(_config(workflow))


class TestConfigValidation:
    def test_from_workflow_reads_sim_block(self):
        workflow = _fixed_workflow()
        workflow = WorkflowSpec(
            **{**workflow.__dict__, "sim": SimSettings(seed=5, n_arrivals=12_800)}
        )
        config = SimConfig.from_workflow(workflow)
        assert config.seed == 5
        assert config.n_arrivals == 12_800
        assert SimConfig.from_workflow(workflow, seed=9).seed == 9

    @pytest.mark.parametrize(
        "name",
        ["fig2.json", "fig3.json", "fig4.json", "fig5-beta22.json",
         "fig5-beta52.json", "fig6.json"],
    )
    def test_from_workflow_carries_every_sim_setting(self, name):
        fixture = load_config(fixture_path(name))
        changed = dataclasses.replace(fixture, sim=SimSettings(
            seed=5, n_arrivals=12_800, warmup_fraction=0.1, n_batches=16, reps=3,
            rework_mode="feedback",
        ))
        for workflow in (fixture, changed):
            for seed in (None, 9):
                config = SimConfig.from_workflow(workflow, seed=seed)
                expected = dataclasses.replace(workflow.sim, seed=9) if seed else workflow.sim
                for setting in dataclasses.fields(SimSettings):
                    assert getattr(config, setting.name) == getattr(expected, setting.name)
                assert config.workflow is workflow

    def test_bad_settings_rejected(self):
        workflow = _fixed_workflow()
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, n_arrivals=100, n_batches=32)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, warmup_fraction=0.6)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, rework_mode="inline")
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, seed=-1)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, n_batches=1)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, n_arrivals=MAX_ARRIVALS + 1)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, n_batches=MAX_BATCHES + 1)

    @pytest.mark.parametrize("mode", ["folded", "feedback"])
    @pytest.mark.parametrize("capacity, review_r", [(1e-310, 0.5), (1e-300, 1e100)])
    def test_service_time_that_overflows_rejected(self, mode, capacity, review_r):
        # The mean attention over C overflows, at a tiny C or a huge effort.
        workflow = _fixed_workflow(capacity=capacity, review_r=review_r, x=1.0)
        with pytest.raises(ValidationError, match="too small") as err:
            _config(workflow, rework_mode=mode)
        assert err.value.field == "capacity_C"

    def test_replicate_count_validated(self):
        with pytest.raises(ValidationError):
            _config(_fixed_workflow(), reps=0)
        with pytest.raises(ValidationError):
            _config(_fixed_workflow(), reps=MAX_REPS + 1)
