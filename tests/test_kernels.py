import dataclasses
import heapq
import itertools

import numpy as np
import pytest

from wedgeq import SimConfig, _kernels, fixture_path, load_config, simulator
from wedgeq._kernels import IMPL, simulate_fifo


def _heap_oracle(arrivals, services, spawn_mask, rework_services, time=float):
    """Event-heap replay of the FIFO queue with spawned rework.

    Keys are (entry_time, stream, seq) with stream 0 for external jobs and
    1 for rework, so an external job wins an entry-time tie — the same rule
    as the kernel's placement of rework among the arrivals.  Every job with
    entry <= now is already on the heap whenever the server picks, because
    rework only enters at a departure instant, so the pop order is the true
    FIFO order.
    rework_services holds one service per flagged arrival, in spawn order,
    so a parent's rework service sits at its rank among the flagged arrivals.
    ``time`` is the clock's type: np.longdouble replays the float64 inputs
    in extended precision.

    Returns the kernel's (waits, rework_waits, end, busy), then each job's
    chain completion: its own departure, or its rework's if it spawned one.
    """
    n = len(arrivals)
    spawn_index = np.cumsum(spawn_mask) - 1
    waits = np.zeros(n, dtype=time)
    chain = np.zeros(n, dtype=time)
    rework_waits = []  # reworks enter in their parents' order: spawn order
    events = [(time(arrivals[i]), 0, i) for i in range(n)]
    heapq.heapify(events)
    now = busy = time(0.0)
    while events:
        entry, stream, idx = heapq.heappop(events)
        service = time(services[idx] if stream == 0 else rework_services[spawn_index[idx]])
        start = entry if entry > now else now
        depart = start + service
        if stream == 0:
            waits[idx] = start - entry
            if spawn_mask[idx]:
                heapq.heappush(events, (depart, 1, idx))
        else:
            rework_waits.append(start - entry)
        chain[idx] = depart
        busy += service
        now = depart
    return waits, np.array(rework_waits, dtype=time), now, busy, chain


def _random_case(seed, n_max=60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, n_max))
    # Half-integer grid forces exact ties between arrivals and departures.
    gaps = rng.integers(0, 4, size=n) / 2.0
    arrivals = np.cumsum(gaps)
    services = rng.integers(1, 5, size=n) / 2.0
    spawn_mask = (rng.random(n) < 0.4).astype(np.uint8)
    rework_services = rng.integers(1, 4, size=n) / 2.0
    return arrivals, services.astype(float), spawn_mask, rework_services.astype(float)


def _as_kernel_args(case):
    """The oracle's arguments from per-arrival arrays: the rework services of
    the flagged arrivals only, in spawn order.  Arrivals stay calendar times;
    ``_gapped`` turns them into the kernel's gaps."""
    arrivals, services, spawn_mask, rework_services = case
    spawn_mask = np.ascontiguousarray(spawn_mask, dtype=np.uint8)
    return (
        np.ascontiguousarray(arrivals, dtype=np.float64),
        np.ascontiguousarray(services, dtype=np.float64),
        spawn_mask,
        np.asarray(rework_services, dtype=np.float64)[spawn_mask.astype(bool)],
    )


def _gapped(args):
    """The kernel's arguments from the oracle's: each arrival's gap from the
    one before (from 0 for the first), exact on the dyadic grid."""
    return (np.diff(args[0], prepend=0.0),) + tuple(args[1:])


class TestAgainstHeapOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_pure_merge_is_bitwise_exact(self, seed):
        case = _as_kernel_args(_random_case(seed))
        got = simulate_fifo(*_gapped(case))
        want = _heap_oracle(*case)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert got[3] == pytest.approx(want[3], rel=1e-12)

    def test_backends_agree_on_large_case(self):
        # Continuous times, so no exact ties, on a queue long enough for the
        # rework merge to interleave many spawned jobs.
        rng = np.random.default_rng(99)
        n = 5000
        arrivals = np.cumsum(rng.exponential(1.0, n))
        services = rng.exponential(0.8, n)
        spawn_mask = (rng.random(n) < 0.25).astype(np.uint8)
        rework_services = rng.exponential(1.2, n)
        case = _as_kernel_args((arrivals, services, spawn_mask, rework_services))
        a = _heap_oracle(*case)
        b = simulate_fifo(*_gapped(case))
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)
        assert a[2] == pytest.approx(b[2], rel=1e-12)
        assert a[3] == pytest.approx(b[3], rel=1e-12)


def _play(args, sizes, out=None):
    """simulate_fifo over consecutive calls of ``sizes`` arrivals (cycled)
    that carry one QueueState, as the simulator streams a run; the calls'
    outputs joined into one run's.  With ``out`` each call walks its waits
    into its slice of it."""
    gaps, services, spawn_mask, rework_services = args
    n = gaps.size
    spawned = np.concatenate(([0], np.cumsum(spawn_mask, dtype=np.intp)))
    state = _kernels.QueueState()
    calls, busy, lo = [], 0.0, 0
    for size in itertools.cycle(sizes):
        hi = min(lo + size, n)
        waits, rework_waits, end, call_busy = simulate_fifo(
            gaps[lo:hi], services[lo:hi], spawn_mask[lo:hi],
            rework_services[spawned[lo] : spawned[hi]], state=state, last=hi == n,
            out=None if out is None else out[lo:hi],
        )
        if out is not None and hi > lo:
            assert np.shares_memory(waits, out[lo:hi])
        calls.append((waits, rework_waits))
        busy, lo = busy + call_busy, hi
        if hi == n:
            break
    assert state.entries.size == state.services.size == 0
    waits, rework_waits = (np.concatenate(parts) for parts in zip(*calls))
    return waits, rework_waits, end, busy


def _assert_bitwise(got, want):
    for x, y in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(x, y)


class TestQueueState:
    """A run split into calls that carry a ``QueueState`` is the same run."""

    @pytest.mark.parametrize("then", [2, 64])
    @pytest.mark.parametrize("piece", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(10))
    def test_calls_continue_one_run(self, then, piece, seed):
        # Calls of piece and then arrivals in turn, on longer runs.
        case = _as_kernel_args(_random_case(seed, n_max=200))
        got = _play(_gapped(case), (piece, then))
        want = _heap_oracle(*case)
        _assert_bitwise(got, want)
        assert got[3] == want[3]

    def test_rework_carried_to_the_next_call(self):
        # Job 0 departs at 2 and spawns, after its call's last arrival (1):
        # the rework stays pending, and the next call walks it (3-4) ahead
        # of job 2 (arrives 2.5) and reports its wait.  Job 2 then waits
        # until 4.
        state = _kernels.QueueState()
        waits, rework_waits, end, busy = simulate_fifo(
            np.array([0.0, 1.0]), np.array([2.0, 1.0]), np.array([True, False]),
            np.array([1.0]), state=state, last=False,
        )
        np.testing.assert_array_equal(waits, [0.0, 1.0])
        assert rework_waits.shape == (0,)
        assert (end, busy) == (3.0, 4.0)  # busy counts a call's reworks too
        assert state.carry == (1.0, 1.0)
        assert state.arrival == 1.0
        np.testing.assert_array_equal(state.entries, [1.0])  # after the carry's arrival
        np.testing.assert_array_equal(state.services, [1.0])
        waits, rework_waits, end, busy = simulate_fifo(
            np.array([1.5]), np.array([1.0]), np.zeros(1, dtype=bool), np.zeros(0),
            state=state,
        )
        np.testing.assert_array_equal(waits, [1.5])
        np.testing.assert_array_equal(rework_waits, [1.0])
        assert (end, busy) == (5.0, 1.0)
        assert state.entries.size == 0

    def test_carried_entry_keeps_its_low_bits_far_from_time_zero(self):
        # Near t0 = 2^20 a float64 time resolves only 2^-32.  After a job at
        # t0 - 1, job 0 departs at t0 + 1 + 2^-40 and spawns, after its
        # call's last arrival; job 1 waits until then.  Next call: job 2
        # (t0 + 1) waits until t0 + 1.75 + 2^-40, and the rework then waits
        # exactly 0.75; a pending entry kept as a calendar time would round
        # to t0 + 1, and the rework's wait to 0.75 + 2^-40.
        t0, tiny = 2.0**20, 2.0**-40
        state = _kernels.QueueState()
        simulate_fifo(np.array([t0 - 1.0]), np.array([0.5]), np.zeros(1, dtype=bool),
                      np.zeros(0), state=state, last=False)
        waits, _, _, _ = simulate_fifo(
            np.array([1.0, 0.5]), np.array([1.0 + tiny, 0.25]),
            np.array([True, False]), np.array([1.0]), state=state, last=False,
        )
        np.testing.assert_array_equal(waits, [0.0, 0.5 + tiny])
        waits, rework_waits, _, _ = simulate_fifo(
            np.array([0.5, 1.0]), np.array([0.5, 1.0]),
            np.zeros(2, dtype=bool), np.zeros(0), state=state,
        )
        np.testing.assert_array_equal(waits, [0.25 + tiny, 0.75 + tiny])
        np.testing.assert_array_equal(rework_waits, [0.75])


class TestChunkBoundaries:
    """The simulator streams a run in chunks, one call each; on the dyadic
    grid every split into calls, with or without rework to merge, must
    reproduce the oracle bit for bit."""

    @pytest.mark.parametrize("piece", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("seed", range(30))
    def test_any_chunk_size_is_bitwise_exact(self, piece, seed):
        case = _as_kernel_args(_random_case(seed))
        # The same arrivals once more with no rework, as in folded runs.
        for args in (case, case[:2] + (np.zeros_like(case[2]), np.zeros(0))):
            _assert_bitwise(_play(_gapped(args), (piece,)), _heap_oracle(*args))

    @pytest.mark.parametrize("piece", [2, simulator._CHUNK])
    def test_rework_carried_into_next_chunk(self, piece):
        # Job 0 departs at 2 and spawns; with calls of two arrivals that is
        # after its call's last arrival (1), so the rework joins the next
        # call ahead of job 2 (arrives 2.5): job 1 (2-3), rework (3-4),
        # job 2 (4-5), job 3 (5-6).
        case = _as_kernel_args(
            ([0.0, 1.0, 2.5, 4.0], [2.0, 1.0, 1.0, 1.0], [1, 0, 0, 0], [1.0, 0.0, 0.0, 0.0])
        )
        waits, rework_waits, end, busy = _play(_gapped(case), (piece,))
        np.testing.assert_array_equal(waits, [0.0, 1.0, 1.5, 1.0])
        np.testing.assert_array_equal(rework_waits, [1.0])
        assert end == 6.0
        assert busy == 6.0

    @pytest.mark.parametrize("piece", [2, simulator._CHUNK])
    def test_busy_period_straddles_chunks(self, piece):
        # No rework, as in folded runs.  Job 0 (0-2.5) keeps the server busy
        # past every arrival: job 1 (2.5-3.5) ends the first call of two,
        # and the second continues from its wait: job 2 (3.5-4.5), job 3
        # (4.5-5.5).
        waits, rework_waits, end, busy = _play(
            _gapped((np.array([0.0, 1.0, 2.0, 3.5]), np.array([2.5, 1.0, 1.0, 1.0]),
                     np.zeros(4, dtype=bool), np.zeros(0))),
            (piece,),
        )
        np.testing.assert_array_equal(waits, [0.0, 1.5, 1.5, 1.0])
        assert rework_waits.shape == (0,)
        assert end == 5.5
        assert busy == 5.5


def _branches(case):
    """A heap-oracle case as given, through the kernel's rework branch when
    any arrival spawns, and with no rework, through the folded runs' branch."""
    return case, case[:2] + (np.zeros_like(case[2]), np.zeros(0))


class TestWalkInPlace:
    """``out`` receives a call's waits; the walk is the allocating call's."""

    @pytest.mark.parametrize("seed", range(6))
    def test_returns_the_given_array(self, seed):
        case = _as_kernel_args(_random_case(seed, n_max=200))
        for args in _branches(case):
            gapped = _gapped(args)
            out = np.full(gapped[0].size, np.nan)
            waits = simulate_fifo(*gapped, out=out)[0]
            assert waits is out
            np.testing.assert_array_equal(out, simulate_fifo(*gapped)[0])

    @pytest.mark.parametrize("piece", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_allocating_call(self, piece, seed):
        # Whole (piece None) and in calls of piece arrivals, bit for bit.
        case = _as_kernel_args(_random_case(seed))
        for args in _branches(case):
            gapped = _gapped(args)
            sizes = (max(gapped[0].size, 1) if piece is None else piece,)
            out = np.full(gapped[0].size, np.nan)
            got = _play(gapped, sizes, out=out)
            want = _play(gapped, sizes)
            np.testing.assert_array_equal(out, want[0])
            _assert_bitwise(got, want)
            assert got[3] == want[3]
            _assert_bitwise(got, _heap_oracle(*args))

    def test_state_keeps_the_gap_sum(self):
        # The simulator adds a call's gap sum to its post-warm-up span.
        case = _as_kernel_args(_random_case(5, n_max=200))
        for args in _branches(case):
            gapped = _gapped(args)
            state = _kernels.QueueState()
            simulate_fifo(*gapped, state=state)
            assert state.gap_sum == float(gapped[0].sum())


def _feedback_calls(monkeypatch, name):
    """The arguments of the calls simulator.run makes on fixture ``name`` at
    1e5 arrivals in feedback mode, one call per chunk, joined, with the
    gaps summed into float64 calendar arrivals (the oracle's form); and the
    calls' sizes.  About 15% (fig2) and 30% (fig5-beta52) of arrivals spawn
    rework."""
    config = dataclasses.replace(
        SimConfig.from_workflow(load_config(fixture_path(f"{name}.json"))),
        n_arrivals=100_000, rework_mode="feedback",
    )
    calls = []

    def capture(*args, **kwargs):
        calls.append([np.copy(a) for a in args])
        return simulate_fifo(*args, **kwargs)

    monkeypatch.setattr(simulator, "simulate_fifo", capture)
    simulator.run(config)
    assert len(calls) > 4
    args = [np.concatenate(chunks) for chunks in zip(*calls)]
    args[0] = np.cumsum(args[0])  # calendar arrivals, for the oracle
    assert args[0].size == config.n_arrivals
    assert 0.1 < args[2].mean() < 0.4
    return args, [call[0].size for call in calls]


class TestPrecision:
    def test_waits_match_lindley_recursion(self):
        # The kernel walks the drawn gaps, and each call's drift path starts
        # from a wait, so rounding stays at the scale of the simulator's
        # chunk: 3.6e-12 here.  One walk of the whole run's drift path is off
        # by 5.3e-11, and this loop agrees with np.longdouble to 1.2e-13.
        rng = np.random.default_rng(5)
        n = 200_000
        gaps = rng.exponential(1.0, n)
        services = rng.exponential(0.9, n)
        waits = _play(
            (gaps, services, np.zeros(n, dtype=bool), np.zeros(0)), (simulator._CHUNK,)
        )[0]
        g, s = gaps.tolist(), services.tolist()
        want, w = [0.0], 0.0
        for i in range(1, n):
            w = max(0.0, w + s[i - 1] - g[i])
            want.append(w)
        assert np.max(np.abs(waits - want)) <= 1e-11

    @pytest.mark.parametrize("name", ["fig2", "fig5-beta52"])
    def test_feedback_waits_match_longdouble_replay(self, monkeypatch, name):
        # A call with rework places it among arrivals timed from the job
        # before the call, so a rework's entry (its parent's departure)
        # rounds at the scale of a chunk, as the folded waits above do:
        # 5.4e-12 and 7.7e-12 here.  Entries kept in calendar time round at
        # the scale of the run, 2.6e-11 and 3.0e-11 here.  The oracle replays
        # float64 calendar arrivals, the cumsum of the drawn gaps, and the
        # kernel is fed their exact differences.  Against a replay of the
        # drawn gaps themselves the simulator's own waits read 1.5e-11 and
        # 2.1e-11 (8.8e-11 and 7.4e-11 when the kernel took calendar
        # arrivals): the rest is the float64 drift path's rounding over a
        # chunk, about 1e-11 for one 2^14 chunk at rho = 0.43, where the path
        # reaches -1.9e4.
        args, sizes = _feedback_calls(monkeypatch, name)
        waits, rework_waits = _play(_gapped(args), sizes)[:2]
        want = _heap_oracle(*args, time=np.longdouble)
        assert np.max(np.abs(waits - want[0])) <= 1.5e-11
        assert np.max(np.abs(rework_waits - want[1])) <= 1.5e-11


class TestRealisticRegime:
    @pytest.mark.parametrize("name", ["fig2", "fig5-beta52"])
    def test_feedback_run_matches_oracle(self, monkeypatch, name):
        args, sizes = _feedback_calls(monkeypatch, name)
        got = _play(_gapped(args), sizes)
        want = _heap_oracle(*args)
        # The oracle's clock rounds at the scale of the horizon, so the two
        # agree to a few of its ulps, not bitwise.
        tol = 16 * np.spacing(args[0][-1])
        for x, y in zip(got[:2], want[:2]):
            np.testing.assert_allclose(x, y, rtol=0, atol=tol)
        assert got[2] == pytest.approx(want[2], rel=0, abs=tol)
        assert got[3] == pytest.approx(want[3], rel=1e-12)


class TestHandWorkedCases:
    def test_empty(self):
        case = _as_kernel_args((np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)))
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        assert waits.shape == (0,)
        assert rework_waits.shape == (0,)
        assert end == 0.0
        assert busy == 0.0

    def test_single_job(self):
        case = _as_kernel_args(([2.0], [3.0], [0], [0.0]))
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        assert waits[0] == 0.0
        assert rework_waits.shape == (0,)
        assert end == 5.0
        assert busy == 3.0

    def test_spawn_reorders_chain_completion(self):
        # Job 0 departs at 2 and spawns; job 1 (in queue since t=1) goes
        # first, so the rework waits from 2 to 4 and job 0's chain ends last,
        # at 5.
        case = _as_kernel_args(([0.0, 1.0], [2.0, 2.0], [1, 0], [1.0, 0.0]))
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        np.testing.assert_array_equal(waits, [0.0, 1.0])
        np.testing.assert_array_equal(rework_waits, [2.0])
        assert end == 5.0
        assert busy == 5.0

    def test_external_wins_entry_tie(self):
        # Rework enters at t=2, exactly when job 1 arrives; job 1 is served
        # first, so the rework waits one unit.
        case = _as_kernel_args(([0.0, 2.0], [2.0, 1.0], [1, 0], [1.0, 0.0]))
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        np.testing.assert_array_equal(waits, [0.0, 0.0])
        np.testing.assert_array_equal(rework_waits, [1.0])
        assert end == 4.0
        assert busy == 4.0

    def test_long_idle_gap_keeps_the_low_bits(self):
        # The queue is empty until job 0 arrives 2^20 after time 0.  Job 1
        # arrives 0.5 later and waits until job 0 departs, exactly
        # 0.5 + 2^-40: the walk starts at job 0's wait, not at minus the idle
        # gap, where a float64 resolves only 2^-32.
        tiny = 2.0**-40
        waits, _, _, _ = simulate_fifo(
            np.array([2.0**20, 0.5]), np.array([1.0 + tiny, 0.25]), np.zeros(2, dtype=bool),
            np.zeros(0),
        )
        np.testing.assert_array_equal(waits, [0.0, 0.5 + tiny])

    def test_idle_gaps_leave_no_waits(self):
        case = _as_kernel_args(([0.0, 10.0, 20.0], [1.0, 1.0, 1.0], [0, 0, 0], [0.0] * 3))
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        np.testing.assert_array_equal(waits, [0.0, 0.0, 0.0])
        assert end == 21.0
        assert busy == 3.0

    def test_every_job_spawns(self):
        case = _as_kernel_args(([0.0, 0.0], [1.0, 1.0], [1, 1], [0.5, 0.5]))
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        # Serve order: job 0 (0-1), job 1 (1-2), rework 0 (2-2.5), rework 1.
        np.testing.assert_array_equal(waits, [0.0, 1.0])
        np.testing.assert_array_equal(rework_waits, [1.0, 0.5])
        assert end == 3.0
        assert busy == 3.0


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_work_conservation_and_nonnegative_waits(self, seed):
        case = _as_kernel_args(_random_case(seed, n_max=200))
        arrivals, services, spawn_mask, rework_services = case
        waits, rework_waits, end, busy = simulate_fifo(*_gapped(case))
        assert np.all(waits >= 0.0)
        assert np.all(rework_waits >= 0.0)
        total_work = services.sum() + rework_services.sum()
        assert busy == pytest.approx(total_work, rel=1e-12)
        if len(arrivals):
            assert end == _heap_oracle(*case)[2]  # the last departure
            assert end >= np.max(arrivals + waits + services)
            assert end >= busy  # elapsed time is at least the work done

    def test_rework_count_matches_mask(self):
        case = _as_kernel_args(_random_case(3, n_max=200))
        _, rework_waits, _, _ = simulate_fifo(*_gapped(case))
        assert rework_waits.shape[0] == int(case[2].sum())


class TestBackendSelection:
    def test_impl_is_declared(self):
        assert IMPL == "python"
        assert simulator.simulate_fifo is simulate_fifo
