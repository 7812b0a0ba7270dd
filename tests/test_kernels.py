import heapq

import numpy as np
import pytest

from wedgeq import simulator
from wedgeq._kernels import IMPL, simulate_fifo


def _heap_oracle(arrivals, services, spawn_mask, rework_services):
    """Event-heap replay of the FIFO queue with spawned rework.

    Keys are (entry_time, stream, seq) with stream 0 for external jobs and
    1 for rework, so an external job wins an entry-time tie — the same rule
    as the production merge.  Every job with entry <= now is already on the
    heap whenever the server picks, because rework only enters at a
    departure instant, so the pop order is the true FIFO order.
    """
    n = len(arrivals)
    waits = np.zeros(n)
    chain = np.zeros(n)
    rework_waits = []
    events = [(float(arrivals[i]), 0, i) for i in range(n)]
    heapq.heapify(events)
    now = 0.0
    busy = 0.0
    spawn_seq = 0
    while events:
        entry, stream, idx = heapq.heappop(events)
        service = float(services[idx]) if stream == 0 else float(rework_services[idx])
        start = entry if entry > now else now
        depart = start + service
        if stream == 0:
            waits[idx] = start - entry
            chain[idx] = depart
            if spawn_mask[idx]:
                heapq.heappush(events, (depart, 1, idx))
        else:
            rework_waits.append((spawn_seq, start - entry))
            chain[idx] = depart
            spawn_seq += 1
        busy += service
        now = depart
    rework_arr = np.array([w for _, w in rework_waits])
    end = now if n else 0.0
    return waits, chain, rework_arr, end, busy


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
    arrivals, services, spawn_mask, rework_services = case
    return (
        np.ascontiguousarray(arrivals, dtype=np.float64),
        np.ascontiguousarray(services, dtype=np.float64),
        np.ascontiguousarray(spawn_mask, dtype=np.uint8),
        np.ascontiguousarray(rework_services, dtype=np.float64),
    )


class TestAgainstHeapOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_pure_merge_is_bitwise_exact(self, seed):
        case = _as_kernel_args(_random_case(seed))
        got = simulate_fifo(*case)
        want = _heap_oracle(*case)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        assert got[3] == want[3]
        assert got[4] == pytest.approx(want[4], rel=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_active_backend_agrees(self, seed):
        # The name the simulator calls (and that profilers wrap) must be the
        # kernel checked above.
        case = _as_kernel_args(_random_case(seed))
        got = simulator.simulate_fifo(*case)
        want = _heap_oracle(*case)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=1e-12)
        assert got[3] == pytest.approx(want[3], rel=1e-12)
        assert got[4] == pytest.approx(want[4], rel=1e-12)

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
        b = simulate_fifo(*case)
        for x, y in zip(a[:3], b[:3]):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)
        assert a[3] == pytest.approx(b[3], rel=1e-12)
        assert a[4] == pytest.approx(b[4], rel=1e-12)


class TestHandWorkedCases:
    def test_empty(self):
        case = _as_kernel_args((np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)))
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        assert waits.shape == (0,)
        assert chain.shape == (0,)
        assert rework_waits.shape == (0,)
        assert end == 0.0
        assert busy == 0.0

    def test_single_job(self):
        case = _as_kernel_args(([2.0], [3.0], [0], [0.0]))
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        assert waits[0] == 0.0
        assert chain[0] == 5.0
        assert rework_waits.shape == (0,)
        assert end == 5.0
        assert busy == 3.0

    def test_spawn_reorders_chain_completion(self):
        # Job 0 departs at 2 and spawns; job 1 (in queue since t=1) goes
        # first, so the rework starts at 4 and job 0's chain ends at 5.
        case = _as_kernel_args(([0.0, 1.0], [2.0, 2.0], [1, 0], [1.0, 0.0]))
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        np.testing.assert_array_equal(waits, [0.0, 1.0])
        np.testing.assert_array_equal(chain, [5.0, 4.0])
        np.testing.assert_array_equal(rework_waits, [2.0])
        assert end == 5.0
        assert busy == 5.0

    def test_external_wins_entry_tie(self):
        # Rework enters at t=2, exactly when job 1 arrives; job 1 is served
        # first, so the rework waits one unit.
        case = _as_kernel_args(([0.0, 2.0], [2.0, 1.0], [1, 0], [1.0, 0.0]))
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        np.testing.assert_array_equal(waits, [0.0, 0.0])
        np.testing.assert_array_equal(chain, [4.0, 3.0])
        np.testing.assert_array_equal(rework_waits, [1.0])
        assert end == 4.0
        assert busy == 4.0

    def test_idle_gaps_leave_no_waits(self):
        case = _as_kernel_args(([0.0, 10.0, 20.0], [1.0, 1.0, 1.0], [0, 0, 0], [0.0] * 3))
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        np.testing.assert_array_equal(waits, [0.0, 0.0, 0.0])
        assert end == 21.0
        assert busy == 3.0

    def test_every_job_spawns(self):
        case = _as_kernel_args(([0.0, 0.0], [1.0, 1.0], [1, 1], [0.5, 0.5]))
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        # Serve order: job 0 (0-1), job 1 (1-2), rework 0 (2-2.5), rework 1.
        np.testing.assert_array_equal(waits, [0.0, 1.0])
        np.testing.assert_array_equal(chain, [2.5, 3.0])
        np.testing.assert_array_equal(rework_waits, [1.0, 0.5])
        assert end == 3.0
        assert busy == 3.0


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_work_conservation_and_nonnegative_waits(self, seed):
        case = _as_kernel_args(_random_case(seed, n_max=200))
        arrivals, services, spawn_mask, rework_services = case
        waits, chain, rework_waits, end, busy = simulate_fifo(*case)
        assert np.all(waits >= 0.0)
        assert np.all(rework_waits >= 0.0)
        total_work = services.sum() + rework_services[spawn_mask.astype(bool)].sum()
        assert busy == pytest.approx(total_work, rel=1e-12)
        if len(arrivals):
            assert end == pytest.approx(chain.max(), rel=1e-12)
            assert end >= busy  # elapsed time is at least the work done
            assert np.all(chain >= arrivals)

    def test_rework_count_matches_mask(self):
        case = _as_kernel_args(_random_case(3, n_max=200))
        _, _, rework_waits, _, _ = simulate_fifo(*case)
        assert rework_waits.shape[0] == int(case[2].sum())


class TestBackendSelection:
    def test_impl_is_declared(self):
        assert IMPL == "python"
        assert simulator.simulate_fifo is simulate_fifo
