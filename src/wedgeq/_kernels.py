"""The simulator's FIFO queue kernel, in NumPy/Python.

``simulate_fifo`` consumes pre-drawn arrival and service arrays (calendar
time units) and plays them through a single-server FIFO queue.  A flagged
arrival spawns one rework job at its own departure instant; the rework job
joins the tail of the queue with its own service time.  Because spawned
jobs enter at departure instants, the rework stream is itself sorted in
time, so the event loop is a two-stream merge and needs no event heap.
Without rework the queue reduces to a reflected random walk, which NumPy
evaluates in closed form.
"""

import numpy as np

IMPL = "python"


def _fifo_reflect(arrivals, services):
    """Vectorized no-rework path via the reflected random walk.

    The FIFO wait recursion w[i] = max(0, w[i-1] + s[i-1] - gap[i])
    has the closed form w[i] = path[i] - min(path[0..i]) for the
    cumulative drift path, which NumPy evaluates without a Python loop.
    """
    n = arrivals.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros(0), 0.0, 0.0
    drift = services[:-1] - np.diff(arrivals)
    path = np.concatenate(([0.0], np.cumsum(drift)))
    waits = path - np.minimum.accumulate(path)
    departures = arrivals + waits + services
    return waits, departures, float(departures[-1]), float(services.sum())


def _fifo_merge_loop(arrivals, services, spawn_mask, rework_services):
    n = arrivals.shape[0]
    n_spawn = int(spawn_mask.sum())
    waits = np.zeros(n)
    chain_complete = np.zeros(n)
    rq_entry = np.empty(n_spawn)
    rq_service = np.empty(n_spawn)
    rq_parent = np.empty(n_spawn, dtype=np.intp)
    rework_waits = np.empty(n_spawn)

    head = tail = 0
    i = 0
    now = 0.0
    busy = 0.0
    while i < n or head < tail:
        if i < n and (head == tail or arrivals[i] <= rq_entry[head]):
            entry = arrivals[i]
            service = services[i]
            start = entry if entry > now else now
            depart = start + service
            waits[i] = start - entry
            chain_complete[i] = depart
            if spawn_mask[i]:
                rq_entry[tail] = depart
                rq_service[tail] = rework_services[i]
                rq_parent[tail] = i
                tail += 1
            i += 1
        else:
            entry = rq_entry[head]
            service = rq_service[head]
            start = entry if entry > now else now
            depart = start + service
            rework_waits[head] = start - entry
            chain_complete[rq_parent[head]] = depart
            head += 1
        busy += service
        now = depart
    return waits, chain_complete, rework_waits, now, busy


def simulate_fifo(arrivals, services, spawn_mask, rework_services):
    """Run the queue; returns (waits, chain_complete, rework_waits, end, busy).

    waits[i]          queue wait of external job i (service start - arrival)
    chain_complete[i] when job i's chain ends: its own departure, or its
                      rework job's departure if it spawned one
    rework_waits[k]   queue wait of the k-th spawned job, in spawn order
    end               calendar time of the last departure (0 when empty)
    busy              total server busy time
    """
    if not spawn_mask.any():
        waits, departures, end, busy = _fifo_reflect(arrivals, services)
        return waits, departures, np.zeros(0), end, busy
    return _fifo_merge_loop(arrivals, services, spawn_mask, rework_services)
