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


def _fifo_reflect(arrivals, services, out=None):
    """Vectorized no-rework path via the reflected random walk.

    The FIFO wait recursion w[i] = max(0, w[i-1] + s[i-1] - gap[i])
    has the closed form w[i] = path[i] - min(path[0..i]) for the
    cumulative drift path, which NumPy evaluates without a Python loop.
    ``out`` is an optional pair of length-n buffers that receive the
    waits and the departures; the departures buffer holds the drift path
    until the waits are known, so the walk allocates nothing else.
    """
    n = arrivals.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros(0), 0.0, 0.0
    waits, departures = (np.empty(n), np.empty(n)) if out is None else out
    path = departures
    path[0] = 0.0
    np.subtract(arrivals[1:], arrivals[:-1], out=path[1:])
    np.subtract(services[:-1], path[1:], out=path[1:])
    np.cumsum(path[1:], out=path[1:])
    np.minimum.accumulate(path, out=waits)
    np.subtract(path, waits, out=waits)
    np.add(arrivals, waits, out=departures)
    departures += services
    return waits, departures, float(departures[-1]), float(services.sum())


def _fifo_merge_loop(arrivals, services, spawn_mask, rework_services, out=None):
    n = arrivals.shape[0]
    # Rework job k, the k-th spawned, belongs to the k-th flagged arrival.
    parents = np.flatnonzero(spawn_mask)
    # The loop assigns every entry of both arrays.
    waits, chain_complete = (np.empty(n), np.empty(n)) if out is None else out
    rq_entry = np.empty(parents.size)
    rework_waits = np.empty(parents.size)

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
                tail += 1
            i += 1
        else:
            entry = rq_entry[head]
            service = rework_services[head]
            start = entry if entry > now else now
            depart = start + service
            rework_waits[head] = start - entry
            chain_complete[parents[head]] = depart
            head += 1
        busy += service
        now = depart
    return waits, chain_complete, rework_waits, now, busy


def simulate_fifo(arrivals, services, spawn_mask, rework_services, out=None):
    """Run the queue; returns (waits, chain_complete, rework_waits, end, busy).

    spawn_mask[i]      1 if external job i spawns a rework job, else 0
    rework_services[k] service of the k-th spawned job: one per flagged
                       arrival, in arrival order, which is spawn order

    waits[i]           queue wait of external job i (service start - arrival)
    chain_complete[i]  when job i's chain ends: its own departure, or its
                       rework job's departure if it spawned one
    rework_waits[k]    queue wait of the k-th spawned job
    end                calendar time of the last departure (0 when empty)
    busy               total server busy time

    spawn_mask and rework_services may both be empty arrays when no job
    spawns rework.  ``out`` is an optional pair of length-n buffers that
    receive waits and chain_complete.
    """
    if not spawn_mask.any():
        waits, departures, end, busy = _fifo_reflect(arrivals, services, out)
        return waits, departures, np.zeros(0), end, busy
    return _fifo_merge_loop(arrivals, services, spawn_mask, rework_services, out)
