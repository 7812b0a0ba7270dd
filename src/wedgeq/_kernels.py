"""The simulator's FIFO queue kernel, in NumPy.

``simulate_fifo`` consumes pre-drawn arrival and service arrays (calendar
time units) and plays them through a single-server FIFO queue.  A flagged
arrival spawns one rework job at its own departure instant; the rework job
joins the tail of the queue with its own service time.  The queue has one
implementation, the reflected random walk of Lindley's recursion, which
NumPy evaluates without a Python loop, one chunk of arrivals at a time.
Each chunk continues from the previous job's wait, so rounding stays at the
scale of a chunk, not of the whole run.  Rework makes the walk's input
depend on its output (a rework enters when its parent departs), so a chunk
with rework in it is walked to its fixed point.
"""

import numpy as np

IMPL = "python"

# Arrivals per chunk of the walk.
_CHUNK = 1 << 14


def _fifo_reflect(arrivals, services, carry, out=None):
    """One pass of the reflected random walk, continued from ``carry``.

    The FIFO wait recursion w[i] = max(0, w[i-1] + s[i-1] - gap[i]) has the
    closed form w[i] = path[i] - min(0, path[..i]) for the cumulative drift
    path, which starts at the first job's unreflected wait.  ``carry`` is
    (arrival, service, wait) of the job before, and the walk returns its
    own last job's.  ``out`` is an optional pair of buffers for the waits
    and the departures; the departures buffer holds the path until the
    waits are known, so the walk allocates nothing else.
    """
    a_prev, s_prev, w_prev = carry
    n = arrivals.shape[0]
    waits, departures = (np.empty(n), np.empty(n)) if out is None else out
    path = departures
    path[0] = w_prev + (s_prev - (arrivals[0] - a_prev))
    np.subtract(arrivals[1:], arrivals[:-1], out=path[1:])
    np.subtract(services[:-1], path[1:], out=path[1:])
    np.cumsum(path, out=path)
    first = path[0]
    path[0] = min(first, 0.0)
    np.minimum.accumulate(path, out=waits)
    path[0] = first
    np.subtract(path, waits, out=waits)
    np.add(arrivals, waits, out=departures)
    departures += services
    return waits, departures, (arrivals[-1], services[-1], waits[-1])


def simulate_fifo(arrivals, services, spawn_mask, rework_services, out=None):
    """Run the queue; returns (waits, chain_complete, rework_waits, end, busy).

    spawn_mask[i]      true if external job i spawns a rework job
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
    n = arrivals.shape[0]
    waits, chain = (np.empty(n), np.empty(n)) if out is None else out
    # Rework job k, the k-th spawned, belongs to the k-th flagged arrival.
    parents = np.flatnonzero(spawn_mask)
    rework_waits = np.empty(parents.size)
    busy = float(services.sum()) + float(rework_services.sum())
    carry = (0.0, 0.0, 0.0)  # the queue starts empty at time 0
    done, pending = 0, np.zeros(0)  # reworks merged so far; entries of the rest
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        a, s = arrivals[lo:hi], services[lo:hi]
        own = parents[np.searchsorted(parents, lo) : np.searchsorted(parents, hi)] - lo
        if not (own.size or pending.size):
            carry = _fifo_reflect(a, s, carry, (waits[lo:hi], chain[lo:hi]))[2]
            continue
        # Carried entries are final; a new one starts as its parent's a + s.
        old, pending = pending.size, np.concatenate((pending, a[own] + s[own]))
        # Only reworks spawned before a parent can sit ahead of it, so each
        # pass makes one more own entry final (pass p the first p), and pass
        # own.size + 1 changes none: the passes always reach the fixed point.
        for _ in range(own.size + 1):
            # Rework k follows the externals that arrived by its entry (so
            # externals win ties), and never precedes rework k - 1.
            pos = np.maximum.accumulate(np.searchsorted(a, pending, "right"))
            # One entering at or after the chunk's last arrival waits for the next.
            take = pending.size if hi == n else int(np.searchsorted(pos, hi - lo))
            at = pos[:take] + np.arange(take)
            external = np.ones(hi - lo + take, dtype=bool)
            external[at] = False
            slots = np.flatnonzero(external)
            entries, work = np.empty(external.size), np.empty(external.size)
            entries[slots], entries[at] = a, pending[:take]
            work[slots], work[at] = s, rework_services[done : done + take]
            w, d, walked = _fifo_reflect(entries, work, carry)
            departed = d[slots[own]]
            if np.array_equal(departed, pending[old:]):
                break
            pending[old:] = departed
        carry = walked
        waits[lo:hi], chain[lo:hi] = w[slots], d[slots]
        rework_waits[done : done + take] = w[at]
        chain[parents[done : done + take]] = d[at]
        pending, done = pending[take:], done + take
    a_end, s_end, w_end = carry
    return waits, chain, rework_waits, float(a_end + w_end + s_end), busy
