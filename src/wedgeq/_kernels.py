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
with rework in it is walked to its fixed point.  A run can also be played
in consecutive calls that pass a ``QueueState`` from one to the next; the
simulator streams its runs that way, one chunk per call.
"""

import numpy as np

IMPL = "python"

# Arrivals per chunk of the walk, and per call of the simulator's stream.
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


class QueueState:
    """The queue between calls of ``simulate_fifo`` on consecutive arrivals.

    carry     (arrival, service, wait) of the last job walked
    entries   entry times of the reworks still to be walked (their parents'
              departures), in spawn order
    services  their services
    origins   their parents' arrival times
    sojourns  rework departure - parent arrival of each rework that the last
              call walked and an earlier call spawned, in spawn order
    """

    def __init__(self):
        self.carry = (0.0, 0.0, 0.0)  # the queue starts empty at time 0
        self.entries = self.services = self.origins = self.sojourns = np.zeros(0)


def simulate_fifo(arrivals, services, spawn_mask, rework_services, state=None, last=True):
    """Run the queue; returns (waits, chain_complete, rework_waits, end, busy).

    spawn_mask[i]      true if external job i spawns a rework job
    rework_services[k] service of the k-th spawned job: one per flagged
                       arrival, in arrival order, which is spawn order

    waits[i]           queue wait of external job i (service start - arrival)
    chain_complete[i]  when job i's chain ends: its own departure, or its
                       rework job's departure if it spawned one
    rework_waits[k]    queue wait of the k-th rework job walked
    end                calendar time of the last departure (0 when empty)
    busy               server busy time of these jobs and their reworks

    spawn_mask and rework_services may both be empty arrays when no job
    spawns rework.

    Without ``state`` the arrays are a whole run from an empty queue.  With a
    ``QueueState`` they are the next arrivals of a longer run: the queue
    starts where the state was left and is left there again.  Unless
    ``last``, a rework that enters at or after the last of these arrivals
    stays pending in the state for the next call; its parent's
    chain_complete is NaN, and the chain's sojourn lands in
    ``state.sojourns`` of the call that walks the rework.
    """
    n = arrivals.shape[0]
    waits, chain = np.empty(n), np.empty(n)
    queue = QueueState() if state is None else state
    # Reworks in spawn order, indexed by ``done``: those carried in from
    # earlier calls, then this call's, the j-th of which belongs to its j-th
    # flagged arrival.
    parents = np.flatnonzero(spawn_mask)
    carried = queue.entries.size
    works = np.concatenate((queue.services, rework_services))
    origins = np.concatenate((queue.origins, arrivals[parents]))
    rework_waits, sojourns = np.empty(works.size), np.empty(carried)
    busy = float(services.sum()) + float(rework_services.sum())
    carry, pending = queue.carry, queue.entries
    done = 0  # reworks walked so far
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
            # One entering at or after the chunk's last arrival waits for the
            # next chunk, unless these are the run's last arrivals.
            take = pending.size if last and hi == n else int(np.searchsorted(pos, hi - lo))
            at = pos[:take] + np.arange(take)
            external = np.ones(hi - lo + take, dtype=bool)
            external[at] = False
            slots = np.flatnonzero(external)
            entries, work = np.empty(external.size), np.empty(external.size)
            entries[slots], entries[at] = a, pending[:take]
            work[slots], work[at] = s, works[done : done + take]
            w, d, walked = _fifo_reflect(entries, work, carry)
            departed = d[slots[own]]
            if np.array_equal(departed, pending[old:]):
                break
            pending[old:] = departed
        carry = walked
        waits[lo:hi], chain[lo:hi] = w[slots], d[slots]
        rework_waits[done : done + take] = w[at]
        # The first ``closed`` taken were carried in; the rest close chains
        # of this call's arrivals.
        closed = min(max(carried - done, 0), take)
        sojourns[done : done + closed] = d[at[:closed]] - origins[done : done + closed]
        chain[parents[done + closed - carried : done + take - carried]] = d[at[closed:]]
        pending, done = pending[take:], done + take
    chain[parents[max(done - carried, 0) :]] = np.nan  # chains still open
    queue.carry, queue.entries = carry, pending
    queue.services, queue.origins = works[done:], origins[done:]
    queue.sojourns = sojourns[: min(done, carried)]
    a_end, s_end, w_end = carry
    return waits, chain, rework_waits[:done], float(a_end + w_end + s_end), busy
