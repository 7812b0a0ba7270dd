"""The simulator's FIFO queue kernel, in NumPy.

``simulate_fifo`` consumes pre-drawn arrival and service arrays (calendar
time units) and plays them through a single-server FIFO queue.  A flagged
arrival spawns one rework job at its own departure instant; the rework job
joins the tail of the queue with its own service time.  The queue has one
implementation, the reflected random walk of Lindley's recursion, which
NumPy evaluates without a Python loop.  Rework makes the walk's input
depend on its output (a rework enters when its parent departs), so a call
with rework in it is walked to its fixed point.

A call walks the arrivals it is given as one walk, which starts from the
previous job's wait, so its rounding is at the scale of that call.  A run
can be played in consecutive calls that pass a ``QueueState`` from one to
the next; the simulator owns the chunk size and streams its runs that way,
one chunk per call.  A direct whole-array call is one walk of the run.
"""

import numpy as np

IMPL = "python"


def _fifo_reflect(arrivals, services, carry):
    """One pass of the reflected random walk, continued from ``carry``.

    The FIFO wait recursion w[i] = max(0, w[i-1] + s[i-1] - gap[i]) has the
    closed form w[i] = path[i] - min(0, path[..i]) for the cumulative drift
    path, which starts at the first job's unreflected wait.  ``carry`` is
    (arrival, service, wait) of the job before, and the walk returns its
    own last job's.  The departures buffer holds the path until the waits
    are known, so the walk allocates nothing else.  An empty walk leaves
    ``carry`` as it was.
    """
    a_prev, s_prev, w_prev = carry
    n = arrivals.shape[0]
    waits, departures = np.empty(n), np.empty(n)
    if not n:
        return waits, departures, carry
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

    A call is one walk, so it rounds at the scale of the call.  The simulator
    owns the chunk size and streams a run in calls of ``simulator._CHUNK``
    arrivals; a direct whole-array call is one walk of the run, at its scale.
    """
    n = arrivals.shape[0]
    queue = QueueState() if state is None else state
    parents = np.flatnonzero(spawn_mask)
    carried = queue.entries.size
    busy = float(services.sum()) + float(rework_services.sum())
    if not (parents.size or carried):
        waits, chain, queue.carry = _fifo_reflect(arrivals, services, queue.carry)
        rework_waits = queue.sojourns = np.zeros(0)
    else:
        # Reworks in spawn order: those carried in from earlier calls, then
        # this call's, the j-th of which belongs to its j-th flagged arrival.
        # Carried entries are final; a new one starts as its parent's a + s.
        works = np.concatenate((queue.services, rework_services))
        origins = np.concatenate((queue.origins, arrivals[parents]))
        pending = np.concatenate((queue.entries, arrivals[parents] + services[parents]))
        # Only reworks spawned before a parent can sit ahead of it, so each
        # pass makes one more own entry final (pass p the first p), and pass
        # parents.size + 1 changes none: the passes always reach the fixed point.
        for _ in range(parents.size + 1):
            # Rework k follows the externals that arrived by its entry (so
            # externals win ties), and never precedes rework k - 1.
            pos = np.maximum.accumulate(np.searchsorted(arrivals, pending, "right"))
            # One entering at or after the last arrival waits for the next
            # call, unless these are the run's last arrivals.
            take = pending.size if last else int(np.searchsorted(pos, n))
            at = pos[:take] + np.arange(take)
            external = np.ones(n + take, dtype=bool)
            external[at] = False
            slots = np.flatnonzero(external)
            entries, work = np.empty(external.size), np.empty(external.size)
            entries[slots], entries[at] = arrivals, pending[:take]
            work[slots], work[at] = services, works[:take]
            w, d, carry = _fifo_reflect(entries, work, queue.carry)
            departed = d[slots[parents]]
            if np.array_equal(departed, pending[carried:]):
                break
            pending[carried:] = departed
        waits, chain, rework_waits = w[slots], d[slots], w[at]
        # The first ``closed`` taken were carried in; the rest close chains
        # of this call's arrivals, and the chains after them stay open.
        closed = min(carried, take)
        queue.sojourns = d[at[:closed]] - origins[:closed]
        chain[parents[: take - closed]] = d[at[closed:]]
        chain[parents[take - closed :]] = np.nan
        queue.carry, queue.entries = carry, pending[take:]
        queue.services, queue.origins = works[take:], origins[take:]
    a_end, s_end, w_end = queue.carry
    return waits, chain, rework_waits, float(a_end + w_end + s_end), busy
