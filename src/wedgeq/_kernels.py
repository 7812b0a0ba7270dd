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
    own last job's.  An empty walk leaves ``carry`` as it was.
    """
    a_prev, s_prev, w_prev = carry
    n = arrivals.shape[0]
    waits, path = np.empty(n), np.empty(n)
    if not n:
        return waits, carry
    path[0] = w_prev + (s_prev - (arrivals[0] - a_prev))
    np.subtract(arrivals[1:], arrivals[:-1], out=path[1:])
    np.subtract(services[:-1], path[1:], out=path[1:])
    np.cumsum(path, out=path)
    first = path[0]
    path[0] = min(first, 0.0)
    np.minimum.accumulate(path, out=waits)
    path[0] = first
    np.subtract(path, waits, out=waits)
    return waits, (arrivals[-1], services[-1], waits[-1])


class QueueState:
    """The queue between calls of ``simulate_fifo`` on consecutive arrivals.

    carry     (arrival, service, wait) of the last job walked
    entries   entry times of the reworks still to be walked (their parents'
              departures), in spawn order, as offsets from the carry's arrival
    services  their services
    """

    def __init__(self):
        self.carry = (0.0, 0.0, 0.0)  # the queue starts empty at time 0
        self.entries = self.services = np.zeros(0)


def simulate_fifo(arrivals, services, spawn_mask, rework_services, state=None, last=True):
    """Run the queue; returns (waits, rework_waits, end, busy).

    spawn_mask[i]      true if external job i spawns a rework job
    rework_services[k] service of the k-th spawned job: one per flagged
                       arrival, in arrival order, which is spawn order

    waits[i]           queue wait of external job i (service start - arrival)
    rework_waits[k]    queue wait of the k-th rework job walked, in spawn order
    end                calendar time of the last departure (0 when empty)
    busy               server busy time of these jobs and their reworks

    spawn_mask and rework_services may both be empty arrays when no job
    spawns rework.  A rework enters as its parent departs, so a chain's
    sojourn is its waits plus its services.

    Without ``state`` the arrays are a whole run from an empty queue.  With a
    ``QueueState`` they are the next arrivals of a longer run: the queue
    starts where the state was left and is left there again.  Unless
    ``last``, a rework that enters at or after the last of these arrivals
    stays pending in the state, and the call that walks it reports its wait.

    A call is one walk, so it rounds at the scale of the call.  The simulator
    owns the chunk size and streams a run in calls of ``simulator._CHUNK``
    arrivals; a direct whole-array call is one walk of the run, at its scale.
    A call with rework in it is walked in time relative to its first arrival
    (the state keeps pending entries relative to the carry's arrival), so its
    rework entries, its parents' departures, round at that scale too.
    """
    n = arrivals.shape[0]
    queue = QueueState() if state is None else state
    parents = np.flatnonzero(spawn_mask)
    carried = queue.entries.size
    busy = float(services.sum()) + float(rework_services.sum())
    if not (parents.size or carried):
        waits, queue.carry = _fifo_reflect(arrivals, services, queue.carry)
        rework_waits = np.zeros(0)
    else:
        t0 = arrivals[0] if n else 0.0
        arrivals = arrivals - t0
        a_prev, s_prev, w_prev = queue.carry
        a_prev -= t0
        # Reworks in spawn order: those carried in from earlier calls, then
        # this call's, the j-th of which belongs to its j-th flagged arrival.
        # Carried entries are final; a new one starts as its parent's a + s.
        works = np.concatenate((queue.services, rework_services))
        a_own, s_own = arrivals[parents], services[parents]
        pending = np.concatenate((queue.entries + a_prev, a_own + s_own))
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
            w, walked = _fifo_reflect(entries, work, (a_prev, s_prev, w_prev))
            # Each parent's departure, a + w + s in that order.
            departed = a_own + w[slots[parents]]
            departed += s_own
            if np.array_equal(departed, pending[carried:]):
                break
            pending[carried:] = departed
        waits, rework_waits = w[slots], w[at]
        a_end, s_end, w_end = walked
        queue.carry = (a_end + t0, s_end, w_end)
        queue.entries, queue.services = pending[take:] - a_end, works[take:]
    a_end, s_end, w_end = queue.carry
    return waits, rework_waits, float(a_end + w_end + s_end), busy
