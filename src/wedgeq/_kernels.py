"""The simulator's FIFO queue kernel, in NumPy.

``simulate_fifo`` consumes pre-drawn interarrival gaps and services (time
units) and plays them through a single-server FIFO queue.  A flagged
arrival spawns one rework job at its own departure instant; the rework job
joins the tail of the queue with its own service time.  The queue has one
implementation, the reflected random walk of Lindley's recursion, which
needs only the gaps and which NumPy evaluates without a Python loop.
Rework makes the walk's input depend on its output (a rework enters when
its parent departs), so a call with rework in it is walked to its fixed
point.

A call walks the gaps it is given as one walk, whose drift path starts at
its first job's wait, so its waits round at the scale of that path over
the call; no calendar time enters them.  A call with rework in it places
the reworks among its arrivals timed from the previous job's arrival, so
its rework entries round at the scale of the call.  A run can be played
in consecutive calls that pass a ``QueueState`` from one to the next; the
simulator owns the chunk size and streams its runs that way, one chunk
per call.  A direct whole-array call is one walk of the run.  A call can
walk its external jobs' waits into an array the caller owns (``out``),
which is how the simulator fills a run's post-warm-up waits without a
per-chunk copy.
"""

import numpy as np

IMPL = "python"  # read by perfbench/worker.py, which records it as provenance

# An empty array that no call writes to: no rework to carry or to report.
_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


def _fifo_reflect(gaps, services, carry, out=None):
    """One pass of the reflected random walk, continued from ``carry``.

    The FIFO wait recursion w[i] = max(0, w[i-1] + s[i-1] - gap[i]) has the
    closed form w[i] = path[i] - min(0, path[1..i]) for the cumulative drift
    path, which starts at the first job's wait.  ``carry`` is (service,
    wait) of the job before, and the walk returns its own last job's.  An
    empty walk leaves ``carry`` as it was.  The waits are walked into
    ``out`` when given.
    """
    s_prev, w_prev = carry
    n = gaps.shape[0]
    waits = np.empty(n) if out is None else out
    path = np.empty(n)
    if not n:
        return waits, carry
    path[0] = max(w_prev + (s_prev - gaps[0]), 0.0)
    np.subtract(services[:-1], gaps[1:], out=path[1:])
    np.cumsum(path, out=path)
    first = path[0]
    path[0] = 0.0
    # fmin, not minimum: equal on NaN-free input up to a signed zero's tie,
    # and the path holds no -0.0; fmin is the faster of the two.
    np.fmin.accumulate(path, out=waits)
    path[0] = first
    np.subtract(path, waits, out=waits)
    return waits, (services[-1], waits[-1])


class QueueState:
    """The queue between calls of ``simulate_fifo`` on consecutive arrivals.

    carry     (service, wait) of the last job walked
    arrival   its calendar arrival (its entry, if a rework)
    entries   entry times of the reworks still to be walked (their parents'
              departures), in spawn order, as offsets from the carry's arrival
    services  their services
    gap_sum   the sum of the last call's gaps, float(gaps.sum())
    """

    def __init__(self):
        self.carry = (0.0, 0.0)  # the queue starts empty at time 0
        self.arrival = self.gap_sum = 0.0
        self.entries = self.services = _EMPTY


def simulate_fifo(gaps, services, spawn_mask, rework_services, state=None, last=True, *,
                  out=None):
    """Run the queue; returns (waits, rework_waits, end, busy).

    gaps[i]            time from the external arrival before job i to job i
                       (for the first, from the previous call's last arrival,
                       or from time 0 when the queue starts empty)
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
    The state keeps the sum of the call's gaps (``gap_sum``) for the caller.

    ``out``, a float64 array of the gaps' length, receives the waits and is
    returned as ``waits``; without it the call allocates them.

    A call is one walk of the gaps, whose drift path starts from the first
    job's wait, so the waits round at the scale of that path over the call.
    The simulator owns the chunk size and streams a run in calls of
    ``simulator._CHUNK`` arrivals.  A call with rework in it places the
    reworks among arrivals timed from the carry's arrival (the state keeps
    pending entries as offsets from it), so its rework entries, its
    parents' departures, round at the scale of the call too.
    """
    n = gaps.shape[0]
    queue = QueueState() if state is None else state
    queue.gap_sum = float(gaps.sum())
    carried = queue.entries.size
    busy = float(services.sum())
    if rework_services.size:
        busy += float(rework_services.sum())
    # Folded runs pass empty spawn masks, and so skip even the test for a flag.
    if not (carried or (spawn_mask.size and spawn_mask.any())):
        waits, queue.carry = _fifo_reflect(gaps, services, queue.carry, out)
        queue.arrival += queue.gap_sum
        rework_waits = _EMPTY
    else:
        parents = np.flatnonzero(spawn_mask)
        arrivals = np.cumsum(gaps)  # from the carry's arrival
        # Reworks in spawn order: those carried in from earlier calls, then
        # this call's, the j-th of which belongs to its j-th flagged arrival.
        # Carried entries are final; a new one starts as its parent's a + s.
        works = np.concatenate((queue.services, rework_services))
        a_own, s_own = arrivals[parents], services[parents]
        pending = np.concatenate((queue.entries, a_own + s_own))
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
            # Entry times after the carry's arrival, times[0] = 0, so that
            # their differences are the walk's gaps.
            times, work = np.zeros(external.size + 1), np.empty(external.size)
            times[1:][slots], times[1:][at] = arrivals, pending[:take]
            work[slots], work[at] = services, works[:take]
            w, walked = _fifo_reflect(np.diff(times), work, queue.carry)
            # Each parent's departure, a + w + s in that order.
            departed = a_own + w[slots[parents]]
            departed += s_own
            if np.array_equal(departed, pending[carried:]):
                break
            pending[carried:] = departed
        # The slots are in range, and "clip" lets take write out directly.
        waits, rework_waits = np.take(w, slots, out=out, mode="clip"), w[at]
        shift = float(times[-1])  # the new carry's arrival
        queue.carry, queue.arrival = walked, queue.arrival + shift
        queue.entries, queue.services = pending[take:] - shift, works[take:]
    s_end, w_end = queue.carry
    return waits, rework_waits, float(queue.arrival + w_end + s_end), busy
