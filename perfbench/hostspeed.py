"""Host-speed probe: scales measured times to a nominal host speed.

On a shared virtual machine the same code runs up to 1.6 times slower in
phases that last 5 to 20 s, so raw run times of one workload spread by
15 to 30 % between runs.  The benchmark therefore runs a fixed probe
every 0.1 s while it times calls, and scales each call's time by how fast
the probe ran around it::

    scaled = measured * nominal probe time / (median probe time near the call)

A scaled time is the time the call would have taken on a host where the
probe takes its nominal time.  It moves in proportion to the program's own
speed, and by much less than a raw time when the whole host slows down.

The probe is the benchmark's own code, so no change to pkernels changes
it.  It comes in two kinds, matched to the work of a workload: a
pure-Python integer loop (``python``, for the criterion workloads, which
call no numpy kernel), and a shorter loop plus small numpy matrix products
(``numpy``, for the matrix-oracle workloads).  Neither allocates an object
that the cyclic garbage collector tracks, so the program's heap does not
slow it.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# probe again once this much time has passed since the last probes
INTERVAL_S = 0.1
# probes run back to back each time
BATCH = 2
# probes within this many seconds of a call set its scale
MARGIN_S = 1.0

_A = np.arange(36, dtype=np.int64).reshape(6, 6) % 4


def _python_work() -> int:
    s = 0
    for i in range(45_000):
        s += i * i
    return s


def _numpy_work() -> int:
    s = 0
    for i in range(25_000):
        s += i * i
    a = _A
    for _ in range(600):
        a = (a @ _A) % 4
    return s + int(a[0, 0])


# kind -> (probe, its median time on a 2-vCPU Intel Xeon 2.1 GHz VM with
# Python 3.11 and numpy 2.4, which defines the nominal host speed)
PROBES = {'python': (_python_work, 0.0035), 'numpy': (_numpy_work, 0.0039)}


class HostSpeed:
    """Probe times of one run, and the scaling of measured intervals."""

    def __init__(self, kind: str):
        self.work, self.nominal_s = PROBES[kind]
        self.at = []        # perf_counter() at the end of each probe, ascending
        self.took = []      # seconds each probe took

    def probe(self, batch: int = BATCH):
        """Run ``batch`` probes now."""
        for _ in range(batch):
            t0 = time.perf_counter()
            self.work()
            t1 = time.perf_counter()
            self.at.append(t1)
            self.took.append(t1 - t0)

    def maybe_probe(self):
        """Probe if ``INTERVAL_S`` has passed since the last probes."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.probe()

    @contextlib.contextmanager
    def probing(self):
        """Probe every ``INTERVAL_S`` from a timer signal, also in the middle
        of a long call.  ``net`` takes these probes out of the call's time."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe(1))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end, less the probes that ran in between."""
        i = bisect.bisect_right(self.at, start)
        j = bisect.bisect_right(self.at, end)
        return end - start - sum(d for t, d in zip(self.at[i:j], self.took[i:j])
                                 if t - d >= start)

    def probe_s(self, start: float, end: float) -> float:
        """Median probe time within ``MARGIN_S`` of [start, end], always
        including the last batch before ``start`` and the first after ``end``."""
        at = self.at
        lo = min(bisect.bisect_left(at, start - MARGIN_S), bisect.bisect_right(at, start) - BATCH)
        hi = max(bisect.bisect_right(at, end + MARGIN_S), bisect.bisect_left(at, end) + BATCH)
        return statistics.median(self.took[max(0, lo):hi])

    def scaled(self, start: float, end: float) -> tuple:
        """The time of the call that ran from start to end, less probes: at
        the nominal host speed, and as measured."""
        spent = self.net(start, end)
        return spent * self.nominal_s / self.probe_s(start, end), spent

    def speed(self) -> float:
        """Host speed over the run: nominal probe time over the median probe time."""
        return self.nominal_s / statistics.median(self.took)


class Clock:
    """Times the set-up repetitions and the timed calls of one run, both as
    measured and scaled to the nominal host speed.  An untraced run also
    probes from a timer signal in the middle of long calls; a traced run
    probes only between calls, so that no probe runs inside a span.  The
    tracer, if any, is installed only while set-up or the timed phase runs."""

    def __init__(self, probe: str, tracer=None):
        self.tracer = tracer
        self.host = HostSpeed(probe)
        self.setup_s, self.setup_raw_s = [], []
        self.op_s, self.op_raw_s = [], []

    @contextlib.contextmanager
    def _timing(self, phase):
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(self.tracer)
                stack.enter_context(self.tracer.span(phase))
            else:
                stack.enter_context(self.host.probing())
            yield
        self.host.probe()

    def repeat(self, reps, make, reset=lambda: None, phase='bench.repeat'):
        """make() ``reps`` times, each after reset(); the last result, and the
        seconds of each call scaled and as measured."""
        spans, value = [], None
        with self._timing(phase):
            for _ in range(reps):
                reset()
                self.host.probe()
                t0 = time.perf_counter()
                value = make()
                spans.append((t0, time.perf_counter()))
        timed = [self.host.scaled(t0, t1) for t0, t1 in spans]
        return value, [s for s, _ in timed], [r for _, r in timed]

    def set_up(self, reps, make, reset):
        """make() ``reps`` times, each after reset(); the last result."""
        value, self.setup_s, self.setup_raw_s = self.repeat(reps, make, reset, 'bench.setup')
        return value

    def calls(self, ops, fn):
        """The timed phase: fn over ops, one call after another.  The
        outputs, and whether each call raised."""
        outputs, raised, spans = [], [], []
        with self._timing('bench.timed'):
            for op in ops:
                self.host.maybe_probe()
                t0 = time.perf_counter()
                try:
                    out, err = fn(op), False
                except Exception:
                    out, err = None, True
                spans.append((t0, time.perf_counter()))
                outputs.append(out)
                raised.append(err)
        for t0, t1 in spans:
            scaled, raw = self.host.scaled(t0, t1)
            self.op_s.append(scaled)
            self.op_raw_s.append(raw)
        return outputs, raised
