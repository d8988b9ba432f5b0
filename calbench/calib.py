"""The frozen calibration slice and the in-operation sampler.

Host speed on a shared machine drifts by a factor of two within seconds, so
no raw wall time holds still between runs.  Every timed operation is divided
by the time this fixed pure-Python loop takes around and during it.  The
loop is shaped like the replay hot loop -- small-int arithmetic, a fixed
list lookup, a fixed dict lookup and a data-dependent branch -- and it
allocates nothing: every value stays in the interpreter's small-int cache
and iteration runs over fixed tuples.

Do not edit the loop, its tables or its rep counts.  A calibration unit (CU)
is the time of one full slice; changing the slice redefines the unit and
makes every ``*_cu`` figure incomparable with earlier ones.

Run ``python3 calbench/calib.py`` for the self-test.
"""

import signal
import time
import tracemalloc

_TAGS = tuple(range(64))
# Two fixed, non-linear permutations of 0..255 (a linear one lets the
# checksum collapse to its start value).
_SETS = sorted(range(256), key=lambda i: (i * 7919) % 4093)
_WAYS = dict(enumerate(sorted(range(256), key=lambda i: (i * 104729) % 4091)))

#: Outer repetitions of one full slice (one CU) and of one in-op sample.
FULL_REPS = tuple(range(16))
MINI_REPS = tuple(range(1))
#: The loop's result for each rep count; a mismatch means the interpreter
#: did not run the frozen loop as written.
CHECKSUMS = {len(FULL_REPS): 89, len(MINI_REPS): 219}

#: Seconds between in-operation samples.
SAMPLE_PERIOD = 0.01


class CalibrationError(RuntimeError):
    """The calibration loop returned a wrong checksum."""


def _loop(reps):
    acc = 7
    line = 0
    sets = _SETS
    ways = _WAYS
    tags = _TAGS
    for r in reps:
        for a in tags:
            for b in tags:
                line = sets[line ^ a] ^ b
                tag = ways[line]
                if tag & 1:
                    acc = sets[acc ^ tag]
                else:
                    acc = ways[acc ^ r]
    return acc


def timed_slice(reps=FULL_REPS):
    """Run the loop once; return its seconds.  Raises on a bad checksum."""
    t0 = time.perf_counter()
    acc = _loop(reps)
    dt = time.perf_counter() - t0
    if acc != CHECKSUMS[len(reps)]:
        raise CalibrationError(
            f"calibration checksum {acc} != {CHECKSUMS[len(reps)]}")
    return dt


class Sampler:
    """Runs a short slice from ``SIGALRM`` every ``SAMPLE_PERIOD`` seconds
    while armed, so a long operation is calibrated against the host speed
    it actually ran at, not only the speed at its two ends.

    The handler runs in the main thread between bytecodes.  ``on_sample``
    (if set) is called with each sample's start and end, which the tracer
    uses to keep sample time out of layer self times.
    """

    def __init__(self):
        self.samples = []      # (start, end) of each in-op sample
        self.total = 0.0       # seconds spent sampling since creation
        self.bad_checksum = False
        self.on_sample = None
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        acc = _loop(MINI_REPS)
        t1 = time.perf_counter()
        if acc != CHECKSUMS[len(MINI_REPS)]:
            self.bad_checksum = True
        self.samples.append((t0, t1))
        self.total += t1 - t0
        if self.on_sample is not None:
            self.on_sample(t0, t1)

    def arm(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return self.samples


def unit_seconds(before, after, samples):
    """Seconds per CU around one operation: the adjacent full slices and
    the in-op samples, pooled by the loop repetitions each ran."""
    seconds = before + after + sum(t1 - t0 for t0, t1 in samples)
    reps = 2 * len(FULL_REPS) + len(samples) * len(MINI_REPS)
    return seconds / reps * len(FULL_REPS)


def self_test():
    """Check both checksums and that a slice allocates nothing that
    outlives it and nothing that grows with its length.  Returns a list of
    failure messages (empty when the slice is sound)."""
    problems = []
    for reps in (FULL_REPS, MINI_REPS):
        got = _loop(reps)
        if got != CHECKSUMS[len(reps)]:
            problems.append(f"{len(reps)} reps: checksum {got} != "
                            f"{CHECKSUMS[len(reps)]}")
    peaks = []
    tracemalloc.start()
    try:
        for reps in (FULL_REPS, MINI_REPS):
            _loop(reps)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _loop(reps)
            current, peak = tracemalloc.get_traced_memory()
            if current != before:
                problems.append(f"{len(reps)} reps: {current - before} bytes "
                                "left allocated")
            peaks.append(peak - before)
    finally:
        tracemalloc.stop()
    # Loop iterators are the only transient objects; a container built per
    # iteration would make the full slice's peak exceed the short one's.
    if peaks[0] != peaks[1] or peaks[0] > 1024:
        problems.append(f"transient allocation peaks {peaks} bytes")
    return problems


if __name__ == "__main__":
    problems = self_test()
    for msg in problems:
        print("FAIL", msg)
    if not problems:
        print(f"ok: checksums {CHECKSUMS}, no allocation; one CU = "
              f"{timed_slice():.4f} s on this host")
    raise SystemExit(1 if problems else 0)
