"""A fixed reference computation that gauges the machine's current speed.

    python reference.py      # one probe per line read on stdin

The benchmark keeps this script running beside it as a helper process and
asks it for a probe right before and right after each fracrel child; the
helper answers with the probe's seconds, timed inside the helper.  It is a
process of its own so that the benchmark's parent, from which the
children are forked, stays free of numpy: Linux carries a process's peak
resident size across ``exec``, so a large parent would show in every
child's ``peak_rss_mb``.

The reference box is a VM on a shared host whose speed drifts by tens of
percent over minutes; a child's wall time divided by the reference time
around it cancels most of that drift, because both slow down together.
Nothing here depends on fracrel, so a change to fracrel cannot move it.

The mix follows the workloads: short FFT round trips under Python loop
overhead (the spectral and potential-sampling paths), vectorised
transcendental functions over arrays of a few hundred KB (the symbol
sweeps), an ``exp`` over a 1000 x 4000 outer product whose 32 MB
temporaries come fresh from the kernel each time (the Macdonald
quadrature) and a plain Python loop (the interpreter-bound glue).  The mix
runs ``CHUNKS`` times in a row, about 0.5 s in all on the reference box,
so one probe averages over more than the box's fastest swings.
"""
import sys
import time

import numpy as np

CHUNKS = 4

_RNG = np.random.default_rng(0)
_SIGNAL = _RNG.standard_normal(4096)
_NODES = _RNG.uniform(0.1, 4.0, 100_000)
_ARGS = _RNG.uniform(2.0, 9.0, 1000)[:, None]
_STEPS = np.linspace(0.0, 6.0, 4000)[None, :]


def _fft_round_trips(reps=400):
    x = _SIGNAL
    for _ in range(reps):
        x = np.fft.irfft(np.fft.rfft(x) * 0.5, n=x.size) * 2.0
    return float(x[0])


def _transcendentals(reps=10):
    total = 0.0
    for k in range(reps):
        t = _NODES * (1.0 + 0.01 * k)
        total += float(np.sum(np.exp(-t * np.cosh(t)) * np.log1p(t)))
    return total


def _outer_product():
    return float(np.sum(np.exp(-_ARGS * (np.cosh(_STEPS) - 1.0))))


def _interpreter(n=120_000):
    acc = 0
    for i in range(n):
        acc += (i * i) % 7
    return acc


def probe():
    """Seconds the fixed reference computation takes right now."""
    t0 = time.perf_counter()
    for _ in range(CHUNKS):
        _fft_round_trips()
        _transcendentals()
        _outer_product()
        _interpreter()
    return time.perf_counter() - t0


def serve(lines=sys.stdin, out=sys.stdout):
    """Answer every line read with the seconds of one probe."""
    probe()                  # warm-up, unreported
    for _ in lines:
        out.write(f"{probe()!r}\n")
        out.flush()


if __name__ == "__main__":
    serve()
