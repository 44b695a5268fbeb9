"""Periodic grids and sampled functions.

Everything in the package lives on a uniform periodic grid over the box
[-L/2, L/2): sample j sits at x_j = -L/2 + j*L/n.  The box is a proxy for
the whole line, so most operations require the data to have decayed at the
periodic seam; :func:`require_seam_decay` enforces that.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SeamLeakError

# Relative magnitude allowed at the seam before weighted integrals abort.
SEAM_TOL = 1e-10

# Seeded linear Carleman corpus: modes up to _CORPUS_K_MAX in both the data
# and the static potential (sup-norm _CORPUS_SUP_V); the data window is
# flat on |x| <= _CORPUS_INNER and zero past _CORPUS_OUTER.
_CORPUS_K_MAX = 40
_CORPUS_SUP_V = 1.0
_CORPUS_INNER = 8.0
_CORPUS_OUTER = 12.0


def _load_hashlib():
    """The ``hashlib`` module, imported without OpenSSL when it can be.

    The package's only digests are SHA-256 of a seed string or a corpus,
    and CPython's built-in SHA-256 gives the same bytes as OpenSSL's, so
    mapping ``libcrypto`` (about 3.4 MB of peak resident size) buys
    nothing.  When neither ``hashlib`` nor ``_hashlib`` is loaded yet and
    the built-in module (``_sha2`` on 3.12+, ``_sha256`` before) imports,
    ``hashlib`` and ``hmac`` are imported while ``_hashlib`` is blocked,
    as in a CPython built without OpenSSL; the block is lifted at once, so
    no ``None`` entry stays in ``sys.modules``.  Later importers
    (``secrets``, hence ``numpy.random``) get these cached modules.
    Otherwise ``hashlib`` is imported, or returned, as it is: a process
    never gets a ``hashlib`` without SHA-256.  The first call must not
    race an import on another thread; the runner makes it on the main
    thread before any job is submitted.
    """
    if not {"hashlib", "_hashlib"} & sys.modules.keys():
        try:
            __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256")
        except ImportError:
            pass
        else:
            sys.modules["_hashlib"] = None
            try:
                import hashlib
                import hmac  # cached for secrets, which imports it next
            finally:
                del sys.modules["_hashlib"]
    import hashlib
    return hashlib


def rng(seed: int) -> np.random.Generator:
    """numpy's default generator seeded with ``seed``; every seeded draw in
    the package comes from here.  ``numpy.random`` imports ``secrets``,
    hence ``hashlib``, so :func:`_load_hashlib` runs first: the process
    loads no OpenSSL, and the streams are those of
    ``np.random.default_rng(seed)`` unchanged."""
    _load_hashlib()
    return np.random.default_rng(seed)


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def grid_points(L: float, n: int) -> np.ndarray:
    """The sample positions x_j = -L/2 + j*L/n, j = 0..n-1, of the box."""
    return -0.5 * L + (L / n) * np.arange(n)


@dataclass
class GridFunction:
    """Real samples of a function on the periodic box [-L/2, L/2).

    L : full period of the box (the sample at -L/2 is included, +L/2 is not).
    n : number of samples, a power of two.
    values : real array of shape (n,).
    """

    L: float
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ConfigError(f"box length must be positive, got L={self.L!r}")
        if not _is_pow2(int(self.n)):
            raise ConfigError(f"sample count must be a power of two, got n={self.n!r}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n,):
            raise ConfigError(
                f"values must have shape ({self.n},), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.L, self.n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.L, self.n, np.asarray(values, dtype=float))


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Samples f(t_i, x_j) on the periodic box at strictly increasing times.

    The parabolic operand type of symbols.carleman_quadratic_check: row i
    of ``values`` (shape (nt, n)) is the operand at ``times[i]``.  Checks
    that need more of the time grid (uniform spacing, a minimum number of
    samples) impose it themselves.
    """

    L: float
    n: int
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if (times.ndim != 1 or values.size == 0
                or values.shape != (times.size, int(self.n))):
            raise ConfigError(
                f"need times of shape (nt,) and values of shape (nt, "
                f"{self.n}), got {times.shape} and {values.shape}")
        # min and max propagate nan without allocating, unlike isfinite on
        # a trajectory of tens of megabytes
        if not (np.all(np.isfinite(times)) and math.isfinite(values.min())
                and math.isfinite(values.max())):
            raise ConfigError("samples must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ConfigError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def nt(self) -> int:
        return int(self.times.size)

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.L, self.n)


def seam_magnitude(values: np.ndarray) -> float | np.ndarray:
    """Largest magnitude in the outermost 1% of cells on either side of the
    seam, relative to the overall maximum: a float for one row of shape
    (n,), one value per row for shape (rows, n)."""
    values = np.asarray(values)
    k = max(2, values.shape[-1] // 100)
    edge = np.maximum(np.abs(values[..., :k]).max(axis=-1),
                      np.abs(values[..., -k:]).max(axis=-1))
    # max |v| without an array of |v|: negation is exact
    peak = np.maximum(values.max(axis=-1), -values.min(axis=-1))
    leak = np.divide(edge, peak, out=np.zeros_like(edge), where=peak != 0.0)
    return float(leak) if values.ndim == 1 else leak


def require_seam_decay(values: np.ndarray,
                       what: str | Sequence[str] = "data") -> None:
    """Raise SeamLeakError unless ``values`` have decayed at the seam.

    ``values`` is one row of shape (n,) or many of shape (rows, n); ``what``
    names the data, one name for all rows or a sequence with one name per
    row.  The first row past SEAM_TOL is the one reported.
    """
    leaks = np.atleast_1d(seam_magnitude(values))
    bad = np.flatnonzero(leaks > SEAM_TOL)
    if bad.size:
        i = int(bad[0])
        name = what if isinstance(what, str) else what[i]
        raise SeamLeakError(
            f"{name} has relative magnitude {leaks[i]:.3e} at the periodic "
            f"seam (allowed {SEAM_TOL:.1e}); enlarge the box or window the "
            f"data")


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C^inf step: 0 for u <= 0, 1 for u >= 1, and the standard
    exp(-1/u)-based transition in between."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    f1 = np.exp(-1.0 / um)
    f2 = np.exp(-1.0 / (1.0 - um))
    out[mid] = f1 / (f1 + f2)
    return out


def smooth_window(L: float, n: int, inner: float, outer: float) -> GridFunction:
    """C^inf cutoff: identically 1 for |x| <= inner, 0 for |x| >= outer,
    with the smooth step in between."""
    if not (0.0 < inner < outer <= 0.5 * L):
        raise DomainError("need 0 < inner < outer <= L/2")
    t = (outer - np.abs(grid_points(L, n))) / (outer - inner)
    return GridFunction(L, n, smooth_step(t))


def gaussian(L: float, n: int, sigma: float = 1.0) -> GridFunction:
    x = grid_points(L, n)
    return GridFunction(L, n, np.exp(-0.5 * (x / sigma) ** 2))


def band_limited_noise(L: float, n: int, k_max: int, rng: np.random.Generator,
                       amplitude: float = 1.0) -> GridFunction:
    """Random real field with Fourier support |k| <= k_max and peak
    ``amplitude``; periodic, so the caller windows it to decay at the
    seam."""
    if not (1 <= k_max < n // 2):
        raise DomainError("need 1 <= k_max < n/2")
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[: k_max + 1] = rng.standard_normal(k_max + 1) \
        + 1j * rng.standard_normal(k_max + 1)
    spec[0] = spec[0].real
    vals = np.fft.irfft(spec, n)
    vals *= amplitude / max(np.max(np.abs(vals)), 1e-300)
    return GridFunction(L, n, vals)

