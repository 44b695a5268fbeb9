"""Periodic grids and sampled functions.

Everything in the package lives on a uniform periodic grid over the box
[-L/2, L/2): sample j sits at x_j = -L/2 + j*L/n.  The box is a proxy for
the whole line, so most operations require the data to have decayed at the
periodic seam; :func:`require_seam_decay` enforces that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SeamLeakError

DEFAULT_L = 40.0
DEFAULT_N = 4096

# Relative magnitude allowed at the seam before weighted integrals abort.
SEAM_TOL = 1e-10


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
    def h(self) -> float:
        return self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.L, self.n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.L, self.n, np.asarray(values, dtype=float))


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Samples f(t_i, x_j) on the periodic box at strictly increasing times.

    The one trajectory type: row i of ``values`` (shape (nt, n)) is the
    state at ``times[i]``.  Checks that need more of the time grid (uniform
    spacing, a minimum number of samples) impose it themselves.
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

    def slice(self, i: int) -> GridFunction:
        return GridFunction(self.L, self.n, self.values[i])


def trapezoid(g: GridFunction) -> float:
    """Integral over the box; on a periodic grid the trapezoid rule is a
    plain Riemann sum."""
    return float(g.h * g.values.sum())


def seam_magnitude(values: np.ndarray) -> float:
    """Largest magnitude in the outermost 1% of cells on either side of the
    seam, relative to the overall maximum."""
    n = len(values)
    k = max(2, n // 100)
    edge = max(np.max(np.abs(values[:k])), np.max(np.abs(values[-k:])))
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return 0.0
    return float(edge / peak)


def require_seam_decay(g: GridFunction, tol: float = SEAM_TOL,
                       what: str = "data") -> None:
    leak = seam_magnitude(g.values)
    if leak > tol:
        raise SeamLeakError(
            f"{what} has relative magnitude {leak:.3e} at the periodic seam "
            f"(allowed {tol:.1e}); enlarge the box or window the data")


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


def gaussian(L: float, n: int, sigma: float = 1.0, center: float = 0.0,
             amplitude: float = 1.0) -> GridFunction:
    x = grid_points(L, n)
    return GridFunction(L, n, amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2))


def fourier_mode(L: float, n: int, k: int, kind: str = "cos",
                 amplitude: float = 1.0) -> GridFunction:
    """Single periodic mode cos/sin(2 pi k x / L)."""
    phase = 2.0 * math.pi * k * grid_points(L, n) / L
    if kind == "cos":
        vals = amplitude * np.cos(phase)
    elif kind == "sin":
        vals = amplitude * np.sin(phase)
    else:
        raise DomainError(f"kind must be 'cos' or 'sin', got {kind!r}")
    return GridFunction(L, n, vals)


def windowed_exponential(L: float, n: int, lam: float,
                         inner: float | None = None,
                         outer: float | None = None) -> GridFunction:
    """exp(lam * x) cut off smoothly: the standard localized test profile.

    Defaults follow the usual geometry: identically exp(lam x) on
    |x| <= L/8, zero beyond |x| >= L/4.
    """
    inner = L / 8.0 if inner is None else inner
    outer = L / 4.0 if outer is None else outer
    w = smooth_window(L, n, inner, outer)
    return w.with_values(w.values * np.exp(lam * w.x))


def band_limited_noise(L: float, n: int, k_max: int, rng: np.random.Generator,
                       amplitude: float = 1.0,
                       windowed: bool = True) -> GridFunction:
    """Random real field with Fourier support |k| <= k_max, optionally
    multiplied by the default smooth window so it decays at the seam."""
    if not (1 <= k_max < n // 2):
        raise DomainError("need 1 <= k_max < n/2")
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[: k_max + 1] = rng.standard_normal(k_max + 1) \
        + 1j * rng.standard_normal(k_max + 1)
    spec[0] = spec[0].real
    vals = np.fft.irfft(spec, n)
    vals *= amplitude / max(np.max(np.abs(vals)), 1e-300)
    if windowed:
        vals = vals * smooth_window(L, n, L / 8.0, L / 4.0).values
    return GridFunction(L, n, vals)


def centered_d1(g: GridFunction) -> np.ndarray:
    """First derivative by periodic centered differences."""
    v = g.values
    return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * g.h)


def centered_d2(g: GridFunction) -> np.ndarray:
    """Second derivative by periodic centered differences."""
    v = g.values
    return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (g.h * g.h)

