"""Macdonald functions, the fractional-power normalization constant, and the
closed-form half-power heat kernel.

The Macdonald function K_nu is evaluated by three cooperating strategies,
with fixed module constants as their controls:

* an ascending series built from the modified Bessel functions I_{+nu} and
  I_{-nu}, used below SERIES_CUTOFF_Z when nu is safely away from an
  integer (the I-pair difference cancels catastrophically near integer
  order);
* trapezoid quadrature of exp(z) K_nu(z) = int_0^inf exp(-2z sinh(w/2)^2)
  cosh(nu w) dw, whose exponent does not cancel near its peak as
  z (1 - cosh w) would, on the sorted arguments in blocks of 2048.  Each
  block runs on _refined_trapezoid, the one driver that the subordination
  multiplier shares: from nodes 0.25 apart, as few as the block's window
  needs (no floor), nested doubling adds only the new odd nodes to half
  the previous sum until every point meets QUAD_REL_TOL (QuadratureError
  before any level past MAX_QUAD_NODES), each level row-summed one tile of
  _ROW_TILE rows at a time in one reused buffer.  The representation holds
  at every real nu, so this path serves every (nu, z), integer orders too;
* the large-argument expansion sqrt(pi/(2z)) exp(-z) (1 + ...) from
  ASYMPTOTIC_SWITCH_Z on, with the running term monitored and a fallback
  to quadrature whenever the expansion cannot reach QUAD_REL_TOL.

The series and quadrature branches are required to agree to 1e-8 relative
in an overlap window around the series cutoff; the test-suite enforces it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError, QuadratureError

# Arguments below this go to the ascending series.
SERIES_CUTOFF_Z = 2.0
# Branch switch to the large-argument expansion.
ASYMPTOTIC_SWITCH_Z = 30.0
# Relative tolerance of the quadrature refinement and of the asymptotic
# expansion's running term.
QUAD_REL_TOL = 1e-12
# Hard cap on quadrature nodes per refinement level (QuadratureError past it).
MAX_QUAD_NODES = 20000
# Below this distance to the nearest integer the I-pair series is abandoned.
INTEGER_GUARD = 0.05

_SERIES_MAX_TERMS = 60
# Points per quadrature block; each block converges on its own.
_QUAD_BLOCK = 2048
# Rows per tile of _refined_trapezoid's row sums, for both quadratures: one
# (tile x nodes) buffer stands in for the (rows x nodes) matrix, and each
# row is computed and summed as on the full matrix.
_ROW_TILE = 64


def gamma(x: float) -> float:
    """Gamma function on the real line with explicit pole rejection.

    Thin wrapper over the C library implementation; nonpositive integers
    raise :class:`PoleError` instead of returning garbage.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x:g}")
    return math.gamma(x)


def _iv_series(nu: float, z: np.ndarray) -> np.ndarray:
    # Ascending series of I_nu, term-recursive; z is expected small (<~ 10).
    half = 0.5 * z
    term = half**nu / gamma(nu + 1.0)
    total = term.copy()
    q = half * half
    for k in range(_SERIES_MAX_TERMS):
        term = term * q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    return total


def _kv_series(nu: float, z: np.ndarray) -> np.ndarray:
    # K from the I-pair; caller guarantees nu is away from integers.
    i_plus = _iv_series(nu, z)
    i_minus = _iv_series(-nu, z)
    return 0.5 * math.pi * (i_minus - i_plus) / math.sin(math.pi * nu)


def _row_tiles(n_rows: int, n_cols: int):
    # (row slice, view) per tile of _ROW_TILE rows; the views share one
    # C-contiguous (tile x n_cols) buffer, so a row sum over a view runs as
    # over that row of the full matrix.
    buf = np.empty((min(_ROW_TILE, n_rows), n_cols))
    for start in range(0, n_rows, _ROW_TILE):
        rows = slice(start, min(start + _ROW_TILE, n_rows))
        yield rows, buf[: rows.stop - start]


def _refined_trapezoid(lo: float, hi: float, n: int, n_rows: int,
                       rel_tol: float, floor: float, max_nodes: int,
                       name: str, integrand) -> np.ndarray:
    # Trapezoid rule on [lo, hi] of n_rows integrands from n nodes, refined
    # by nested doubling, T_{2n-1} = T_n / 2 + h' sum f(new odd nodes), until
    # every row agrees with the previous level to rel_tol * max(|row|, floor)
    # (QuadratureError before any level past max_nodes).  integrand(x) does
    # the work that depends only on the nodes x and returns write(rows, v),
    # which fills the tile v with those rows' values at x.
    def row_sums(x: np.ndarray, ends: bool) -> np.ndarray:
        # per row, the sum over the nodes x, end nodes halved when ends is set
        write = integrand(x)
        sums = np.empty(n_rows)
        for rows, v in _row_tiles(n_rows, x.size):
            write(rows, v)
            sums[rows] = (0.5 * v[:, 0] + v[:, 1:-1].sum(axis=1)
                          + 0.5 * v[:, -1]) if ends else v.sum(axis=1)
        return sums

    h = (hi - lo) / (n - 1)
    x, prev = np.linspace(lo, hi, n), None
    while n <= max_nodes:
        cur = h * row_sums(x, prev is None)
        if prev is not None:
            cur += 0.5 * prev
            if np.all(np.abs(cur - prev)
                      <= rel_tol * np.maximum(np.abs(cur), floor)):
                return cur
        prev, n, h = cur, 2 * n - 1, 0.5 * h
        x = lo + h * np.arange(1, n, 2)
    raise QuadratureError(
        f"{name} did not converge within {max_nodes} nodes")


def _kv_quadrature(nu: float, z: np.ndarray) -> np.ndarray:
    # Scaled value exp(z) K_nu(z), one block of _QUAD_BLOCK sorted points at
    # a time; each block refines until its own points converge.
    order = np.argsort(z)
    out = np.empty_like(z)
    for start in range(0, z.size, _QUAD_BLOCK):
        idx = order[start : start + _QUAD_BLOCK]
        out[idx] = _kv_quadrature_block(nu, z[idx])
    return out


def _kv_quadrature_block(nu: float, z: np.ndarray) -> np.ndarray:
    # Trapezoid on [0, w_max] of exp(-2z sinh(w/2)^2) cosh(nu w), first nodes
    # about 0.25 apart.  w_max makes the dropped tail < 1e-14 relative: past
    # sinh w = (nu+30)/z the exponent falls at rate >= 30.
    w_max = math.asinh((nu + 30.0) / float(np.min(z))) + 2.0

    def integrand(w: np.ndarray):
        shift, log_cosh = -2.0 * np.sinh(0.5 * w) ** 2, _log_cosh(nu * w)

        def write(rows: slice, v: np.ndarray) -> None:
            np.multiply.outer(z[rows], shift, out=v)
            v += log_cosh
            np.exp(v, out=v)
        return write

    return _refined_trapezoid(
        0.0, w_max, int(w_max / 0.25) + 1, z.size, QUAD_REL_TOL,
        0.0, MAX_QUAD_NODES, f"Macdonald quadrature for nu={nu:g}", integrand)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # log(cosh x) without overflow for large x.
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _kv_asymptotic(nu: float, z: np.ndarray, rel_tol: float):
    # Scaled expansion exp(z) K_nu(z) ~ sqrt(pi/2z) sum_j c_j / z^j with the
    # running term monitored; entries whose terms start growing before the
    # tolerance is reached are flagged for the quadrature fallback.
    mu = 4.0 * nu * nu
    total = np.ones_like(z)
    term = np.ones_like(z)
    converged = np.zeros(z.shape, dtype=bool)
    frozen = np.zeros(z.shape, dtype=bool)
    for j in range(1, 40):
        factor = (mu - (2.0 * j - 1.0) ** 2) / (8.0 * j * z)
        new_term = term * factor
        active = ~frozen & ~converged
        frozen |= active & (np.abs(new_term) >= np.abs(term)) & (term != 0.0)
        active &= ~frozen
        term = np.where(active, new_term, term)
        total = np.where(active, total + new_term, total)
        converged |= active & (np.abs(term) <= rel_tol * np.abs(total))
        if np.all(converged | frozen):
            break
    return np.sqrt(0.5 * math.pi / z) * total, converged


def macdonald_k(nu: float, z, scaled: bool = False):
    """Macdonald function K_nu(z) for nu >= 0, z > 0.

    Parameters
    ----------
    nu : float
        Order, nonnegative.
    z : float or array_like
        Argument(s), strictly positive.
    scaled : bool
        When True, return exp(z) * K_nu(z), which stays representable for
        large arguments.

    Returns
    -------
    float or ndarray matching the shape of ``z``.
    """
    nu = float(nu)
    if nu < 0.0:
        raise DomainError(f"order must be nonnegative, got nu={nu:g}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if z_arr.size == 0:
        return np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr <= 0.0):
        raise DomainError("argument must be finite and strictly positive")

    flat = z_arr.ravel()
    out = np.empty_like(flat)

    near_int = abs(nu - round(nu)) < INTEGER_GUARD
    small = flat < SERIES_CUTOFF_Z
    large = flat >= ASYMPTOTIC_SWITCH_Z
    mid = ~small & ~large

    # quadrature serves the mid range always, and the small range near
    # integer order where the series cancels.
    if near_int:
        series_mask = np.zeros_like(small)
        quad_mask = small | mid
    else:
        series_mask = small
        quad_mask = mid

    if np.any(series_mask):
        zs = flat[series_mask]
        vals = _kv_series(nu, zs)
        out[series_mask] = vals * np.exp(zs) if scaled else vals
    if np.any(quad_mask):
        zq = flat[quad_mask]
        v = _kv_quadrature(nu, zq)
        out[quad_mask] = v if scaled else v * np.exp(-zq)
    if np.any(large):
        zl = flat[large]
        v, ok = _kv_asymptotic(nu, zl, QUAD_REL_TOL)
        if not np.all(ok):
            v[~ok] = _kv_quadrature(nu, zl[~ok])
        out[large] = v if scaled else v * np.exp(-zl)

    out = out.reshape(z_arr.shape)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out[()]) if out.shape == () else float(out[0])
    return out


def frac_power_constant(N: int, s: float) -> float:
    """Normalization constant of the singular-integral representation.

    C(N, s) = -2^(1 + s - N/2) / (pi^(N/2) * Gamma(-s)), positive for
    s in (0, 1).  C(1, 1/2) = 1/pi.
    """
    if int(N) != N or N < 1:
        raise DomainError(f"dimension must be a positive integer, got {N!r}")
    if not (0.0 < s < 1.0):
        raise DomainError(f"power must lie in (0, 1), got s={s:g}")
    return -(2.0 ** (1.0 + s - N / 2.0)) / (math.pi ** (N / 2.0) * gamma(-s))


def half_kernel_explicit(t: float, x, m: float, N: int = 1):
    """Closed-form heat kernel of the half power (s = 1/2) with mass m.

    K_t(x) = 2^((1-N)/2) pi^(-(N+1)/2) m^((N+1)/2) t
             (|x|^2 + t^2)^(-(N+1)/4) K_((N+1)/2)(m sqrt(|x|^2 + t^2))

    normalized so that its integral over R^N equals exp(-m t).

    ``x`` is interpreted as the radial coordinate |x| (vectorized).
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got t={t:g}")
    if m <= 0.0:
        raise DomainError(f"mass must be positive, got m={m:g}")
    if int(N) != N or N < 1:
        raise DomainError(f"dimension must be a positive integer, got {N!r}")
    x_arr = np.asarray(x, dtype=float)
    rho = np.sqrt(x_arr * x_arr + t * t)
    nu = 0.5 * (N + 1.0)
    pref = (2.0 ** (0.5 * (1.0 - N)) * math.pi ** (-0.5 * (N + 1.0))
            * m ** (0.5 * (N + 1.0)) * t)
    vals = pref * rho ** (-0.5 * (N + 1.0)) * macdonald_k(nu, m * rho)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(vals)
    return vals
