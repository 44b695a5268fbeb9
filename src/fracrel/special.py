"""The Macdonald function K_nu, the one-dimensional normalization constant
C(1, s) of the singular-integral representation, and the refined-trapezoid
driver that the Macdonald and subordination quadratures share.

The Macdonald function K_nu is evaluated one way, for every nu >= 0 and
z > 0: trapezoid quadrature of

    exp(z) K_nu(z) = int_0^inf exp(-2z sinh(w/2)^2) cosh(nu w) dw,

whose exponent does not cancel near its peak as z (1 - cosh w) would.  The
integrand is analytic, so the rule converges geometrically once the window
holds the integrand and the spacing resolves its peak, about 1/sqrt(z)
wide.  Both are sized per block of sorted arguments, from the block's own
range [z_lo, z_hi]:

* window: past w1 = asinh((nu + 30)/z_lo) the log of the integrand falls
  at a rate of at least 30 + z_lo (w - w1), so w_max = w1 +
  min(2, sqrt(120/z_lo)) drops it by at least 60 at every z;
* first spacing 0.25 min(1, sqrt(30/z_hi)), which tracks the peak width;
* a block takes at most _QUAD_BLOCK points with z_hi <= _BLOCK_Z_RATIO z_lo,
  so one window and one spacing fit all of its points: past z = 30 its
  first level has a few dozen nodes, at z = 1e-26 a few hundred.  Up to
  z = 30 the window is w1 + 2 and the spacing 0.25.

Each block runs on _refined_trapezoid, the one driver that the subordination
multiplier shares: nested doubling adds only the new odd nodes to half the
previous sum until every point meets QUAD_REL_TOL (QuadratureError before
any level past MAX_QUAD_NODES), each level row-summed one tile at a time in
one reused buffer of at most _TILE_ELEMS doubles: _TILE_ELEMS // nodes rows
(at least one).  A Macdonald level of 12-80 nodes takes a 2048-point block
in at most 3 tiles; a subordination level of 377 nodes takes 173 rows per
tile.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError

# Relative tolerance of the quadrature refinement.
QUAD_REL_TOL = 1e-12
# Hard cap on quadrature nodes per refinement level (QuadratureError past it).
MAX_QUAD_NODES = 20000
# Points per quadrature block, and the widest z_hi / z_lo a block spans; each
# block converges on its own.
_QUAD_BLOCK = 2048
_BLOCK_Z_RATIO = 16.0
# Elements per tile of _refined_trapezoid's row sums, for both quadratures
# (65,536 doubles, 512 KB): one (tile x nodes) buffer stands in for the
# (rows x nodes) matrix, and each row is computed and summed as on the full
# matrix.
_TILE_ELEMS = 65536


def _row_tiles(n_rows: int, n_cols: int):
    # (row slice, view) per tile of max(1, _TILE_ELEMS // n_cols) rows: at
    # most 3 tiles for a 2048-point Macdonald level of 12-80 nodes, 173 rows
    # for a 377-node subordination level.  The views share one C-contiguous
    # (tile x n_cols) buffer, so a row sum over a view runs as over that
    # row of the full matrix.
    tile = max(1, _TILE_ELEMS // n_cols)
    buf = np.empty((min(tile, n_rows), n_cols))
    for start in range(0, n_rows, tile):
        rows = slice(start, min(start + tile, n_rows))
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
    # Scaled value exp(z) K_nu(z), one block of sorted points at a time: at
    # most _QUAD_BLOCK of them, spanning at most _BLOCK_Z_RATIO in z.
    order = np.argsort(z)
    z_sorted = z[order]
    out = np.empty_like(z)
    start = 0
    while start < z.size:
        stop = min(start + _QUAD_BLOCK, int(np.searchsorted(
            z_sorted, _BLOCK_Z_RATIO * z_sorted[start], side="right")))
        out[order[start:stop]] = _kv_quadrature_block(
            nu, z_sorted[start:stop])
        start = stop
    return out


def _kv_quadrature_block(nu: float, z: np.ndarray) -> np.ndarray:
    # Trapezoid on [0, w_max] of exp(-2z sinh(w/2)^2) cosh(nu w) at the
    # sorted points z, with the window and first spacing of the module
    # docstring taken from z_lo = z[0] and z_hi = z[-1].
    z_lo, z_hi = float(z[0]), float(z[-1])
    ratio = (nu + 30.0) / z_lo
    # past the float range asinh(ratio) is log(2 ratio) to far below an ulp
    w_max = (math.asinh(ratio) if ratio < math.inf else math.log(2.0 * (
        nu + 30.0)) - math.log(z_lo)) + min(2.0, math.sqrt(120.0 / z_lo))
    h = 0.25 * min(1.0, math.sqrt(30.0 / z_hi))
    # a window past w = 700 (z_lo below about 1e-302) may reach sinh(w/2)^2
    # past the float range; powers of two scale it and z back, exactly
    c = 2.0 ** -64 if w_max > 700.0 else 1.0

    def integrand(w: np.ndarray):
        shift, log_cosh = -2.0 * (c * np.sinh(0.5 * w)) ** 2, _log_cosh(nu * w)

        def write(rows: slice, v: np.ndarray) -> None:
            np.multiply.outer(z[rows] / (c * c), shift, out=v)
            v += log_cosh
            np.exp(v, out=v)
        return write

    return _refined_trapezoid(
        0.0, w_max, int(w_max / h) + 1, z.size, QUAD_REL_TOL,
        0.0, MAX_QUAD_NODES, f"Macdonald quadrature for nu={nu:g}", integrand)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # log(cosh x) without overflow for large x.
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def macdonald_k(nu: float, z):
    """Macdonald function K_nu(z) for nu >= 0, z > 0.

    Parameters
    ----------
    nu : float
        Order, finite and nonnegative.
    z : float or array_like
        Argument(s), finite and at least the smallest normal float.

    Returns
    -------
    float or ndarray matching the shape of ``z``.
    """
    nu = float(nu)
    if not 0.0 <= nu < math.inf:
        raise DomainError(
            f"order must be finite and nonnegative, got nu={nu:g}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if z_arr.size == 0:
        return np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr < np.finfo(float).tiny):
        raise DomainError("argument must be finite, positive and normal")

    flat = z_arr.ravel()
    out = (_kv_quadrature(nu, flat) * np.exp(-flat)).reshape(z_arr.shape)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out[()]) if out.shape == () else float(out[0])
    return out


def frac_power_constant(s: float) -> float:
    """Normalization constant C(1, s) of the one-dimensional
    singular-integral representation.

    C(1, s) = -2^(1/2 + s) / (pi^(1/2) * Gamma(-s)), positive for
    s in (0, 1).  C(1, 1/2) = 1/pi.
    """
    if not (0.0 < s < 1.0):
        raise DomainError(f"power must lie in (0, 1), got s={s:g}")
    # C(N, s) at N = 1 operation for operation, so the N-dimensional form
    # in tests/oracles.py gives the same bits
    return -(2.0 ** (1.0 + s - 0.5)) / (math.pi ** 0.5 * math.gamma(-s))
