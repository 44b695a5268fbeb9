"""The fractional relativistic operator (-lap + m^2)^s on the periodic grid.

Three equivalent realizations are provided and cross-checked:

* ``apply_spectral``: multiply by (|xi|^2 + m^2)^s in Fourier space.  This
  is the reference path, exact for band-limited periodic data.  The
  multiplier is cached per (params, grid).
* ``apply_singular_integral``: the principal-value integral against the
  Macdonald kernel.  The PV is realized by pairing y <-> 2x - y; each
  kernel cell weight is the exact integral of the kernel over that cell,
  the innermost half-cell and the first KERNEL_NEAR_CELLS cells get
  Taylor corrections proportional to the second difference of f, and the
  kernel is truncated at distance KERNEL_FAR_CUTOFF / m, where its
  exponential tail is negligible.  The cell sum and the correction are
  translation invariant, so the route is one Fourier multiplier, built
  from the weights and cached read-only per (params, grid).
* ``apply_subordination``: the heat-semigroup average
  (1/Gamma(-s)) int_0^inf (e^(t(lap - m^2)) f - f) t^(-1-s) dt
  by trapezoid on a log-uniform time grid.  It runs on the Macdonald
  quadrature's driver, special._refined_trapezoid: nested doubling (each
  level evaluates only the new odd nodes) until SUBORDINATION_REL_TOL
  holds per Fourier mode, stopped by the node cap SUBORDINATION_MAX_NODES,
  with the (modes x nodes) integrand built and row-summed one tile of
  special._TILE_ELEMS // nodes modes at a time (173 at the default grid's
  377 nodes) in one reused buffer.  Where expm1 is exactly -1
  (_EXPM1_SATURATED) the integrand is filled, not evaluated.

Every discretization control is a module constant below: one value of
each is in use, so none is a parameter.  The identity checks and the
second routes the tests compare these against (direct kernel sums, the
kernel-cell carre du champ) live in tests/oracles.py.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PreconditionError
from .grid import GridFunction
from .special import _refined_trapezoid, frac_power_constant, macdonald_k


@dataclass(frozen=True)
class OperatorParams:
    """Parameters of (-lap + m^2)^s.

    s in (0, 1] (the kernel paths need s < 1), mass m >= 0.
    """

    s: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise ConfigError(f"power must lie in (0, 1], got s={self.s!r}")
        if not (self.m >= 0.0 and math.isfinite(self.m)):
            raise ConfigError(f"mass must be finite and >= 0, got m={self.m!r}")


# Singular-integral discretization.  The kernel is truncated at distance
# KERNEL_FAR_CUTOFF / m (at least 10 puts the dropped exponential tail below
# 5e-5).  The KERNEL_NEAR_CELLS cells next to the singularity receive the
# second-moment Taylor correction.  The first _NEAR_TIER_CELLS cells (and the
# innermost half cell) are integrated with the 12-node Gauss-Legendre rule
# KERNEL_GL, every farther cell with the 4-node rule _FAR_GL; the n-node
# error on cell k scales like (1/2k)^(2n).
KERNEL_FAR_CUTOFF = 25.0
KERNEL_NEAR_CELLS = 16
_NEAR_TIER_CELLS = 32
# Rows (nodes, weights), read-only: leggauss(12) and leggauss(4) of numpy's
# Legendre module bit for bit, mirrored from the positive nodes (ascending).
KERNEL_GL, _FAR_GL = (
    np.array([[-x for x in nodes[::-1]] + nodes, weights[::-1] + weights])
    for nodes, weights in (
        ([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
          0.7699026741943047, 0.9041172563704748, 0.9815606342467192],
         [0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
          0.16007832854334642, 0.10693932599531907, 0.04717533638651141]),
        ([0.33998104358485626, 0.8611363115940526],
         [0.6521451548625464, 0.34785484513745357])))
KERNEL_GL.flags.writeable = _FAR_GL.flags.writeable = False

# Subordination time integral on a log-uniform grid: per-mode relative
# tolerance; starting log-time spacing, halved per level (0.4 already meets
# the tolerance on the suite's grid); one level's node cap (QuadratureError).
SUBORDINATION_REL_TOL = 1e-10
SUBORDINATION_INITIAL_SPACING = 0.4
SUBORDINATION_MAX_NODES = 100_000
# At or below this argument e^x < 2^-54, so expm1 rounds to exactly -1.
_EXPM1_SATURATED = -40.0


def frequencies(L: float, n: int) -> np.ndarray:
    """Nonnegative physical frequencies 2 pi k / L of the rfft layout."""
    return 2.0 * math.pi * np.fft.rfftfreq(n, d=L / n)


def symbol(p: OperatorParams, xi: np.ndarray) -> np.ndarray:
    """The Fourier multiplier (|xi|^2 + m^2)^s."""
    return (xi * xi + p.m * p.m) ** p.s


@functools.lru_cache(maxsize=16)
def _spectral_multiplier(p: OperatorParams, L: float, n: int) -> np.ndarray:
    """symbol(p, frequencies(L, n)), cached per (params, grid) for the 16
    latest keys and read-only, so no caller can change the cached copy."""
    out = symbol(p, frequencies(L, n))
    out.flags.writeable = False
    return out


def apply_spectral(f, p: OperatorParams, *more: OperatorParams, L=None):
    """Apply the operator through the discrete transform.

    ``f`` is one state (GridFunction), and a GridFunction comes back.
    Given the box length L, ``f`` is bare rows of shape (..., n),
    transformed along the last axis, and bare rows come back, unchecked.
    Further parameter sets share the one forward transform, and then a
    tuple comes back with one result per set.
    """
    values, box = (f.values, f.L) if L is None else (f, L)
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    out = tuple(np.fft.irfft(_spectral_multiplier(q, box, n) * spec, n)
                for q in (p, *more))
    if L is None:
        out = tuple(map(f.with_values, out))
    return out if more else out[0]


# ----------------------------------------------------------------------
# singular-integral path


def _kernel_radial(p: OperatorParams, z: np.ndarray) -> np.ndarray:
    # |z|^(-nu) K_nu(m |z|) with nu = (1 + 2s)/2 in one dimension
    nu = 0.5 + p.s
    return z ** (-nu) * macdonald_k(nu, p.m * z)


@functools.lru_cache(maxsize=16)
def _kernel_weights(p: OperatorParams, L: float, n: int) -> dict:
    """The singular route's multiplier and its parts, cached per (params,
    grid) for the 16 latest keys: ``w``, the weights of cells 1..k_far;
    ``moment``, the near cells' Taylor second moment; ``c_full``, C(1, s)
    m^(1/2+s); and the read-only rfft-layout ``multiplier``, c_full
    (sum(stencil) - stencil^ - moment (2 cos(xi h) - 2)/h^2) + m^(2s),
    where stencil^ is the transform of w placed on both sides of the
    origin (the antipodal cell once).  The cell rules KERNEL_GL and
    _FAR_GL are literals: leggauss would load numpy's polynomial package
    and call LAPACK in every process for 16 numbers."""
    h = L / n
    r_far = min(KERNEL_FAR_CUTOFF / p.m, 0.5 * L)
    k_far = min(n // 2, int(math.floor(r_far / h)))
    if k_far < KERNEL_NEAR_CELLS + 2:
        raise PreconditionError(
            "grid too coarse for the kernel cutoff: "
            f"only {k_far} cells inside the truncation radius")

    # cell [kh - h/2, kh + h/2] mapped from [-1, 1], near and far tier
    # evaluated in one Macdonald call
    centers = np.arange(1, k_far + 1)[:, None] * h
    tiers = [(centers[:_NEAR_TIER_CELLS], *KERNEL_GL),
             (centers[_NEAR_TIER_CELLS:], *_FAR_GL)]
    zs = [c + 0.5 * h * nodes[None, :] for c, nodes, _ in tiers]
    gflat = _kernel_radial(p, np.concatenate([z.ravel() for z in zs]))
    w, j2 = [], []
    for (c, _, gl_w), z, g in zip(tiers, zs, np.split(gflat, [zs[0].size])):
        gvals = g.reshape(z.shape)
        w.append(0.5 * h * (gvals * gl_w[None, :]).sum(axis=1))
        j2.append(0.5 * h * (gvals * (z * z - c**2)
                             * gl_w[None, :]).sum(axis=1))
    w = np.concatenate(w)
    # second-moment mismatch of the near cells
    j2_total = float(np.concatenate(j2)[:KERNEL_NEAR_CELLS].sum())

    # innermost half cell: int_0^(h/2) z^2 g(z) dz; the z^(1-2s) behaviour
    # is flattened by the substitution z = (h/2) u^(1/(2-2s)), u in [0, 1]
    beta = 1.0 / (2.0 - 2.0 * p.s)
    nodes, gl_w = KERNEL_GL
    u = 0.5 * (nodes + 1.0)
    zin = 0.5 * h * u**beta
    gin = _kernel_radial(p, zin)
    jin = 0.5 * h * beta * 0.5 * float(
        (zin**2 * gin * u ** (beta - 1.0) * gl_w).sum())

    stencil = np.zeros(n)
    stencil[1 : k_far + 1] = w
    if 2 * k_far == n:
        # the antipodal cell is a single point; count it once
        stencil[n - k_far + 1 :] += w[-2::-1]
    else:
        stencil[n - k_far :] += w[::-1]
    moment = jin + j2_total
    c_full = frac_power_constant(p.s) * p.m ** (0.5 + p.s)
    d2 = (2.0 * np.cos(2.0 * math.pi * np.fft.rfftfreq(n)) - 2.0) / (h * h)
    # the stencil is even, so its transform is real
    multiplier = c_full * (stencil.sum() - np.fft.rfft(stencil).real
                           - moment * d2) + p.m ** (2.0 * p.s)
    multiplier.flags.writeable = False
    return {"w": w, "moment": moment, "c_full": c_full,
            "multiplier": multiplier}


def _require_singular_ok(p: OperatorParams) -> None:
    if not (0.0 < p.s < 1.0):
        raise PreconditionError("singular-integral path requires s in (0, 1)")
    if p.m <= 0.0:
        raise PreconditionError("singular-integral path requires m > 0")


def apply_singular_integral(f: GridFunction, p: OperatorParams
                            ) -> GridFunction:
    """Apply the operator through its principal-value kernel integral,
    as the kernel cells' Fourier multiplier."""
    _require_singular_ok(p)
    mult = _kernel_weights(p, f.L, f.n)["multiplier"]
    return f.with_values(np.fft.irfft(mult * np.fft.rfft(f.values), f.n))


# ----------------------------------------------------------------------
# subordination path


def subordination_multiplier(gam: np.ndarray, s: float) -> np.ndarray:
    """(1/Gamma(-s)) int_0^inf (exp(-t*gam) - 1) t^(-1-s) dt per entry,
    by refined trapezoid in u = log t.  Converges to gam^s."""
    if not (0.0 < s < 1.0):
        raise PreconditionError("subordination requires s in (0, 1)")
    gam = np.asarray(gam, dtype=float)
    out = np.zeros_like(gam)
    pos = gam > 0.0
    if not np.any(pos):
        return out
    gpos = gam[pos]
    g_lo, g_hi = float(gpos.min()), float(gpos.max())
    gamma_neg = math.gamma(-s)  # negative throughout (0, 1)
    scale = abs(gamma_neg) * g_lo**s

    # window: the small-t side contributes at most g_hi e^((1-s)u)/(1-s),
    # the large-t side e^(-s u)/s; both pushed below the tolerance * scale.
    tol = SUBORDINATION_REL_TOL * scale
    u_lo = math.log(tol * (1.0 - s) / g_hi) / (1.0 - s)
    u_hi = -math.log(tol * s) / s
    if u_hi <= u_lo:
        u_hi = u_lo + 1.0

    neg_gcol = -gpos[:, None]

    def integrand(u: np.ndarray):
        eu, esu = np.exp(u), np.exp(-s * u)
        neg_esu = -esu

        def write(rows: slice, v: np.ndarray) -> None:
            # the nodes ascend, so the columns where the tile's smallest
            # gam saturates expm1 are a suffix, saturated in every row
            k = int(np.searchsorted(gpos[rows].min() * eu, -_EXPM1_SATURATED))
            np.multiply(neg_gcol[rows], eu[:k], out=v[:, :k])
            np.expm1(v[:, :k], out=v[:, :k])
            v[:, :k] *= esu[:k]
            v[:, k:] = neg_esu[k:]
        return write

    n = int(math.ceil((u_hi - u_lo) / SUBORDINATION_INITIAL_SPACING)) + 1
    out[pos] = _refined_trapezoid(
        u_lo, u_hi, n, gpos.size, SUBORDINATION_REL_TOL, scale,
        SUBORDINATION_MAX_NODES, f"subordination quadrature for s={s:g}",
        integrand) / gamma_neg
    return out


def apply_subordination(f: GridFunction, p: OperatorParams) -> GridFunction:
    """Apply the operator through the subordinated heat semigroup."""
    xi = frequencies(f.L, f.n)
    mult = subordination_multiplier(xi * xi + p.m * p.m, p.s)
    out = np.fft.irfft(mult * np.fft.rfft(f.values), f.n)
    return f.with_values(out)
