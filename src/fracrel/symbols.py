"""Symbol-side analysis of quadratic exponential conjugations.

Conjugating the operator (-lap + m^2)^s by e^{phi} with the moving quadratic
weight phi(t, x) = alpha (x/R + psi(t))^2 produces, at the level of the
second-order operator, the complex quadratic symbol

    w(t, x, xi) = xi^2 + m^2 - (d_x phi)^2 + 2 i xi d_x phi,

and the fractional conjugation carries the symbol w^s = a + i b (conjugation
commutes with fractional powers; appendix_conjugation_check pins the matrix
statement).  a generates the symmetric part of the conjugated operator, ib
the antisymmetric part, and every lower bound this module certifies flows
from the commutator of the two, i.e. from the Poisson brackets {a, b} and
the parabolic variant {a~, b~} that includes the time direction.

Derivative bookkeeping rests on the identities d_x w = i phi_xx d_xi w and
d_t w = i phi_tx d_xi w: every first derivative of (a, b) reduces to the
xi-gradient, in particular a_t = -phi_tx b_xi and a_x = -phi_xx b_xi exactly.

The module provides one function that computes the parabolic bracket,
parabolic_bracket, with a finite-difference cross-check of each of its
pieces, parabolic_bracket_fd: both the positivity sweep over the support
annulus 1 <= |x/R + psi(t)| <= 4 (with the proof-ladder dominance margins)
and the derivative bounds of the kind a sharp Garding inequality consumes
evaluate it.  Besides those: dense-matrix realizations of the conjugated
operator (with the s = 1 closed-form commutator), grid-level verification
of the elliptic and parabolic weighted lower-bound inequalities, and the
conjugation/fractional-power exchange on SPD matrices.  All unspecified
constants are calibrated empirically and frozen in the package's
data/calibration.json, next to the linear Carleman constants.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import grid
from .errors import (
    AdmissibilityError,
    CalibrationError,
    ConditioningError,
    ConfigError,
    DomainError,
    OverflowGuardError,
    PreconditionError,
    SupportError,
)
from .grid import (GridFunction, SpaceTimeFunction, band_limited_noise,
                   grid_points, smooth_step)
from .operator import OperatorParams, apply_spectral, frequencies, symbol
from .report import CheckReport, finish_report, frozen_entry

# Exponent cap for e^{phi} evaluated on a grid; past this the weight itself
# is unrepresentable and the caller must shrink alpha or the box.
PHI_CAP = 700.0

# Conditioning cap e^{max phi - min phi} for the similarity-route check.
CONDITION_CAP = 1e8

# The positivity sweep's grids: XI_SWEEP_NODES log-spaced |xi| spanning
# [1e-3, 1e3] * (alpha/R) with a dense linear patch across the case-split
# frequency 2 alpha/R, the times SWEEP_TIMES, and SWEEP_SIGMA_NODES annulus
# offsets per branch at each time.
XI_SWEEP_NODES = 400
SWEEP_TIMES = np.linspace(0.0, 2.0, 21)
SWEEP_TIMES.flags.writeable = False
SWEEP_SIGMA_NODES = 33

# Points where the symbol modulus sits below this times the local frequency
# scale are reported as singular instead of entering sweep minima.
SINGULAR_FLOOR = 1e-6

# Interior slack allowed on exact sign claims (pure roundoff).
_DOMINANCE_SLACK = 1e-9

# The support annulus ANNULUS_INNER <= |x/R + psi(t)| <= ANNULUS_OUTER of
# the quadratic weight.
ANNULUS_INNER = 1.0
ANNULUS_OUTER = 4.0

# Squared-mass fraction a quadratic Carleman operand may carry outside the
# annulus, or on the four outermost slices of its time window: roundoff.
_SUPPORT_LEAK_TOL = 1e-12

# Relative step of parabolic_bracket_fd.  At 1e-4 its truncation error
# reaches 1.3e-5 of the bracket at some points of the run's sample.
_FD_BRACKET_STEP = 1e-5

# Offset triples per parabolic_bracket call of the Garding check: 48
# triples of 225 sample points make each temporary about 86 KB.
_GARDING_CHUNK_TRIPLES = 48

# Random quadratic Carleman operands: Fourier modes up to _OPERAND_K_MAX,
# windowed _OPERAND_MARGIN inside the reachable annulus branch.
_OPERAND_K_MAX = 12
_OPERAND_MARGIN = 0.25

# Every symbol calibration runs at R = 1 and freezes its measured constant
# with a safety factor of 2.
CALIBRATION_R = 1.0
_CALIBRATION_SAFETY = 2.0

# Quadratic Carleman corpus geometry, shared by the calibration and the CLI
# suite: a periodic box of length QUADRATIC_L with QUADRATIC_N nodes and, in
# parabolic mode, QUADRATIC_NT uniform times on [0, QUADRATIC_T_SPAN].
QUADRATIC_L = 8.0
QUADRATIC_N = 512
QUADRATIC_NT = 48
QUADRATIC_T_SPAN = 1.0
# Operands per mode in the quadratic calibration.
_QUADRATIC_CALIBRATION_COUNT = 20


# ---------------------------------------------------------------------------
# weight, support region


@dataclass(frozen=True)
class QuadraticWeight:
    """The weight phi(t, x) = alpha (x/R + psi(t))^2.

    psi is a smooth time profile with values in [0, 3]; its first two
    derivatives ride along as callables together with their sup norms,
    because the admissibility constraints and the derivative-bound envelopes
    are phrased through them.  All callables must accept numpy arrays.
    """

    alpha: float
    R: float
    psi: Callable
    psi_d1: Callable
    psi_d2: Callable
    psi_d1_sup: float
    psi_d2_sup: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be positive, got {self.alpha!r}")
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ConfigError(f"R must be positive, got {self.R!r}")
        for name in ("psi_d1_sup", "psi_d2_sup"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v >= 0.0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be a finite nonnegative number")

    @classmethod
    def constant(cls, alpha: float, R: float, level: float = 3.0) -> "QuadraticWeight":
        """Time-independent profile psi = level (elliptic weights use 3)."""
        if not (0.0 <= level <= 3.0):
            raise ConfigError("profile level must lie in [0, 3]")
        return cls(alpha, R,
                   psi=lambda t: level + 0.0 * np.asarray(t, dtype=float),
                   psi_d1=lambda t: 0.0 * np.asarray(t, dtype=float),
                   psi_d2=lambda t: 0.0 * np.asarray(t, dtype=float),
                   psi_d1_sup=0.0, psi_d2_sup=0.0)

    @classmethod
    def decaying(cls, alpha: float, R: float) -> "QuadraticWeight":
        """Sliding profile psi(t) = 3/(1+t), top value 3 at t = 0."""
        return cls(alpha, R,
                   psi=lambda t: 3.0 / (1.0 + np.asarray(t, dtype=float)),
                   psi_d1=lambda t: -3.0 / (1.0 + np.asarray(t, dtype=float)) ** 2,
                   psi_d2=lambda t: 6.0 / (1.0 + np.asarray(t, dtype=float)) ** 3,
                   psi_d1_sup=3.0, psi_d2_sup=6.0)

    @classmethod
    def oscillating(cls, alpha: float, R: float,
                    rate: float) -> "QuadraticWeight":
        """Profile psi(t) = 1.5 + 1.4 cos(rate t).  Brisk rates drive the
        curvature term negative, which is how falsification configs break
        the positivity ladder."""
        if rate <= 0.0:
            raise ConfigError("rate must be positive")
        return cls(alpha, R,
                   psi=lambda t: 1.5 + 1.4 * np.cos(rate * np.asarray(t, dtype=float)),
                   psi_d1=lambda t: -1.4 * rate * np.sin(rate * np.asarray(t, dtype=float)),
                   psi_d2=lambda t: -1.4 * rate ** 2 * np.cos(rate * np.asarray(t, dtype=float)),
                   psi_d1_sup=1.4 * rate, psi_d2_sup=1.4 * rate ** 2)

    def psi_at(self, t):
        val = np.asarray(self.psi(t), dtype=float)
        if np.any(val < -1e-12) or np.any(val > 3.0 + 1e-12):
            raise ConfigError("psi must take values in [0, 3]")
        return val

    def offset(self, t, x):
        """x/R + psi(t), the annulus coordinate."""
        return np.asarray(x, dtype=float) / self.R + self.psi_at(t)

    def phi(self, t, x):
        return self.alpha * self.offset(t, x) ** 2

    def phi_x(self, t, x):
        return 2.0 * (self.alpha / self.R) * self.offset(t, x)

    @property
    def phi_xx(self) -> float:
        return 2.0 * self.alpha / self.R ** 2

    def phi_t(self, t, x):
        return 2.0 * self.alpha * self.offset(t, x) * np.asarray(self.psi_d1(t), dtype=float)

    def phi_tx(self, t):
        return 2.0 * (self.alpha / self.R) * np.asarray(self.psi_d1(t), dtype=float)

    def slope(self, s: float) -> float:
        """The steepness s alpha^{2s-1} / R^{2s} the admissibility gate tests."""
        return s * self.alpha ** (2.0 * s - 1.0) / self.R ** (2.0 * s)

    def profile_norm(self) -> float:
        """|psi'|_sup + |psi''|_sup^{1/2}, the combination the gate compares."""
        return self.psi_d1_sup + math.sqrt(self.psi_d2_sup)

    def m_ratio(self, m: float) -> float:
        """m R / (2 alpha); admissible masses have ratio <= 1."""
        return m * self.R / (2.0 * self.alpha)


# ---------------------------------------------------------------------------
# pointwise symbol algebra (vectorized cores)


class _SymbolCore(NamedTuple):
    """Modulus and argument of w = xi^2 + m^2 - px^2 + 2 i xi px.

    rho2 = |w|^2, cos_s and sin_s are cos and sin of s theta with
    theta = arg w on (-pi, pi], and grad_scale = 2 s rho^(s-2), the factor
    every xi-derivative of w^s carries (infinite where rho = 0, s < 2).
    local = xi^2 + m^2 + px^2 and xp = xi^2 + px^2 are shared sums.
    """

    xi: np.ndarray
    px: np.ndarray
    m: float
    s: float
    rho2: np.ndarray
    cos_s: np.ndarray
    sin_s: np.ndarray
    grad_scale: np.ndarray
    local: np.ndarray
    xp: np.ndarray

    def singular(self):
        """Where rho <= SINGULAR_FLOOR * local, the local frequency scale."""
        return self.rho2 <= (SINGULAR_FLOOR * self.local) ** 2


def _symbol_core(xi, px, m: float, s: float) -> _SymbolCore:
    """The core at (xi, px), broadcast together.  xi^2, px^2, xi^2 + m^2
    and s theta are formed once: u = (xi^2 + m^2) - px^2 and local =
    (xi^2 + m^2) + px^2 share xi^2 + m^2.  Each step, in place or not, is
    the IEEE operation of the written formula, so the bits do not move."""
    xi = np.asarray(xi, dtype=float)
    px = np.asarray(px, dtype=float)
    xi2, px2 = xi * xi, px * px
    xm = xi2 + m * m
    u, v = xm - px2, 2.0 * xi * px
    theta = np.arctan2(v, u)
    theta *= s
    u *= u
    v *= v
    u += v   # u^2 + v^2 = rho2
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_scale = u ** (0.5 * s - 1.0)
        grad_scale *= 2.0 * s
    return _SymbolCore(xi, px, m, s, u, np.cos(theta), np.sin(theta),
                       grad_scale, xm + px2, xi2 + px2)


def _product(*factors):
    """factors[0] * factors[1] * ... multiplied left to right: the same
    IEEE products, in one fresh array the first two factors must span."""
    out = factors[0] * factors[1]
    for factor in factors[2:]:
        out *= factor
    return out


def _symbol_ab(c: _SymbolCore):
    """a = rho^s cos(s theta) and b = rho^s sin(s theta)."""
    amp = c.rho2 ** (0.5 * c.s)
    return amp * c.cos_s, amp * c.sin_s


def _symbol_b_xi(c: _SymbolCore):
    """Closed-form b_xi = 2 s rho^{s-2} ( p sin(s th) - q cos(s th) ), from
    d_xi w^s = s w^{s-1} w_xi, with p = xi (xi^2+m^2+px^2) and
    q = px (xi^2+px^2-m^2).  Diverges where rho = 0 and s < 2; callers
    mask singular points."""
    p = _product(c.xi, c.local, c.sin_s)
    p -= _product(c.px, c.xp - c.m * c.m, c.cos_s)
    with np.errstate(invalid="ignore"):
        p *= c.grad_scale
    return p


def _bracket_ab(c: _SymbolCore, phi_xx: float):
    """{a, b} = 4 s^2 phi_xx rho^{2(s-1)} (xi^2 + px^2), vectorized."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _product(4.0 * c.s * c.s * phi_xx, c.rho2 ** (c.s - 1.0), c.xp)


class _ParabolicBracket(NamedTuple):
    """{a~, b~} and its pieces: base = {a, b}, mixed = phi_tx b_xi (the
    transport term -a_t equals it, since a_t = -phi_tx b_xi), and the
    psi'^2 and psi'' parts curv_psi1 and curv_psi2 of phi_tt.  The
    positivity ladder bounds base, mixed and curv_psi2."""

    core: _SymbolCore
    base: np.ndarray
    mixed: np.ndarray
    curv_psi1: np.ndarray
    curv_psi2: np.ndarray
    total: np.ndarray


def parabolic_bracket(w: QuadraticWeight, p: OperatorParams, sigma, t,
                      xi) -> _ParabolicBracket:
    """The parabolic bracket {a~, b~} = {a, b} + 2 phi_tx b_xi + phi_tt of
    a~ = -phi_t + a and b~ = tau + b (tau drops out), at annulus offset
    sigma = x/R + psi(t), time t and frequency xi, broadcast together.

    phi_tt = 2 alpha psi'^2 + 2 alpha sigma psi'' enters in two pieces, and
    the total is summed in the fixed order base + 2 mixed + psi' piece +
    psi'' piece, so every caller sees the same bits at the same point.
    """
    core = _symbol_core(xi, (2.0 * w.alpha / w.R) * sigma, p.m, p.s)
    base = _bracket_ab(core, w.phi_xx)
    mixed = w.phi_tx(t) * _symbol_b_xi(core)
    d1 = np.asarray(w.psi_d1(t), dtype=float)
    curv_psi1 = 2.0 * w.alpha * d1 * d1
    curv_psi2 = 2.0 * w.alpha * sigma * np.asarray(w.psi_d2(t), dtype=float)
    total = 2.0 * mixed   # = base + 2 mixed + ...; mixed spans every shape
    total += base
    total += curv_psi1
    total += curv_psi2
    return _ParabolicBracket(core, base, mixed, curv_psi1, curv_psi2, total)


def parabolic_bracket_fd(w: QuadraticWeight, p: OperatorParams, sigma, t,
                         xi) -> tuple:
    """Finite-difference pieces of {a~, b~} = a~_xi b~_x - a~_x b~_xi - a~_t
    at one point, for cross-checking parabolic_bracket: (base
    a_xi b_x - a_x b_xi, mixed (phi_t)_x b_xi - a_t, curvature (phi_t)_t).

    a and phi_t are sampled at x +- h_x, xi +- h_xi and along t, with steps
    relative to the local coordinate scales, all in one core.  The t
    difference is centred, or second-order forward where t < h_t, since
    psi leaves [0, 3] below t = 0.
    """
    h_x = _FD_BRACKET_STEP * w.R
    h_xi = _FD_BRACKET_STEP * max(abs(xi), 2.0 * w.alpha / w.R)
    h_t = _FD_BRACKET_STEP
    if t >= h_t:
        t_legs, t_weights = [t - h_t, t + h_t], [-0.5, 0.5]
    else:
        t_legs, t_weights = [t, t + h_t, t + 2.0 * h_t], [-1.5, 2.0, -0.5]
    x = w.R * (sigma - float(w.psi_at(t)))
    n_t = len(t_legs)
    ts = np.array([t] * 4 + t_legs)
    xs = np.array([x + h_x, x - h_x] + [x] * (2 + n_t))
    xis = np.array([xi, xi, xi + h_xi, xi - h_xi] + [xi] * n_t)
    a, b = _symbol_ab(_symbol_core(xis, w.phi_x(ts, xs), p.m, p.s))
    phi_t = w.phi_t(ts, xs)
    a_x, b_x, phi_tx = (float(v[0] - v[1]) / (2.0 * h_x)
                        for v in (a, b, phi_t))
    a_xi, b_xi = (float(v[2] - v[3]) / (2.0 * h_xi) for v in (a, b))
    a_t, phi_tt = (float(np.dot(t_weights, v[4:])) / h_t for v in (a, phi_t))
    return (a_xi * b_x - a_x * b_xi, phi_tx * b_xi - a_t, phi_tt)


def bracket_fd_check(rng, tolerance: float) -> CheckReport:
    """parabolic_bracket against parabolic_bracket_fd, piece by piece, at
    200 random points (weight, s, m, t, offset, xi) drawn from ``rng``;
    singular points are skipped, each error is relative to the bracket."""
    worst = dict.fromkeys(("base", "mixed", "curvature", "total"), 0.0)
    kept = 0
    for _ in range(200):
        a = float(rng.uniform(0.5, 8.0))
        r = float(rng.uniform(0.5, 2.0))
        w = QuadraticWeight.decaying(a, r)
        pp = OperatorParams(float(rng.uniform(0.55, 0.95)),
                            float(rng.uniform(0.0, 2.0 * a / r)))
        t = float(rng.uniform(0.0, 2.0))
        sig = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0))
        xi = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-2, 1e2) * a / r)
        br = parabolic_bracket(w, pp, sig, t, xi)
        if br.core.singular():
            continue
        kept += 1
        fd = parabolic_bracket_fd(w, pp, sig, t, xi)
        closed = (br.base, 2.0 * br.mixed, br.curv_psi1 + br.curv_psi2,
                  br.total)
        scale = max(abs(float(br.total)), 1e-30)
        for key, c, f in zip(worst, closed, fd + (sum(fd),)):
            worst[key] = max(worst[key], abs(float(c) - f) / scale)
    measured = {"rel_error": worst.pop("total")}
    measured.update((f"rel_error_{key}", v) for key, v in worst.items())
    return finish_report({"points": kept}, measured, tolerance,
                         measured["rel_error"], None)


# ---------------------------------------------------------------------------
# frozen calibration table


def positivity_constants(s: float, m_ratio: float) -> tuple:
    """Frozen (c_hyp, c_min) of the positivity sweep for this (s, m-ratio)."""
    entry = frozen_entry("positivity", s=float(s), m_ratio=float(m_ratio))
    return float(entry["c_hyp"]), float(entry["c_min"])


def garding_constants(s: float, m_ratio: float) -> dict:
    return frozen_entry("garding", s=float(s), m_ratio=float(m_ratio))


def quadratic_constants(mode: str, s: float, m_ratio: float) -> dict:
    return frozen_entry("quadratic", mode=mode, s=float(s),
                        m_ratio=float(m_ratio))


# ---------------------------------------------------------------------------
# positivity sweep


def default_xi_grid(w: QuadraticWeight, nodes: int = XI_SWEEP_NODES) -> np.ndarray:
    """Log-spaced |xi| magnitudes over [1e-3, 1e3] * (alpha/R) plus a dense
    linear patch across the case-split frequency 2 alpha/R, where the
    dominance estimates change character."""
    unit = w.alpha / w.R
    n_patch = max(nodes // 5, 8)
    base = np.geomspace(1e-3 * unit, 1e3 * unit, nodes - n_patch)
    patch = np.linspace(1.2 * unit, 2.8 * unit, n_patch)
    return np.unique(np.concatenate([base, patch]))


def _sigma_branches(psi_val: float):
    """Reachable annulus offsets at a time slice, intersected with |x| <= R.

    sigma = x/R + psi with |x| <= R confines sigma to [psi-1, psi+1]; each
    branch of the support annulus intersects that window."""
    spans = []
    lo = max(ANNULUS_INNER, psi_val - 1.0)
    hi = min(ANNULUS_OUTER, psi_val + 1.0)
    if lo <= hi:
        spans.append((lo, hi))
    lo = max(-ANNULUS_OUTER, psi_val - 1.0)
    hi = min(-ANNULUS_INNER, psi_val + 1.0)
    if lo <= hi:
        spans.append((lo, hi))
    return spans


def _require_sweep_params(p: OperatorParams, what: str) -> None:
    if not (0.5 < p.s < 1.0):
        raise PreconditionError(f"{what} 1/2 < s < 1, got s={p.s!r}")


def _require_admissible_mass(w: QuadraticWeight, p: OperatorParams) -> None:
    if p.m > 2.0 * w.alpha / w.R * (1.0 + 1e-12):
        raise AdmissibilityError(
            f"mass {p.m:g} exceeds 2 alpha/R = {2.0 * w.alpha / w.R:g}")


def require_admissible_weight(w: QuadraticWeight, p: OperatorParams,
                              c_hyp: float) -> None:
    """The two gate constraints: m <= 2 alpha/R and steepness over the
    profile norms.  Raises AdmissibilityError with the failing margin."""
    _require_admissible_mass(w, p)
    need = c_hyp * w.profile_norm()
    if w.slope(p.s) < need * (1.0 - 1e-12):
        raise AdmissibilityError(
            f"weight steepness {w.slope(p.s):.6g} is under the calibrated "
            f"floor {need:.6g} for the profile norms")


def _mixed_pieces(c: _SymbolCore, ptx: float):
    """Proof split of phi_tx b_xi into its odd (sin) and even (cos) pieces,
    matching the two cross terms the positivity ladder hides."""
    with np.errstate(divide="ignore", invalid="ignore"):
        odd = _product(ptx, c.grad_scale, c.xi, c.local, c.sin_s)
        even = _product(-ptx, c.grad_scale, c.px, c.xp - c.m * c.m, c.cos_s)
    return odd, even


def _sweep_minima(w: QuadraticWeight, p: OperatorParams, xi_mag: np.ndarray,
                  t_grid: np.ndarray, sigma_nodes: int):
    """The positivity sweep, one block per time and annulus branch.  Yields
    the running (ratio_min, witness, margins, singular_count,
    nonfinite_count) before each block and after the last, so the sweep and
    the calibration's ladder probe fold the blocks by one rule: Python min
    against the running value, which passes over a nan."""
    # the negative half of the signed grid; the positive half mirrors it
    xi = -xi_mag[::-1]

    s = p.s
    env_unit = s * s * (w.alpha / w.R ** 2)
    four_a2 = 4.0 * w.alpha ** 2 / w.R ** 2
    env = (env_unit * (xi * xi + four_a2) ** (2.0 * s - 1.0))[None, :]

    ratio_min = math.inf
    witness = None
    margins = {"mixed_odd": math.inf, "mixed_even": math.inf,
               "curvature_psi2": math.inf, "transport": math.inf,
               "half_base": math.inf}
    singular_count = 0
    nonfinite_count = 0

    for t in t_grid:
        psi_val = float(w.psi_at(t))
        ptx = float(w.phi_tx(t))
        for lo, hi in _sigma_branches(psi_val):
            yield ratio_min, witness, margins, singular_count, nonfinite_count
            sigma = np.linspace(lo, hi, sigma_nodes)[:, None]
            br = parabolic_bracket(w, p, sigma, t, xi[None, :])
            base, total = br.base, br.total
            odd, even = _mixed_pieces(br.core, ptx)

            sing = br.core.singular()
            bad = ~np.isfinite(total)
            bad &= ~sing
            singular_count += 2 * np.count_nonzero(sing)
            nonfinite_count += 2 * np.count_nonzero(bad)
            sing |= bad   # the points the minima skip
            if sing.all():
                continue
            mask = {"where": ~sing, "initial": math.inf} if sing.any() else {}

            # one scratch block for the ratio and every margin
            buf = np.divide(total, env)
            buf[sing] = math.inf
            idx = np.unravel_index(np.argmin(buf), buf.shape)
            if buf[idx] < ratio_min:
                ratio_min = float(buf[idx])
                sig = float(sigma[idx[0], 0])
                witness = {"t": float(t), "x": w.R * (sig - psi_val),
                           "sigma": sig, "xi": float(xi[idx[1]]),
                           "ratio": ratio_min}
            np.subtract(total, np.multiply(base, 0.5, out=buf), out=buf)
            buf /= env
            margins["half_base"] = min(margins["half_base"],
                                       float(np.min(buf, **mask)))
            tenth = np.divide(base, 10.0, out=base)
            for key, term in (("mixed_odd", odd), ("mixed_even", even),
                              ("curvature_psi2", br.curv_psi2),
                              ("transport", br.mixed)):
                np.subtract(tenth, np.abs(term, out=buf), out=buf)
                buf /= env
                margins[key] = min(margins[key], float(np.min(buf, **mask)))
            del br, odd, even, sing, bad, mask, buf  # the next block reuses these
    yield ratio_min, witness, margins, singular_count, nonfinite_count


def _ladder_holds(w: QuadraticWeight, p: OperatorParams) -> bool:
    """The ladder probe of calibrate_positivity: the ratio stays positive
    and every dominance margin holds over the default sweep.  The running
    minima only fall, so the first block that breaks either decides the
    probe, and the blocks after it are never swept."""
    _require_sweep_params(p, "positivity sweep needs")
    return all(ratio_min > 0.0 and min(margins.values()) >= -_DOMINANCE_SLACK
               for ratio_min, _, margins, _, _ in _sweep_minima(
                   w, p, default_xi_grid(w), SWEEP_TIMES, SWEEP_SIGMA_NODES))


def positivity_sweep(w: QuadraticWeight, p: OperatorParams, *,
                     constants=None) -> CheckReport:
    """Certify the calibrated pointwise lower bound on the parabolic bracket.

    Sweeps the support annulus intersected with |x| <= R, times in
    SWEEP_TIMES and signed xi over default_xi_grid, and reports

        min  {a~, b~} / [ s^2 (alpha/R^2) (xi^2 + 4 alpha^2/R^2)^{2s-1} ]

    together with the worst point and the dominance ladder of the
    positivity argument: each cross term (the two pieces of phi_tx b_xi,
    the psi'' part of phi_tt, and the transport term) must stay below a
    tenth of the base bracket, and the total must retain half of it.

    Every swept term is even in xi, bit for bit: rho2, cos(s theta), the
    gradient scale, b_xi and the base bracket depend on xi through xi^2 or
    through products whose sign flips cancel, and the odd piece is the
    product of xi and sin(s theta), both exactly negated.  The sweep
    therefore evaluates xi = -|xi| only, in ascending order, which is the
    negative half of the signed grid: the worst point it reports is the
    first occurrence over the signed grid, and singular_points and
    nonfinite_points count each half-grid point twice.  A block forms the
    core's shared sums once, b_xi without a_xi, and the ratio and margins
    in one scratch array, masked by np.min(where=) only where a point is
    singular or not finite: the same IEEE operations, so the same bits.

    constants overrides the frozen (c_hyp, c_min) pair.  A weight that
    fails the admissibility gate is swept all the same, so the report
    records where positivity breaks; the gate failure fails it (gate_ok
    false, the gate's message, violation inf).
    """
    _require_sweep_params(p, "positivity sweep needs")
    if constants is None:
        c_hyp, c_min = positivity_constants(p.s, w.m_ratio(p.m))
    else:
        c_hyp, c_min = float(constants[0]), float(constants[1])

    try:
        require_admissible_weight(w, p, c_hyp)
        gate_msg = ""
    except AdmissibilityError as err:
        gate_msg = str(err)
    gate_ok = not gate_msg

    xi_mag = default_xi_grid(w)
    # the running minima after the last block
    *_, (ratio_min, witness, margins, singular_count,
         nonfinite_count) = _sweep_minima(w, p, xi_mag, SWEEP_TIMES,
                                          SWEEP_SIGMA_NODES)
    worst_margin = min(margins.values())
    violation = max(c_min - ratio_min,
                    -worst_margin - _DOMINANCE_SLACK,
                    0.0 if gate_ok else math.inf)
    measured = {"ratio_min": ratio_min, "c_min": c_min, "c_hyp": c_hyp,
                "margins": margins, "singular_points": singular_count,
                "nonfinite_points": nonfinite_count,
                "gate_ok": gate_ok, "gate_message": gate_msg}
    inputs = {"alpha": w.alpha, "R": w.R, "s": p.s, "m": p.m,
              "psi_d1_sup": w.psi_d1_sup, "psi_d2_sup": w.psi_d2_sup,
              "xi_nodes": xi_mag.size, "t_nodes": SWEEP_TIMES.size,
              "sigma_nodes": SWEEP_SIGMA_NODES}
    return finish_report(inputs, measured, 0.0, violation, witness)


def falsification_witness_check(p: OperatorParams) -> CheckReport:
    """Expected negative: the positivity sweep at constants (1, 1) of an
    oscillating profile, outside the admissible set.  Passes when the sweep
    fails its gate and its ratio dips below zero; the sweep's numbers are
    the report's."""
    rep = positivity_sweep(QuadraticWeight.oscillating(2.0, 1.0, rate=3.0),
                           p, constants=(1.0, 1.0))
    return CheckReport(
        inputs=rep.inputs, measured=rep.measured, tolerance=0.0,
        passed=bool((not rep.measured["gate_ok"])
                    and rep.measured["ratio_min"] < 0.0),
        witness=rep.witness)


# ---------------------------------------------------------------------------
# derivative bounds for the Garding hypothesis


@functools.lru_cache(maxsize=None)
def _fd_stencil(order: int):
    """Offsets and weights of the minimal centered stencil for d^order,
    second-order accurate; odd orders use half-integer offsets.  Cached
    and read-only, so no caller can change the cached copy."""
    k = np.arange(order + 1)
    weights = (-1.0) ** k * np.array([math.comb(order, int(j)) for j in k])
    offsets = 0.5 * order - k
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def _garding_orders():
    """(depth, time, frequency) derivative orders (i, j, k) with total
    order 4..7, in the order the Garding check assembles them."""
    for i in range(0, 8):
        for j in range(0, 8 - i):
            for k in range(max(0, 4 - i - j), 8 - i - j):
                yield i, j, k


@functools.lru_cache(maxsize=None)
def _garding_triples() -> tuple:
    """Every offset triple (depth, time, frequency) the Garding derivatives
    reach, in first-use order, and per derivative (i, j, k) the rows of its
    triples, (depth, frequency) pairs by time slices; cached, the row
    arrays read-only."""
    rows, gathers = {}, []
    for i, j, k in _garding_orders():
        # a zero time order evaluates at the unshifted time only (pts_t +
        # 0.0 * h_t is pts_t bit for bit)
        off_j = _fd_stencil(j)[0] if j else (0.0,)
        index = np.array([[rows.setdefault((oi, oj, ok), len(rows))
                           for oj in off_j] for oi in _fd_stencil(i)[0]
                          for ok in _fd_stencil(k)[0]])
        index.flags.writeable = False
        gathers.append(((i, j, k), index))
    return tuple(rows), tuple(gathers)


def garding_hypothesis_check(w: QuadraticWeight, p: OperatorParams, *,
                             constants=None) -> CheckReport:
    """Measure sup |d^(i,j,k) {a~, b~}| over derivative orders 4..7.

    Derivatives are taken by nested central differences in annulus-adapted
    coordinates: the depth direction is x'' = (2 alpha/R)(x/R + psi(t)),
    which equals phi_x and makes the bracket's spatial profile independent
    of alpha and R; the time direction follows the annulus (the offset
    x/R + psi(t) is held fixed, so t only moves the profile terms); xi is
    differentiated in true units with steps of the split frequency
    2 alpha/R.  The grand maximum, normalized by the bracket scale
    s^2 alpha/R^2, is compared against

        C_ref (4 alpha^2/R^2)^{2s-3} (1 + |psi'|_sup + |psi''|_sup)^2

    with the frozen C_ref.  Samples sit at small and moderate |xi| where
    the envelope peaks; at large |xi| every derivative only decays faster.

    The stencils of the derivative orders share most of their offsets:
    orders 4..7 reach 575 distinct offset triples (depth, time,
    frequency).  The triples are collected first, in first-use order, and
    the bracket is evaluated on them in chunks of _GARDING_CHUNK_TRIPLES
    triples at every sample point, one parabolic_bracket call per chunk
    (12 calls).  The bracket is elementwise, so every row holds the bits a
    call on that triple alone gives.  Each derivative then gathers its
    rows with one index, (depth, frequency) pairs by time slices, and
    reduces them with np.add.reduce over the slice axis, then the pair
    axis.  Neither is the innermost axis, so numpy adds slice after slice
    in stencil order: the sums of a loop over the stencil, except for the
    sign of a zero sum, which the absolute value drops.
    """
    _require_sweep_params(p, "derivative bounds need")
    if constants is None:
        c_ref = float(garding_constants(p.s, w.m_ratio(p.m))["C_ref"])
    else:
        c_ref = float(constants)

    s, m = p.s, p.m
    unit_xi = 2.0 * w.alpha / w.R
    # difference step: absolute in time, relative to the local variation
    # scale in depth and frequency
    step = h_t = 0.04

    xi_mags = unit_xi * np.array([0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0])
    xi_vals = np.concatenate([-xi_mags[::-1], [0.0], xi_mags])
    pts_sig, pts_t, pts_xi = [], [], []
    for t in (0.25, 1.0, 2.0):
        spans = _sigma_branches(float(w.psi_at(t)))
        if not spans:
            continue
        lo, hi = spans[0]
        for sig in np.linspace(lo, hi, 5):
            for xi0 in xi_vals:
                pts_sig.append(float(sig))
                pts_t.append(float(t))
                pts_xi.append(float(xi0))
    pts_sig = np.array(pts_sig)
    pts_t = np.array(pts_t)
    pts_xi = np.array(pts_xi)

    # steps in the depth and frequency directions must follow the local
    # variation scale of the bracket, or orders >= 5 drown in roundoff
    lam = np.sqrt(pts_xi ** 2 + unit_xi ** 2 * np.maximum(pts_sig ** 2, 1.0)
                  + m * m)
    h_loc = step * lam

    triples, gathers = _garding_triples()
    table = np.empty((len(triples), pts_sig.size))
    for c in range(0, len(triples), _GARDING_CHUNK_TRIPLES):
        oi, oj, ok = (np.array(col)[:, None] for col in
                      zip(*triples[c:c + _GARDING_CHUNK_TRIPLES]))
        table[c:c + _GARDING_CHUNK_TRIPLES] = parabolic_bracket(
            w, p, pts_sig + oi * h_loc / unit_xi, pts_t + oj * h_t,
            pts_xi + ok * h_loc).total

    order_max = {order: 0.0 for order in range(4, 8)}
    for (i, j, k), index in gathers:
        vals = table[index]
        wt_i, wt_j, wt_k = (_fd_stencil(order)[1] for order in (i, j, k))
        if j:
            # time stencil weights sum to zero, so accumulate
            # differences against a reference slice: summands shrink
            # from the bracket's magnitude to its actual variation,
            # which keeps the quotient below out of roundoff (and
            # makes steady profiles exactly zero)
            vals = vals - vals[:, :1]
            vals *= wt_j[:, None]
        acc = np.add.reduce(vals, axis=1)
        acc *= np.multiply.outer(wt_i, wt_k).reshape(-1, 1)
        acc = np.add.reduce(acc, axis=0)
        acc /= h_loc ** (i + k) * h_t ** j
        order_max[i + j + k] = max(order_max[i + j + k],
                                   float(np.max(np.abs(acc, out=acc))))

    grand = max(order_max.values())
    scale = s * s * w.alpha / w.R ** 2
    poly = (1.0 + w.psi_d1_sup + w.psi_d2_sup) ** 2
    bound = c_ref * (4.0 * w.alpha ** 2 / w.R ** 2) ** (2.0 * s - 3.0) * poly
    measured_norm = grand / scale
    violation = measured_norm / bound - 1.0
    measured = {"order_max": {str(o): v / scale for o, v in order_max.items()},
                "measured": measured_norm, "bound": bound, "C_ref": c_ref}
    inputs = {"alpha": w.alpha, "R": w.R, "s": p.s, "m": p.m,
              "step": step, "points": int(pts_sig.size)}
    return finish_report(inputs, measured, 0.0, violation, None)


# ---------------------------------------------------------------------------
# dense matrices


def spectral_operator_matrix(L: float, n: int, p: OperatorParams) -> np.ndarray:
    """Dense symmetric circulant of the multiplier (xi^2 + m^2)^s."""
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    row = np.real(np.fft.ifft(symbol(p, xi)))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return row[idx]


def conjugated_operator_matrix(w: QuadraticWeight, p: OperatorParams,
                               L: float, n: int) -> np.ndarray:
    """Dense diag(e^phi) W diag(e^-phi) on the periodic box at t = 0.

    The caller keeps operands supported inside the annulus and |x| <= R;
    the matrix itself only needs max phi on the grid under the cap."""
    ph = _grid_exponent(w, L, n, 0.0)
    W = spectral_operator_matrix(L, n, p)
    return np.exp(ph)[:, None] * W * np.exp(-ph)[None, :]


def matrix_parts(M: np.ndarray):
    """Symmetric and antisymmetric halves; they recompose to M exactly."""
    S = 0.5 * (M + M.T)
    return S, M - S


def s1_commutator_target(w: QuadraticWeight, p: OperatorParams,
                         L: float, n: int) -> np.ndarray:
    """Closed-form commutator 4 phi_xx (-lap + phi_x^2) of the s = 1 split,
    at t = 0."""
    if p.s != 1.0:
        raise PreconditionError("the closed-form commutator needs s = 1")
    lap = spectral_operator_matrix(L, n, OperatorParams(1.0, 0.0))
    px = np.asarray(w.phi_x(0.0, grid_points(L, n)), dtype=float)
    return 4.0 * w.phi_xx * (lap + np.diag(px * px))


def s1_commutator_check(n: int, tolerance: float) -> CheckReport:
    """[S, A] of the s = 1 conjugated matrix, applied as S (A f) - A (S f),
    against s1_commutator_target on the box of length 8 with n nodes, for
    four constant weights and seven analytic operands centred where the
    weight is moderate (the periodic seam stays quiet)."""
    L, p1 = 8.0, OperatorParams(1.0, 1.0)
    x = grid_points(L, n)
    core = np.exp(-((x / 0.35) ** 2))
    fs = [core] + [core * wave(2.0 * np.pi * k * x / 3.0)
                   for k in (1, 2, 3) for wave in (np.cos, np.sin)]
    worst = 0.0
    for a, level in ((0.05, 0.0), (0.2, 0.0), (0.4, 0.0), (0.05, 3.0)):
        w = QuadraticWeight.constant(a, 1.0, level)
        S, A = matrix_parts(conjugated_operator_matrix(w, p1, L, n))
        T = s1_commutator_target(w, p1, L, n)
        for f in fs:
            target = T @ f
            worst = max(worst, float(np.linalg.norm(
                S @ (A @ f) - A @ (S @ f) - target) / np.linalg.norm(target)))
    return finish_report({"n": n}, {"rel_error": worst}, tolerance, worst,
                         None)


# ---------------------------------------------------------------------------
# grid-level weighted inequalities


_D1_STENCIL_8 = np.array([1.0 / 280.0, -4.0 / 105.0, 1.0 / 5.0, -4.0 / 5.0,
                          0.0, 4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Eighth-order centered d/dt with zero extension (operands are
    compactly supported inside the time window)."""
    nt = values.shape[0]
    padded = np.pad(values, ((4, 4), (0, 0)))
    out = np.zeros_like(values)
    for k, c in enumerate(_D1_STENCIL_8):
        if c != 0.0:
            out += c * padded[k:k + nt, :]
    out /= dt
    return out


def _cap_error(top: float) -> OverflowGuardError:
    return OverflowGuardError(
        f"max phi on the grid is {top:.4g}, past the e^phi cap "
        f"{PHI_CAP:g}; shrink alpha or the box")


def _grid_exponent(w: QuadraticWeight, L: float, n: int, t: float) -> np.ndarray:
    """phi(t, .) on the grid, refused past the e^phi cap."""
    ph = np.asarray(w.phi(t, grid_points(L, n)), dtype=float)
    top = float(np.max(ph))
    if top > PHI_CAP:
        raise _cap_error(top)
    return ph


def elliptic_test_family(w: QuadraticWeight, L: float, n: int, count: int,
                         rng) -> Iterator[GridFunction]:
    """Random smooth operands supported in the annulus branch inside
    |x| <= R at t = 0 (elliptic weights have a constant profile), each
    drawn when it is asked for; the window is built on the call."""
    window = _operand_window(w, L, n, 0.0)
    return (GridFunction(L, n, window * band_limited_noise(
        L, n, _OPERAND_K_MAX, rng).values)
        for _ in range(count))


def _operand_window(w: QuadraticWeight, L: float, n: int,
                    t: float) -> np.ndarray:
    """C^inf window in x at time t, equal to 1 well inside the first
    reachable annulus branch inset by _OPERAND_MARGIN at each end."""
    spans = _sigma_branches(float(w.psi_at(t)))
    if not spans:
        raise ConfigError(f"no reachable annulus inside |x| <= R at t={t:g}")
    lo, hi = spans[0][0] + _OPERAND_MARGIN, spans[0][1] - _OPERAND_MARGIN
    if not lo < hi:
        raise ConfigError("empty support window; widen the annulus margins")
    sig = w.offset(t, grid_points(L, n))
    rise = 0.2 * (hi - lo)
    return smooth_step((sig - lo) / rise) * smooth_step((hi - sig) / rise)


def parabolic_test_family(w: QuadraticWeight, L: float, n: int,
                          times, count: int,
                          rng) -> Iterator[SpaceTimeFunction]:
    """Random smooth operands supported in the moving annulus inside
    |x| <= R, compactly supported in the time window, each drawn when it
    is asked for; the windows are built on the call."""
    times = np.asarray(times, dtype=float)
    span = times[-1] - times[0]
    t_lo = times[0] + 0.1 * span
    t_hi = times[-1] - 0.1 * span
    rise = 0.15 * span
    bump = (smooth_step((times - t_lo) / rise)
            * smooth_step((t_hi - times) / rise))
    windows = bump[:, None] * np.array(
        [_operand_window(w, L, n, float(t)) for t in times])
    return (SpaceTimeFunction(L, n, times, windows * band_limited_noise(
        L, n, _OPERAND_K_MAX, rng).values[None, :])
        for _ in range(count))


class _SliceArrays(NamedTuple):
    """What every operand on one (L, n, times) grid shares: annulus
    membership and max phi per time slice, e^{+-phi} (None when a slice is
    past the cap, since every operand then fails its slice guards first),
    phi_t (None without a time term) and the order-(s-1/2) multiplier."""

    inside: np.ndarray
    phi_top: np.ndarray
    exp_pos: np.ndarray | None
    exp_neg: np.ndarray | None
    phi_t: np.ndarray | None
    order_mult: np.ndarray


def _slice_arrays(w: QuadraticWeight, p: OperatorParams, L: float, n: int,
                  times: np.ndarray, time_term: bool) -> _SliceArrays:
    tt = times[:, None]
    x = grid_points(L, n)
    off = np.abs(w.offset(tt, x))
    ph = np.asarray(w.phi(tt, x), dtype=float)
    top = ph.max(axis=1)
    capped = bool(np.any(top > PHI_CAP))
    xi = frequencies(L, n)
    return _SliceArrays(
        (off >= ANNULUS_INNER) & (off <= ANNULUS_OUTER), top,
        None if capped else np.exp(ph), None if capped else np.exp(-ph),
        np.asarray(w.phi_t(tt, x), dtype=float) if time_term else None,
        (xi * xi + p.m * p.m) ** (p.s - 0.5))


def _operand_block(i: int, f, mode: str):
    """(values of shape (nt, n), times, dt) of one operand, after the
    guards that need the operand alone.  An elliptic operand is one slice
    at t = 0 with dt = 1."""
    if mode == "elliptic":
        if not isinstance(f, GridFunction):
            raise ConfigError("elliptic operands must be GridFunction")
        return f.values[None, :], np.zeros(1), 1.0
    if not isinstance(f, SpaceTimeFunction):
        raise ConfigError("parabolic operands must be SpaceTimeFunction")
    # the eighth-order time stencil needs a uniform grid of 9 samples or more
    if f.nt < 9:
        raise ConfigError("need at least 9 time samples")
    steps = np.diff(f.times)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ConfigError("time grid must be uniform")
    total = float(np.sum(f.values ** 2))
    # the time stencil reaches 4 slices past each sample, so the
    # operand must vanish on the outermost 4 slices of the window
    ends = float(np.sum(f.values[:4] ** 2) + np.sum(f.values[-4:] ** 2))
    if total > 0.0 and ends / total > _SUPPORT_LEAK_TOL:
        raise SupportError(
            f"operand {i} is not compactly supported inside the time "
            "window (stencil margin of 4 slices)")
    return f.values, f.times, dt


def _guarded_slice_mass(i: int, vals: np.ndarray, arr: _SliceArrays,
                        times: np.ndarray, mode: str) -> np.ndarray:
    """Squared mass of each slice of operand i.  Raises first for the
    earliest slice that leaks mass out of the annulus or sits past the
    e^phi cap; at one slice the leak comes first."""
    sq = vals ** 2
    mass = sq.sum(axis=1)
    sq[arr.inside] = 0.0
    leak = np.divide(sq.sum(axis=1), mass, out=np.zeros_like(mass),
                     where=mass != 0.0)
    bad = np.flatnonzero((leak > _SUPPORT_LEAK_TOL)
                         | (arr.phi_top > PHI_CAP))
    if bad.size:
        j = int(bad[0])
        if leak[j] > _SUPPORT_LEAK_TOL:
            at = "" if mode == "elliptic" else f" at t={float(times[j]):g}"
            raise SupportError(f"operand {i} leaks mass fraction "
                               f"{leak[j]:.3g} outside the annulus{at}")
        raise _cap_error(float(arr.phi_top[j]))
    return mass


def _slice_total(per_slice: np.ndarray) -> float:
    """Sum of the per-slice values, added left to right (cumsum)."""
    return float(np.cumsum(per_slice)[-1])


def _block_terms(f, vals: np.ndarray, dt: float, arr: _SliceArrays,
                 mass: np.ndarray, p: OperatorParams) -> tuple:
    """(rhs, order-(s-1/2) norm, L^2 norm) of one operand block.  The
    arithmetic runs in place where that keeps the operations and their
    order, and the block's temporaries die on return, so fewer (nt, n)
    arrays are alive at once."""
    rows = apply_spectral(arr.exp_neg * vals, p, L=f.L)
    rows *= arr.exp_pos
    if arr.phi_t is not None:
        # (d_t f - phi_t f) + e^phi (-lap+m^2)^s e^{-phi} f
        dtf = _time_derivative(vals, dt)
        dtf -= arr.phi_t * vals
        dtf += rows
        rows = dtf
    rows *= rows
    spec = np.fft.rfft(vals)
    spec *= arr.order_mult
    order = np.fft.irfft(spec, f.n)
    order *= order
    h = f.L / f.n
    return tuple(_slice_total(per_slice * h * dt) for per_slice in
                 (rows.sum(axis=1), order.sum(axis=1), mass))


def _operand_terms(fs, w: QuadraticWeight, p: OperatorParams,
                   mode: str) -> list:
    """(rhs, order-(s-1/2) norm, L^2 norm) of every operand, all squared.

    rhs is || e^phi (d_t +) (-lap+m^2)^s e^{-phi} f ||^2; the two norms are
    the left side's || (-lap+m^2)^{(2s-1)/2} f ||^2 and || f ||^2.  In
    parabolic mode each is integrated over the time window.  Each operand
    is one (nt, n) block: one spectral apply, one transform pair for the
    order norm and row sums, the per-slice values then added in slice
    order.  Raises when an operand has the wrong type or grid or leaves
    its support, or the weight passes the e^phi cap.
    """
    shared = {}
    terms = []
    for i, f in enumerate(fs):
        vals, times, dt = _operand_block(i, f, mode)
        key = (f.L, f.n, times.tobytes())
        if key not in shared:
            shared[key] = _slice_arrays(w, p, f.L, f.n, times,
                                        mode == "parabolic")
        arr = shared[key]
        mass = _guarded_slice_mass(i, vals, arr, times, mode)
        terms.append(_block_terms(f, vals, dt, arr, mass, p))
    return terms


def carleman_quadratic_check(fs, w: QuadraticWeight, p: OperatorParams,
                             mode: str, *, constants=None) -> CheckReport:
    """Grid-level verification of the weighted lower-bound inequality.

    For every operand f the check computes
      rhs = || e^phi (d_t +) (-lap+m^2)^s e^{-phi} f ||^2
      lhs = c1 s^2 (alpha/R^2) || (-lap+m^2)^{(2s-1)/2} f ||^2
          + c2 s^2 (alpha^{4s-1}/R^{4s}) || f ||^2
    over the periodic box (and the time window in parabolic mode, where the
    time derivative is an eighth-order difference) and asserts lhs <= rhs.
    It also reports the headroom: the least rhs / lhs at c1 = c2 = 1 over
    the operands with a nonzero left side (inf if none has one), the
    largest joint constant the inequality holds with.

    fs is an iterable of GridFunction (elliptic) or SpaceTimeFunction
    (parabolic, on a uniform grid of at least 9 times), read once, so a
    generator keeps one alive at a time.  constants is a dict with c1,
    c2, C_weight; None loads the frozen table entry for (mode, s,
    m R/(2 alpha)).

    The check works in array passes.  The annulus membership, phi,
    e^{+-phi}, phi_t and the order-(s-1/2) multiplier are computed once
    per time grid and shared by the operands on it.  Each operand is one
    (nt, n) block (an elliptic operand is one slice at t = 0 without the
    time-derivative term): one spectral apply, one transform pair for the
    order norm, and row sums whose per-slice values are added left to
    right, so the terms equal a slice-by-slice evaluation bit for bit.
    Operands are checked in order, and for each the first failure is the
    one a slice-by-slice loop meets first: the type, the 9-sample,
    uniform-grid and time-support guards, then the earliest slice that
    leaks mass out of the annulus (SupportError, naming that slice's t)
    or passes the e^phi cap (OverflowGuardError, naming that slice's max
    phi); at one slice the leak comes first.  A profile psi outside
    [0, 3] anywhere on an operand's time grid is a ConfigError before its
    slice guards.
    """
    if mode == "elliptic":
        if not (0.5 <= p.s <= 1.0):
            raise PreconditionError(
                f"elliptic mode needs 1/2 <= s <= 1, got s={p.s!r}")
        if w.psi_d1_sup != 0.0 or abs(float(w.psi_at(0.0)) - 3.0) > 1e-12:
            raise PreconditionError("elliptic mode needs the constant profile psi = 3")
    elif mode == "parabolic":
        if not (0.5 < p.s <= 1.0):
            raise PreconditionError(
                f"parabolic mode needs 1/2 < s <= 1, got s={p.s!r}")
    else:
        raise ConfigError(f"mode must be 'elliptic' or 'parabolic', got {mode!r}")
    if constants is None:
        constants = quadratic_constants(mode, p.s, w.m_ratio(p.m))
    c1 = float(constants["c1"])
    c2 = float(constants["c2"])
    c_weight = float(constants["C_weight"])
    _require_admissible_mass(w, p)
    if w.alpha ** (4.0 * p.s - 1.0) < c_weight * w.R ** (4.0 * p.s) * (1.0 - 1e-12):
        raise AdmissibilityError(
            f"alpha^(4s-1) = {w.alpha ** (4.0 * p.s - 1.0):.6g} is under the "
            f"calibrated floor {c_weight * w.R ** (4.0 * p.s):.6g}")

    s = p.s
    # the left side's coefficients at unit constants
    unit1 = s * s * (w.alpha / w.R ** 2)
    unit2 = s * s * (w.alpha ** (4.0 * s - 1.0) / w.R ** (4.0 * s))
    coef1, coef2 = c1 * unit1, c2 * unit2
    terms = _operand_terms(fs, w, p, mode)
    slacks = []
    worst = None
    headroom = math.inf
    for i, (rhs, q_order, q_l2) in enumerate(terms):
        lhs = coef1 * q_order + coef2 * q_l2
        scale = max(rhs, 1e-300)
        slack = (rhs - lhs) / scale
        slacks.append(slack)
        if worst is None or slack < worst["slack"]:
            worst = {"operand": i, "slack": slack, "lhs": lhs, "rhs": rhs}
        unit_lhs = unit1 * q_order + unit2 * q_l2
        if unit_lhs > 0.0:
            headroom = min(headroom, rhs / unit_lhs)

    slacks = np.array(slacks) if slacks else np.array([0.0])
    violation = float(max(0.0, -np.min(slacks)))
    measured = {"min_slack": float(np.min(slacks)),
                "median_slack": float(np.median(slacks)),
                "count": len(terms), "c1": c1, "c2": c2,
                "C_weight": c_weight, "headroom": headroom}
    inputs = {"mode": mode, "alpha": w.alpha, "R": w.R, "s": p.s, "m": p.m}
    return finish_report(inputs, measured, 0.0, violation, worst)


# ---------------------------------------------------------------------------
# conjugation versus fractional powers on SPD matrices


def appendix_conjugation_check(dim_matrix: int, s: float, phi_values,
                               tolerance: float = 1e-10) -> CheckReport:
    """Conjugation commutes with fractional powers, at matrix level.

    For the SPD second-difference matrix A = lap_h + m^2 I (unit spacing,
    zero boundary, m = 1) and E = diag(e^phi), the check compares

        E A^s E^{-1}   against   (E A E^{-1})^s,

    the left side through A's eigenpairs, known in closed form (the sine
    basis of the Dirichlet second difference), the right side through the
    similarity route: E A E^{-1} is diagonalized by the conjugated
    eigenbasis E V, with eigenvalues recovered from the explicitly formed
    product.  s in (-1, 1] excluding 0; negative powers run through the
    same factorization.  The check guards the similarity route's finite
    precision and conditioning, not the algebra and not an eigensolver:
    its products are einsums, so no LAPACK or matrix-matrix BLAS runs.
    """
    nd = int(dim_matrix)
    if nd < 2:
        raise ConfigError("matrix dimension must be at least 2")
    if not (-1.0 < s <= 1.0) or s == 0.0:
        raise DomainError(f"power must lie in (-1, 1] without 0, got {s!r}")
    phi = np.asarray(phi_values, dtype=float)
    if phi.shape != (nd,) or not np.all(np.isfinite(phi)):
        raise ConfigError(f"phi_values must be a finite vector of length {nd}")
    spread = float(np.max(phi) - np.min(phi))
    if math.exp(min(spread, PHI_CAP)) > CONDITION_CAP:
        raise ConditioningError(
            f"e^(max phi - min phi) = e^{spread:.3g} exceeds {CONDITION_CAP:g}")

    m = 1.0
    A = np.diag(np.full(nd, 2.0 + m * m)) - np.eye(nd, k=1) - np.eye(nd, k=-1)
    k = np.arange(1, nd + 1)
    vals = 2.0 + m * m - 2.0 * np.cos(k * math.pi / (nd + 1))
    V = math.sqrt(2.0 / (nd + 1)) * np.sin(np.outer(k, k) * math.pi / (nd + 1))
    e_ph = np.exp(phi - np.min(phi))
    lhs = (e_ph[:, None] * np.einsum("ik,k,jk->ij", V, vals ** s, V)
           * (1.0 / e_ph)[None, :])

    B = e_ph[:, None] * A * (1.0 / e_ph)[None, :]
    EV = e_ph[:, None] * V
    EV_inv = V.T * (1.0 / e_ph)[None, :]
    recovered = np.einsum("ki,ij,jk->k", EV_inv, B, EV)
    rhs = np.einsum("ik,k,kj->ij", EV, recovered ** s, EV_inv)

    diff = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    measured = {"rel_frobenius": diff, "spread": spread,
                "eig_recovery": float(np.max(np.abs(recovered - vals)
                                             / np.abs(vals)))}
    inputs = {"dim": nd, "s": float(s), "m": float(m)}
    witness = None if diff <= tolerance else {"worst": diff}
    return finish_report(inputs, measured, tolerance, diff, witness)


# ---------------------------------------------------------------------------
# calibration (run offline; results frozen in data/calibration.json)


def calibrate_positivity(s: float, m_ratio: float) -> dict:
    """Find the first steepness on a fixed 40-point grid whose dominance
    ladder holds, freeze the admissibility constant with the safety
    factor, and certify a floor on the sweep ratio at three operating
    steepnesses: the first admissible one and two doublings, each of which
    must pass the gate (a CalibrationError otherwise).

    The first admissible grid point is found by probing the grid upward
    from its shallowest point (_ladder_holds) and stopping at the first
    that passes, so the result does not depend on the ladder predicate
    being monotone along the grid.  A probe follows the sweep block by
    block and stops at the first block that breaks the ladder, which
    decides it; only a passing probe sweeps every block.  On both frozen
    tables (s = 0.75, m_ratio 0 and 1) the first 27 points fail after
    one block each and the 28th passes after 21: 48 blocks."""
    R, safety = CALIBRATION_R, _CALIBRATION_SAFETY
    grid = np.geomspace(0.5, 400.0, 40)

    def weight(a):
        w = QuadraticWeight.decaying(float(a), R)
        return w, OperatorParams(s, m_ratio * 2.0 * w.alpha / w.R)

    breaking = next((float(a) for a in grid if _ladder_holds(*weight(a))),
                    None)
    if breaking is None:
        raise CalibrationError("no alpha in the scan satisfied the ladder")
    w_floor, _ = weight(breaking)
    c_hyp = safety * w_floor.slope(s) / w_floor.profile_norm()
    # admissibility with the safety factor starts at
    # safety^{1/(2s-1)} * alpha_floor; pad by 5% and double twice
    base = 1.05 * safety ** (1.0 / (2.0 * s - 1.0)) * breaking
    sweeps = [positivity_sweep(*weight(a), constants=(c_hyp, 0.0)).measured
              for a in (base, 2.0 * base, 4.0 * base)]
    for sweep in sweeps:
        if not sweep["gate_ok"]:
            raise CalibrationError(f"an operating steepness fails the gate: "
                                   f"{sweep['gate_message']}")
    ratios = [sweep["ratio_min"] for sweep in sweeps]
    return {"s": float(s), "m_ratio": float(m_ratio),
            "c_hyp": float(c_hyp), "c_min": float(0.5 * min(ratios)),
            "alpha_floor": breaking, "profile": "decaying",
            "operating_ratio_min": float(min(ratios))}


def calibrate_garding(s: float, m_ratio: float) -> dict:
    """Measure the derivative-bound constant over steady-profile operating
    configs and freeze it with the safety factor.  Steady profiles keep the
    profile-driven terms out, which is the regime where the envelope's
    alpha-scaling is exact; moving profiles are measured with an explicit
    constants override."""
    worst = 0.0
    for a in (40.0, 100.0, 250.0):
        w = QuadraticWeight.constant(a, CALIBRATION_R, 3.0)
        p = OperatorParams(s, m_ratio * 2.0 * w.alpha / w.R)
        rep = garding_hypothesis_check(w, p, constants=1.0)
        worst = max(worst, rep.measured["measured"] / rep.measured["bound"])
    return {"s": float(s), "m_ratio": float(m_ratio),
            "C_ref": float(_CALIBRATION_SAFETY * worst),
            "profile": "constant"}


def quadratic_corpus(mode: str, s: float, m_ratio: float, alpha: float,
                     count: int, rng, n: int):
    """(weight, operator, operands) of the quadratic Carleman corpus at
    R = CALIBRATION_R on the QUADRATIC_L box: a steady profile with
    elliptic operands, or a decaying one with parabolic operands on
    QUADRATIC_NT uniform times; the mass is m_ratio * 2 alpha / R."""
    R, L = CALIBRATION_R, QUADRATIC_L
    p = OperatorParams(s, m_ratio * 2.0 * alpha / R)
    if mode == "elliptic":
        w = QuadraticWeight.constant(alpha, R, 3.0)
        return w, p, elliptic_test_family(w, L, n, count, rng)
    w = QuadraticWeight.decaying(alpha, R)
    times = np.linspace(0.0, QUADRATIC_T_SPAN, QUADRATIC_NT)
    return w, p, parabolic_test_family(w, L, n, times, count, rng)


def calibrate_quadratic(mode: str, s: float, m_ratio: float, *,
                        seed: int = 20260822) -> dict:
    """Pick the largest joint (c1, c2) leaving a factor-2 margin over the
    operand family, capped at 1: half the headroom the quadratic check
    reports on it.  The steepness floor C_weight = 1 is recorded with them;
    the headroom shows how far the inequality sits from binding."""
    R, L = CALIBRATION_R, QUADRATIC_L
    count, nt = _QUADRATIC_CALIBRATION_COUNT, QUADRATIC_NT
    c_weight = 1.0
    alpha = 2.0 * (c_weight * R ** (4.0 * s)) ** (1.0 / (4.0 * s - 1.0))
    w, p, fs = quadratic_corpus(mode, s, m_ratio, alpha, count,
                                grid.rng(seed), QUADRATIC_N)
    # a report holds an infinite headroom as the string "inf"
    headroom = float(carleman_quadratic_check(
        fs, w, p, mode, constants={"c1": 1.0, "c2": 1.0, "C_weight": c_weight}
    ).measured["headroom"])
    c_joint = min(1.0, 0.5 * headroom)
    return {"mode": mode, "s": float(s), "m_ratio": float(m_ratio),
            "C_weight": c_weight, "c1": float(c_joint), "c2": float(c_joint),
            "headroom": float(headroom),
            "corpus": {"R": R, "L": L, "n": QUADRATIC_N, "count": count,
                       "seed": seed,
                       "alpha": alpha, "nt": nt if mode == "parabolic" else None}}
