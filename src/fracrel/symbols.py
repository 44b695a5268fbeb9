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

The module provides closed forms and finite-difference cross-checks for the
symbols and brackets, a positivity sweep over the support annulus
1 <= |x/R + psi(t)| <= 4 with the proof-ladder dominance margins, derivative
bounds of the kind a sharp Garding inequality consumes, dense-matrix
realizations of the conjugated operator (with the s = 1 closed-form
commutator), grid-level verification of the elliptic and parabolic weighted
lower-bound inequalities, and the conjugation/fractional-power exchange on
SPD matrices.  All unspecified constants are calibrated empirically and
frozen in data/symbol_calibration.json.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

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
from .operator import OperatorParams, apply_spectral, frequencies
from .report import CheckReport, calibration_tables, finish_report

# Exponent cap for e^{phi} evaluated on a grid; past this the weight itself
# is unrepresentable and the caller must shrink alpha or the box.
PHI_CAP = 700.0

# Conditioning cap e^{max phi - min phi} for the similarity-route check.
CONDITION_CAP = 1e8

# Default xi sweep: log-spaced magnitudes spanning [1e-3, 1e3] * (alpha/R)
# with a dense linear patch across the case-split frequency 2 alpha/R.
XI_SWEEP_NODES = 400

# Points where the symbol modulus sits below this times the local frequency
# scale are reported as singular instead of entering sweep minima.
SINGULAR_FLOOR = 1e-6

# Interior slack allowed on exact sign claims (pure roundoff).
_DOMINANCE_SLACK = 1e-9

_CALIBRATION_RESOURCE = "symbol_calibration.json"


# ---------------------------------------------------------------------------
# weight, phase-space point, support region


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
    def decaying(cls, alpha: float, R: float, scale: float = 3.0) -> "QuadraticWeight":
        """Sliding profile psi(t) = scale/(1+t), top value scale at t = 0."""
        if not (0.0 < scale <= 3.0):
            raise ConfigError("profile scale must lie in (0, 3]")
        return cls(alpha, R,
                   psi=lambda t: scale / (1.0 + np.asarray(t, dtype=float)),
                   psi_d1=lambda t: -scale / (1.0 + np.asarray(t, dtype=float)) ** 2,
                   psi_d2=lambda t: 2.0 * scale / (1.0 + np.asarray(t, dtype=float)) ** 3,
                   psi_d1_sup=scale, psi_d2_sup=2.0 * scale)

    @classmethod
    def oscillating(cls, alpha: float, R: float, amplitude: float = 1.4,
                    rate: float = 2.0) -> "QuadraticWeight":
        """Profile psi(t) = 1.5 + amplitude cos(rate t).  Brisk rates drive
        the curvature term negative, which is how falsification configs
        break the positivity ladder."""
        if not (0.0 < amplitude <= 1.5):
            raise ConfigError("amplitude must lie in (0, 1.5]")
        if rate <= 0.0:
            raise ConfigError("rate must be positive")
        return cls(alpha, R,
                   psi=lambda t: 1.5 + amplitude * np.cos(rate * np.asarray(t, dtype=float)),
                   psi_d1=lambda t: -amplitude * rate * np.sin(rate * np.asarray(t, dtype=float)),
                   psi_d2=lambda t: -amplitude * rate ** 2 * np.cos(rate * np.asarray(t, dtype=float)),
                   psi_d1_sup=amplitude * rate, psi_d2_sup=amplitude * rate ** 2)

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

    def phi_tt(self, t, x):
        d1 = np.asarray(self.psi_d1(t), dtype=float)
        d2 = np.asarray(self.psi_d2(t), dtype=float)
        return 2.0 * self.alpha * d1 ** 2 + 2.0 * self.alpha * self.offset(t, x) * d2

    def slope(self, s: float) -> float:
        """The steepness s alpha^{2s-1} / R^{2s} the admissibility gate tests."""
        return s * self.alpha ** (2.0 * s - 1.0) / self.R ** (2.0 * s)

    def profile_norm(self) -> float:
        """|psi'|_sup + |psi''|_sup^{1/2}, the combination the gate compares."""
        return self.psi_d1_sup + math.sqrt(self.psi_d2_sup)

    def m_ratio(self, m: float) -> float:
        """m R / (2 alpha); admissible masses have ratio <= 1."""
        return m * self.R / (2.0 * self.alpha)


@dataclass(frozen=True)
class SymbolPoint:
    """Phase-space point (x, t; xi, tau).  Elliptic evaluations fix t = tau = 0.

    tau is the dual of t.  It cancels out of every bracket computed here
    (the time direction enters the antisymmetric symbol as tau + b with unit
    coefficient) and is carried only so parabolic sweep points are stated
    fully.
    """

    x: float
    xi: float
    t: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("x", "xi", "t", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.t < 0.0:
            raise ConfigError(f"t must be nonnegative, got {self.t!r}")


@dataclass(frozen=True)
class SupportAnnulus:
    """The moving support region 1 <= |x/R + psi(t)| <= 4."""

    weight: QuadraticWeight
    inner: float = 1.0
    outer: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ConfigError("need 0 < inner < outer")

    def contains(self, t, x):
        off = np.abs(self.weight.offset(t, x))
        return (off >= self.inner) & (off <= self.outer)

    def leak_fraction(self, g: GridFunction, t: float = 0.0) -> float:
        """Squared-mass fraction of g sitting outside the annulus."""
        w2 = g.values ** 2
        total = float(np.sum(w2))
        if total == 0.0:
            return 0.0
        return float(np.sum(w2[~self.contains(t, g.x)]) / total)


# ---------------------------------------------------------------------------
# pointwise symbol algebra (vectorized cores, scalar wrappers)


class _SymbolCore(NamedTuple):
    """Modulus and argument of w = xi^2 + m^2 - px^2 + 2 i xi px.

    rho2 = |w|^2, cos_s and sin_s are cos and sin of s theta with
    theta = arg w on (-pi, pi], and grad_scale = 2 s rho^(s-2), the factor
    every xi-derivative of w^s carries (infinite where rho = 0, s < 2).
    """

    xi: np.ndarray
    px: np.ndarray
    m: float
    s: float
    rho2: np.ndarray
    cos_s: np.ndarray
    sin_s: np.ndarray
    grad_scale: np.ndarray


def _symbol_core(xi, px, m: float, s: float) -> _SymbolCore:
    xi = np.asarray(xi, dtype=float)
    px = np.asarray(px, dtype=float)
    u = xi * xi + m * m - px * px
    v = 2.0 * xi * px
    rho2 = u * u + v * v
    theta = np.arctan2(v, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_scale = 2.0 * s * rho2 ** (0.5 * s - 1.0)
    return _SymbolCore(xi, px, m, s, rho2, np.cos(s * theta),
                       np.sin(s * theta), grad_scale)


def _core_at(pt: SymbolPoint, w: QuadraticWeight, p: OperatorParams):
    return _symbol_core(pt.xi, float(w.phi_x(pt.t, pt.x)), p.m, p.s)


def _symbol_ab(c: _SymbolCore):
    """a = rho^s cos(s theta) and b = rho^s sin(s theta)."""
    amp = c.rho2 ** (0.5 * c.s)
    return amp * c.cos_s, amp * c.sin_s


def _symbol_xi_grad(c: _SymbolCore):
    """Closed-form (a_xi, b_xi) from d_xi w^s = s w^{s-1} w_xi.

    With p = xi (xi^2+m^2+px^2) and q = px (xi^2+px^2-m^2):
      a_xi = 2 s rho^{s-2} ( p cos(s th) + q sin(s th) )
      b_xi = 2 s rho^{s-2} ( p sin(s th) - q cos(s th) )
    Diverges where rho = 0 and s < 2; callers mask singular points.
    """
    xi, px, m = c.xi, c.px, c.m
    p = xi * (xi * xi + m * m + px * px)
    q = px * (xi * xi + px * px - m * m)
    with np.errstate(invalid="ignore"):
        return (c.grad_scale * (p * c.cos_s + q * c.sin_s),
                c.grad_scale * (p * c.sin_s - q * c.cos_s))


def _bracket_ab(c: _SymbolCore, phi_xx: float):
    """{a, b} = 4 s^2 phi_xx rho^{2(s-1)} (xi^2 + px^2), vectorized."""
    s, xi, px = c.s, c.xi, c.px
    with np.errstate(divide="ignore", invalid="ignore"):
        return 4.0 * s * s * phi_xx * c.rho2 ** (s - 1.0) * (xi * xi + px * px)


def conjugated_symbol(pt: SymbolPoint, w: QuadraticWeight,
                      p: OperatorParams) -> tuple:
    """Real and imaginary symbol parts of the conjugated operator.

    Returns (a, b) = (rho^s cos(s theta), rho^s sin(s theta)) where rho and
    theta are modulus and argument of the complex quadratic w, with theta on
    the continuous branch (-pi, pi] from the two-argument arctangent.  The
    only zero of rho is xi = 0 with m = |phi_x|, where both parts vanish.
    """
    a, b = _symbol_ab(_core_at(pt, w, p))
    return float(a), float(b)


def symbol_gradient(pt: SymbolPoint, w: QuadraticWeight,
                    p: OperatorParams) -> dict:
    """All first derivatives of (a, b) in closed form.

    Since d_x w = i phi_xx d_xi w and d_t w = i phi_tx d_xi w, the x and t
    derivatives collapse onto the xi-gradient:
      a_x = -phi_xx b_xi    b_x = phi_xx a_xi
      a_t = -phi_tx b_xi    b_t = phi_tx a_xi
    """
    a_xi, b_xi = _symbol_xi_grad(_core_at(pt, w, p))
    a_xi = float(a_xi)
    b_xi = float(b_xi)
    ptx = float(w.phi_tx(pt.t))
    return {"a_xi": a_xi, "b_xi": b_xi,
            "a_x": -w.phi_xx * b_xi, "b_x": w.phi_xx * a_xi,
            "a_t": -ptx * b_xi, "b_t": ptx * a_xi}


def bracket_singular(pt: SymbolPoint, w: QuadraticWeight, p: OperatorParams,
                     floor: float = SINGULAR_FLOOR) -> bool:
    """True when the modulus of w vanishes to within floor * local scale.

    There the bracket carries rho^{2(s-1)} and blows up for s < 1; sweeps
    report such points instead of folding them into minima.
    """
    if p.s >= 1.0:
        return False
    c = _core_at(pt, w, p)
    local = pt.xi * pt.xi + p.m * p.m + c.px * c.px
    if local == 0.0:
        return True
    return bool(c.rho2 <= (floor * local) ** 2)


def poisson_bracket(pt: SymbolPoint, w: QuadraticWeight,
                    p: OperatorParams) -> float:
    """Closed-form {a, b} = 4 s^2 phi_xx rho^{2(s-1)} (xi^2 + phi_x^2).

    At a singular point (rho = 0, s < 1) the closed form diverges; the
    limit value +inf is returned and bracket_singular carries the flag.
    """
    val = float(_bracket_ab(_core_at(pt, w, p), w.phi_xx))
    if math.isnan(val):
        # 0 * inf at a fully degenerate point; resolve by the xi -> 0 limit
        # of 4 s^2 phi_xx xi^{4s-2}.
        return 0.0 if p.s > 0.5 else math.inf
    return val


def poisson_bracket_fd(pt: SymbolPoint, w: QuadraticWeight, p: OperatorParams,
                       step: float = 1e-4) -> float:
    """Centered-difference a_xi b_x - a_x b_xi for cross-checking the
    closed form; steps are relative to the local coordinate scales."""
    h_x = step * w.R
    h_xi = step * max(abs(pt.xi), 2.0 * w.alpha / w.R)

    def ab(x, xi):
        px = float(w.phi_x(pt.t, x))
        a, b = _symbol_ab(_symbol_core(xi, px, p.m, p.s))
        return float(a), float(b)

    a_pl, b_pl = ab(pt.x + h_x, pt.xi)
    a_mi, b_mi = ab(pt.x - h_x, pt.xi)
    a_x = (a_pl - a_mi) / (2.0 * h_x)
    b_x = (b_pl - b_mi) / (2.0 * h_x)
    a_pl, b_pl = ab(pt.x, pt.xi + h_xi)
    a_mi, b_mi = ab(pt.x, pt.xi - h_xi)
    a_xi = (a_pl - a_mi) / (2.0 * h_xi)
    b_xi = (b_pl - b_mi) / (2.0 * h_xi)
    return a_xi * b_x - a_x * b_xi


def parabolic_bracket_terms(pt: SymbolPoint, w: QuadraticWeight,
                            p: OperatorParams) -> dict:
    """The four closed-form pieces of the parabolic bracket.

    {a~, b~} = {a,b} + phi_tx b_xi + phi_tt - a_t with a~ = -phi_t + a and
    b~ = tau + b; tau itself drops out.  Keys:
      base       {a, b}
      mixed      phi_tx b_xi
      curvature  phi_tt
      transport  -a_t (equal to mixed, since a_t = -phi_tx b_xi)
    """
    core = _core_at(pt, w, p)
    base = _bracket_ab(core, w.phi_xx)
    _, b_xi = _symbol_xi_grad(core)
    ptx = float(w.phi_tx(pt.t))
    mixed = ptx * float(b_xi)
    return {"base": float(base), "mixed": mixed,
            "curvature": float(w.phi_tt(pt.t, pt.x)), "transport": mixed}


def parabolic_poisson_bracket(pt: SymbolPoint, w: QuadraticWeight,
                              p: OperatorParams) -> float:
    terms = parabolic_bracket_terms(pt, w, p)
    return terms["base"] + terms["mixed"] + terms["curvature"] + terms["transport"]


def parabolic_bracket_terms_fd(pt: SymbolPoint, w: QuadraticWeight,
                               p: OperatorParams, step: float = 1e-4) -> dict:
    """Finite-difference versions of the four pieces along independent
    paths: symbol differences in (x, xi, t) and weight differences in t."""
    h_t = step
    h_xi = step * max(abs(pt.xi), 2.0 * w.alpha / w.R)

    def ab_at(t, xi):
        a, b = _symbol_ab(_symbol_core(xi, float(w.phi_x(t, pt.x)), p.m, p.s))
        return float(a), float(b)

    _, b_pl = ab_at(pt.t, pt.xi + h_xi)
    _, b_mi = ab_at(pt.t, pt.xi - h_xi)
    b_xi = (b_pl - b_mi) / (2.0 * h_xi)
    ptx = (float(w.phi_x(pt.t + h_t, pt.x)) - float(w.phi_x(pt.t - h_t, pt.x))) / (2.0 * h_t)
    a_pl, _ = ab_at(pt.t + h_t, pt.xi)
    a_mi, _ = ab_at(pt.t - h_t, pt.xi)
    a_t = (a_pl - a_mi) / (2.0 * h_t)
    curv = (float(w.phi_t(pt.t + h_t, pt.x)) - float(w.phi_t(pt.t - h_t, pt.x))) / (2.0 * h_t)
    return {"base": poisson_bracket_fd(pt, w, p, step=step),
            "mixed": ptx * b_xi, "curvature": curv, "transport": -a_t}


# ---------------------------------------------------------------------------
# frozen calibration table


def _pick_entry(path, what: str, **keys):
    for entry in calibration_tables(_CALIBRATION_RESOURCE, path).get(what, []):
        if all(abs(entry[k] - v) <= 1e-9 * max(1.0, abs(v)) if isinstance(v, float)
               else entry[k] == v for k, v in keys.items()):
            return entry
    raise CalibrationError(f"no frozen {what} entry for {keys}")


def positivity_constants(s: float, m_ratio: float, path=None) -> tuple:
    """Frozen (c_hyp, c_min) of the positivity sweep for this (s, m-ratio)."""
    entry = _pick_entry(path, "positivity", s=float(s), m_ratio=float(m_ratio))
    return float(entry["c_hyp"]), float(entry["c_min"])


def garding_constants(s: float, m_ratio: float, path=None) -> dict:
    return _pick_entry(path, "garding", s=float(s), m_ratio=float(m_ratio))


def quadratic_constants(mode: str, s: float, m_ratio: float, path=None) -> dict:
    return _pick_entry(path, "quadratic", mode=mode, s=float(s),
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


def _sigma_branches(psi_val: float, inner: float = 1.0, outer: float = 4.0):
    """Reachable annulus offsets at a time slice, intersected with |x| <= R.

    sigma = x/R + psi with |x| <= R confines sigma to [psi-1, psi+1]; each
    branch of inner <= |sigma| <= outer intersects that window."""
    spans = []
    lo = max(inner, psi_val - 1.0)
    hi = min(outer, psi_val + 1.0)
    if lo <= hi:
        spans.append((lo, hi))
    lo = max(-outer, psi_val - 1.0)
    hi = min(-inner, psi_val + 1.0)
    if lo <= hi:
        spans.append((lo, hi))
    return spans


def _require_sweep_params(p: OperatorParams, what: str) -> None:
    if not (0.5 < p.s < 1.0):
        raise PreconditionError(f"{what} 1/2 < s < 1, got s={p.s!r}")


def require_admissible_weight(w: QuadraticWeight, p: OperatorParams,
                              c_hyp: float) -> None:
    """The two gate constraints: m <= 2 alpha/R and steepness over the
    profile norms.  Raises AdmissibilityError with the failing margin."""
    if p.m > 2.0 * w.alpha / w.R * (1.0 + 1e-12):
        raise AdmissibilityError(
            f"mass {p.m:g} exceeds 2 alpha/R = {2.0 * w.alpha / w.R:g}")
    need = c_hyp * w.profile_norm()
    if w.slope(p.s) < need * (1.0 - 1e-12):
        raise AdmissibilityError(
            f"weight steepness {w.slope(p.s):.6g} is under the calibrated "
            f"floor {need:.6g} for the profile norms")


def positivity_sweep(w: QuadraticWeight, p: OperatorParams, *,
                     xi_grid=None, t_grid=None, sigma_nodes: int = 33,
                     annulus: SupportAnnulus = None, constants=None,
                     enforce: bool = True) -> CheckReport:
    """Certify the calibrated pointwise lower bound on the parabolic bracket.

    Sweeps the support annulus intersected with |x| <= R, times in t_grid
    and signed xi over xi_grid, and reports

        min  {a~, b~} / [ s^2 (alpha/R^2) (xi^2 + 4 alpha^2/R^2)^{2s-1} ]

    together with the worst point and the dominance ladder of the
    positivity argument: each cross term (the two pieces of phi_tx b_xi,
    the psi'' part of phi_tt, and the transport term) must stay below a
    tenth of the base bracket, and the total must retain half of it.

    constants overrides the frozen (c_hyp, c_min) pair.  enforce=False
    skips the admissibility gate so falsification configs can record where
    positivity breaks; the gate failures still land in the report.
    """
    t_start = time.perf_counter()
    _require_sweep_params(p, "positivity sweep needs")
    if constants is None:
        c_hyp, c_min = positivity_constants(p.s, w.m_ratio(p.m))
    else:
        c_hyp, c_min = float(constants[0]), float(constants[1])

    gate_ok = True
    gate_msg = ""
    try:
        require_admissible_weight(w, p, c_hyp)
    except AdmissibilityError as err:
        if enforce:
            raise
        gate_ok = False
        gate_msg = str(err)

    if annulus is None:
        annulus = SupportAnnulus(w)
    if xi_grid is None:
        xi_grid = default_xi_grid(w)
    if t_grid is None:
        t_grid = np.linspace(0.0, 2.0, 21)
    xi_mag = np.asarray(xi_grid, dtype=float)
    xi = np.concatenate([-xi_mag[::-1], xi_mag])

    s, m = p.s, p.m
    env_unit = s * s * (w.alpha / w.R ** 2)
    four_a2 = 4.0 * w.alpha ** 2 / w.R ** 2
    envelope = env_unit * (xi * xi + four_a2) ** (2.0 * s - 1.0)

    ratio_min = math.inf
    witness = None
    margins = {"mixed_odd": math.inf, "mixed_even": math.inf,
               "curvature_psi2": math.inf, "transport": math.inf,
               "half_base": math.inf}
    singular_count = 0
    nonfinite_count = 0

    for t in np.asarray(t_grid, dtype=float):
        psi_val = float(w.psi_at(t))
        ptx = float(w.phi_tx(t))
        d1 = float(np.asarray(w.psi_d1(t), dtype=float))
        d2 = float(np.asarray(w.psi_d2(t), dtype=float))
        for lo, hi in _sigma_branches(psi_val, annulus.inner, annulus.outer):
            sigma = np.linspace(lo, hi, sigma_nodes)[:, None]
            px = 2.0 * (w.alpha / w.R) * sigma
            xr = xi[None, :]
            core = _symbol_core(xr, px, m, s)
            rho2, scale = core.rho2, core.grad_scale
            base = _bracket_ab(core, w.phi_xx)
            _, b_xi = _symbol_xi_grad(core)
            # proof split of phi_tx b_xi into its odd (sin) and even (cos)
            # pieces, matching the two cross terms the ladder hides.
            with np.errstate(divide="ignore", invalid="ignore"):
                odd = ptx * scale * xr * (xr * xr + m * m + px * px) * core.sin_s
                even = -ptx * scale * px * (xr * xr + px * px - m * m) * core.cos_s
            curv_psi1 = 2.0 * w.alpha * d1 * d1
            curv_psi2 = 2.0 * w.alpha * sigma * d2 + 0.0 * xr
            mixed = ptx * b_xi
            total = base + 2.0 * mixed + curv_psi1 + curv_psi2

            local = xr * xr + m * m + px * px
            sing = rho2 <= (SINGULAR_FLOOR * local) ** 2
            bad = ~np.isfinite(total)
            singular_count += int(np.sum(sing))
            nonfinite_count += int(np.sum(bad & ~sing))
            ok = ~(sing | bad)
            if not np.any(ok):
                continue

            ratio = np.where(ok, total / envelope[None, :], math.inf)
            idx = np.unravel_index(np.argmin(ratio), ratio.shape)
            if ratio[idx] < ratio_min:
                ratio_min = float(ratio[idx])
                sig = float(sigma[idx[0], 0])
                witness = {"t": float(t), "x": w.R * (sig - psi_val),
                           "sigma": sig, "xi": float(xi[idx[1]]),
                           "ratio": ratio_min}
            env = envelope[None, :]
            tenth = base / 10.0
            for key, term in (("mixed_odd", odd), ("mixed_even", even),
                              ("curvature_psi2", curv_psi2),
                              ("transport", mixed)):
                margin = np.where(ok, (tenth - np.abs(term)) / env, math.inf)
                margins[key] = min(margins[key], float(np.min(margin)))
            margin = np.where(ok, (total - 0.5 * base) / env, math.inf)
            margins["half_base"] = min(margins["half_base"], float(np.min(margin)))

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
              "xi_nodes": int(xi_mag.size), "t_nodes": int(len(np.atleast_1d(t_grid))),
              "sigma_nodes": sigma_nodes, "enforce": enforce}
    return finish_report("symbols.positivity_sweep", inputs, measured,
                         0.0, violation, witness, t_start)


# ---------------------------------------------------------------------------
# derivative bounds for the Garding hypothesis


def _fd_stencil(order: int):
    """Offsets and weights of the minimal centered stencil for d^order,
    second-order accurate; odd orders use half-integer offsets."""
    k = np.arange(order + 1)
    weights = (-1.0) ** k * np.array([math.comb(order, int(j)) for j in k])
    offsets = 0.5 * order - k
    return offsets, weights


def _bracket_at_offset(w: QuadraticWeight, p: OperatorParams, sig, ts,
                       xis):
    """Parabolic bracket {a~, b~} at annulus offset sigma = x/R + psi(t),
    time t and frequency xi, vectorized: the base bracket, the mixed and
    transport terms 2 phi_tx b_xi, and the curvature phi_tt."""
    core = _symbol_core(xis, (2.0 * w.alpha / w.R) * sig, p.m, p.s)
    base = _bracket_ab(core, w.phi_xx)
    _, b_xi = _symbol_xi_grad(core)
    d1 = np.asarray(w.psi_d1(ts), dtype=float)
    d2 = np.asarray(w.psi_d2(ts), dtype=float)
    curv = 2.0 * w.alpha * d1 * d1 + 2.0 * w.alpha * sig * d2
    return base + 2.0 * w.phi_tx(ts) * b_xi + curv


def garding_hypothesis_check(w: QuadraticWeight, p: OperatorParams, *,
                             t_grid=None, constants=None, step: float = 0.04,
                             probe_order_8: bool = False) -> CheckReport:
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
    probe_order_8 also measures order 8 and records its ratio to the
    order-7 maximum (the envelope decays with each order, so the ratio
    should stay near or below one).
    """
    t_start = time.perf_counter()
    _require_sweep_params(p, "derivative bounds need")
    if constants is None:
        c_ref = float(garding_constants(p.s, w.m_ratio(p.m))["C_ref"])
    else:
        c_ref = float(constants)

    if t_grid is None:
        t_grid = (0.25, 1.0, 2.0)
    s, m = p.s, p.m
    unit_xi = 2.0 * w.alpha / w.R
    h_t = step

    xi_mags = unit_xi * np.array([0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0])
    xi_vals = np.concatenate([-xi_mags[::-1], [0.0], xi_mags])
    pts_sig, pts_t, pts_xi = [], [], []
    for t in t_grid:
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

    max_order = 8 if probe_order_8 else 7
    order_max = {order: 0.0 for order in range(4, max_order + 1)}
    for i in range(0, max_order + 1):
        for j in range(0, max_order + 1 - i):
            for k in range(max(0, 4 - i - j), max_order + 1 - i - j):
                order = i + j + k
                off_i, wt_i = _fd_stencil(i)
                off_j, wt_j = _fd_stencil(j)
                off_k, wt_k = _fd_stencil(k)
                acc = np.zeros_like(pts_sig)
                for oi, wi in zip(off_i, wt_i):
                    for ok, wk in zip(off_k, wt_k):
                        sig_o = pts_sig + oi * h_loc / unit_xi
                        xi_o = pts_xi + ok * h_loc
                        if j == 0:
                            acc += (wi * wk) * _bracket_at_offset(
                                w, p, sig_o, pts_t, xi_o)
                            continue
                        # time stencil weights sum to zero, so accumulate
                        # differences against a reference slice: summands
                        # shrink from the bracket's magnitude to its actual
                        # variation, which keeps the quotient below out of
                        # roundoff (and makes steady profiles exactly zero)
                        vals = [_bracket_at_offset(w, p, sig_o,
                                                   pts_t + oj * h_t, xi_o)
                                for oj in off_j]
                        inner = np.zeros_like(acc)
                        for wj, slice_vals in zip(wt_j, vals):
                            inner += wj * (slice_vals - vals[0])
                        acc += (wi * wk) * inner
                deriv = acc / (h_loc ** (i + k) * h_t ** j)
                order_max[order] = max(order_max[order],
                                       float(np.max(np.abs(deriv))))

    grand = max(order_max[o] for o in range(4, 8))
    scale = s * s * w.alpha / w.R ** 2
    poly = (1.0 + w.psi_d1_sup + w.psi_d2_sup) ** 2
    bound = c_ref * (4.0 * w.alpha ** 2 / w.R ** 2) ** (2.0 * s - 3.0) * poly
    measured_norm = grand / scale
    violation = measured_norm / bound - 1.0
    measured = {"order_max": {str(o): v / scale for o, v in order_max.items()},
                "measured": measured_norm, "bound": bound, "C_ref": c_ref}
    if probe_order_8 and order_max[7] > 0.0:
        measured["order8_over_order7"] = order_max[8] / order_max[7]
    inputs = {"alpha": w.alpha, "R": w.R, "s": p.s, "m": p.m,
              "step": step, "points": int(pts_sig.size)}
    return finish_report("symbols.garding_hypothesis", inputs, measured,
                         0.0, violation, None, t_start)


# ---------------------------------------------------------------------------
# dense matrices


def spectral_operator_matrix(L: float, n: int, p: OperatorParams) -> np.ndarray:
    """Dense symmetric circulant of the multiplier (xi^2 + m^2)^s."""
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    sym = (xi * xi + p.m * p.m) ** p.s
    row = np.real(np.fft.ifft(sym))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return row[idx]


def conjugated_operator_matrix(w: QuadraticWeight, p: OperatorParams,
                               L: float, n: int, t: float = 0.0) -> np.ndarray:
    """Dense diag(e^phi) W diag(e^-phi) on the periodic box at time t.

    The caller keeps operands supported inside the annulus and |x| <= R;
    the matrix itself only needs max phi on the grid under the cap."""
    ph = _grid_exponent(w, L, n, t)
    W = spectral_operator_matrix(L, n, p)
    return np.exp(ph)[:, None] * W * np.exp(-ph)[None, :]


def matrix_parts(M: np.ndarray):
    """Symmetric and antisymmetric halves; they recompose to M exactly."""
    S = 0.5 * (M + M.T)
    return S, M - S


def s1_commutator_target(w: QuadraticWeight, p: OperatorParams,
                         L: float, n: int, t: float = 0.0) -> np.ndarray:
    """Closed-form commutator 4 phi_xx (-lap + phi_x^2) of the s = 1 split."""
    if p.s != 1.0:
        raise PreconditionError("the closed-form commutator needs s = 1")
    lap = spectral_operator_matrix(L, n, OperatorParams(1.0, 0.0))
    px = np.asarray(w.phi_x(t, grid_points(L, n)), dtype=float)
    return 4.0 * w.phi_xx * (lap + np.diag(px * px))


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
    return out / dt


def _grid_exponent(w: QuadraticWeight, L: float, n: int, t: float) -> np.ndarray:
    """phi(t, .) on the grid, refused past the e^phi cap."""
    ph = np.asarray(w.phi(t, grid_points(L, n)), dtype=float)
    top = float(np.max(ph))
    if top > PHI_CAP:
        raise OverflowGuardError(
            f"max phi on the grid is {top:.4g}, past the e^phi cap "
            f"{PHI_CAP:g}; shrink alpha or the box")
    return ph


def _conjugated_apply(vals: np.ndarray, L: float, n: int, w: QuadraticWeight,
                      p: OperatorParams, t: float) -> np.ndarray:
    """e^phi (-lap+m^2)^s (e^-phi vals) at a time slice."""
    ph = _grid_exponent(w, L, n, t)
    inner = apply_spectral(GridFunction(L, n, np.exp(-ph) * vals), p).values
    return np.exp(ph) * inner


def _order_applied_sq(vals: np.ndarray, L: float, n: int, m: float,
                      expo: float) -> float:
    """|| (xi^2+m^2)^{expo} f ||^2 over the box (expo = 0 is the identity)."""
    xi = frequencies(L, n)
    out = np.fft.irfft((xi * xi + m * m) ** expo * np.fft.rfft(vals), n)
    return float(np.sum(out * out) * (L / n))


def elliptic_test_family(w: QuadraticWeight, L: float, n: int, count: int,
                         rng, k_max: int = 12, margin: float = 0.25) -> list:
    """Random smooth operands supported in the annulus branch inside
    |x| <= R at t = 0 (elliptic weights have a constant profile)."""
    psi0 = float(w.psi_at(0.0))
    spans = _sigma_branches(psi0)
    if not spans:
        raise ConfigError("no reachable annulus inside |x| <= R")
    lo, hi = spans[0]
    window = _sigma_window(w, L, n, 0.0, lo + margin, hi - margin)
    out = []
    for _ in range(count):
        noise = band_limited_noise(L, n, k_max, rng, windowed=False)
        out.append(GridFunction(L, n, window * noise.values))
    return out


def _sigma_window(w: QuadraticWeight, L: float, n: int, t: float,
                  lo: float, hi: float) -> np.ndarray:
    """C^inf window in x equal to 1 well inside offsets [lo, hi]."""
    if not lo < hi:
        raise ConfigError("empty support window; widen the annulus margins")
    sig = w.offset(t, grid_points(L, n))
    rise = 0.2 * (hi - lo)
    return smooth_step((sig - lo) / rise) * smooth_step((hi - sig) / rise)


def parabolic_test_family(w: QuadraticWeight, L: float, n: int,
                          times, count: int, rng, k_max: int = 12,
                          margin: float = 0.25) -> list:
    """Random smooth operands supported in the moving annulus inside
    |x| <= R, compactly supported in the time window."""
    times = np.asarray(times, dtype=float)
    span = times[-1] - times[0]
    t_lo = times[0] + 0.1 * span
    t_hi = times[-1] - 0.1 * span
    rise = 0.15 * span
    bump = (smooth_step((times - t_lo) / rise)
            * smooth_step((t_hi - times) / rise))
    windows = []
    for t in times:
        psi_val = float(w.psi_at(t))
        spans = _sigma_branches(psi_val)
        if not spans:
            raise ConfigError(f"no reachable annulus at t={t:g}")
        lo, hi = spans[0]
        windows.append(_sigma_window(w, L, n, float(t), lo + margin, hi - margin))
    windows = np.array(windows)
    out = []
    for _ in range(count):
        noise = band_limited_noise(L, n, k_max, rng, windowed=False)
        out.append(SpaceTimeFunction(
            L, n, times, bump[:, None] * windows * noise.values[None, :]))
    return out


def _operand_terms(i: int, f, w: QuadraticWeight, p: OperatorParams,
                   mode: str, annulus: SupportAnnulus,
                   leak_tol: float) -> tuple:
    """(rhs, order-(s-1/2) norm, L^2 norm) of one operand, all squared.

    rhs is || e^phi (d_t +) (-lap+m^2)^s e^{-phi} f ||^2; the two norms are
    the left side's || (-lap+m^2)^{(2s-1)/2} f ||^2 and || f ||^2.  In
    parabolic mode each is integrated over the time window.  Raises when
    the operand has the wrong type or leaves its support.
    """
    s = p.s
    if mode == "elliptic":
        if not isinstance(f, GridFunction):
            raise ConfigError("elliptic operands must be GridFunction")
        leak = annulus.leak_fraction(f, 0.0)
        if leak > leak_tol:
            raise SupportError(
                f"operand {i} leaks mass fraction {leak:.3g} outside the annulus")
        out = _conjugated_apply(f.values, f.L, f.n, w, p, 0.0)
        return (float(np.sum(out * out) * f.h),
                _order_applied_sq(f.values, f.L, f.n, p.m, s - 0.5),
                float(np.sum(f.values ** 2) * f.h))
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
    if total > 0.0 and ends / total > leak_tol:
        raise SupportError(
            f"operand {i} is not compactly supported inside the time "
            "window (stencil margin of 4 slices)")
    h_x = f.L / f.n
    rhs = 0.0
    q_order = 0.0
    q_l2 = 0.0
    dtf = _time_derivative(f.values, dt)
    x = f.x
    for j, t in enumerate(f.times):
        leak = annulus.leak_fraction(f.slice(j), float(t))
        if leak > leak_tol:
            raise SupportError(
                f"operand {i} leaks mass fraction {leak:.3g} outside "
                f"the annulus at t={float(t):g}")
        row = (dtf[j] - np.asarray(w.phi_t(float(t), x), dtype=float) * f.values[j]
               + _conjugated_apply(f.values[j], f.L, f.n, w, p, float(t)))
        rhs += float(np.sum(row * row) * h_x) * dt
        q_order += _order_applied_sq(f.values[j], f.L, f.n, p.m, s - 0.5) * dt
        q_l2 += float(np.sum(f.values[j] ** 2) * h_x) * dt
    return rhs, q_order, q_l2


def carleman_quadratic_check(fs, w: QuadraticWeight, p: OperatorParams,
                             mode: str, *, constants=None,
                             leak_tol: float = 1e-12,
                             diagnostics: dict | None = None) -> CheckReport:
    """Grid-level verification of the weighted lower-bound inequality.

    For every operand f the check computes
      rhs = || e^phi (d_t +) (-lap+m^2)^s e^{-phi} f ||^2
      lhs = c1 s^2 (alpha/R^2) || (-lap+m^2)^{(2s-1)/2} f ||^2
          + c2 s^2 (alpha^{4s-1}/R^{4s}) || f ||^2
    over the periodic box (and the time window in parabolic mode, where the
    time derivative is an eighth-order difference) and asserts lhs <= rhs.

    fs is a list of GridFunction (elliptic) or SpaceTimeFunction
    (parabolic, on a uniform grid of at least 9 times).  constants is a
    dict with c1, c2, C_weight; None loads the frozen table entry for
    (mode, s, m R/(2 alpha)).  Pass a dict as ``diagnostics`` to get back
    each operand's (rhs, order-(s-1/2) norm, L^2 norm) under
    ``"operand_terms"``.
    """
    t_start = time.perf_counter()
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
    if p.m > 2.0 * w.alpha / w.R * (1.0 + 1e-12):
        raise AdmissibilityError(
            f"mass {p.m:g} exceeds 2 alpha/R = {2.0 * w.alpha / w.R:g}")
    if w.alpha ** (4.0 * p.s - 1.0) < c_weight * w.R ** (4.0 * p.s) * (1.0 - 1e-12):
        raise AdmissibilityError(
            f"alpha^(4s-1) = {w.alpha ** (4.0 * p.s - 1.0):.6g} is under the "
            f"calibrated floor {c_weight * w.R ** (4.0 * p.s):.6g}")

    annulus = SupportAnnulus(w)
    s = p.s
    coef1 = c1 * s * s * (w.alpha / w.R ** 2)
    coef2 = c2 * s * s * (w.alpha ** (4.0 * s - 1.0) / w.R ** (4.0 * s))
    terms = [_operand_terms(i, f, w, p, mode, annulus, leak_tol)
             for i, f in enumerate(fs)]
    slacks = []
    worst = None
    for i, (rhs, q_order, q_l2) in enumerate(terms):
        lhs = coef1 * q_order + coef2 * q_l2
        scale = max(rhs, 1e-300)
        slack = (rhs - lhs) / scale
        slacks.append(slack)
        if worst is None or slack < worst["slack"]:
            worst = {"operand": i, "slack": slack, "lhs": lhs, "rhs": rhs}
    if diagnostics is not None:
        diagnostics["operand_terms"] = terms

    slacks = np.array(slacks) if slacks else np.array([0.0])
    violation = float(max(0.0, -np.min(slacks)))
    measured = {"min_slack": float(np.min(slacks)),
                "median_slack": float(np.median(slacks)),
                "count": int(len(fs)), "c1": c1, "c2": c2,
                "C_weight": c_weight}
    inputs = {"mode": mode, "alpha": w.alpha, "R": w.R, "s": p.s, "m": p.m}
    return finish_report("symbols.carleman_quadratic", inputs, measured,
                         0.0, violation, worst, t_start)


# ---------------------------------------------------------------------------
# conjugation versus fractional powers on SPD matrices


def appendix_conjugation_check(dim_matrix: int, s: float, phi_values,
                               m: float = 1.0,
                               tolerance: float = 1e-10) -> CheckReport:
    """Conjugation commutes with fractional powers, at matrix level.

    For the SPD second-difference matrix A = lap_h + m^2 I (unit spacing,
    zero boundary) and E = diag(e^phi), the check compares

        E A^s E^{-1}   against   (E A E^{-1})^s,

    the left side through the eigendecomposition of A, the right side
    through the similarity route: E A E^{-1} is diagonalized by the
    conjugated eigenbasis E V, with eigenvalues recovered from the
    explicitly formed product.  s in (-1, 1] excluding 0; negative powers
    run through the same factorization.  The check guards finite precision
    and conditioning, not the algebra.
    """
    t_start = time.perf_counter()
    nd = int(dim_matrix)
    if nd < 2:
        raise ConfigError("matrix dimension must be at least 2")
    if not (-1.0 < s <= 1.0) or s == 0.0:
        raise DomainError(f"power must lie in (-1, 1] without 0, got {s!r}")
    if not (m >= 0.0 and math.isfinite(m)):
        raise ConfigError(f"mass must be finite and >= 0, got {m!r}")
    phi = np.asarray(phi_values, dtype=float)
    if phi.shape != (nd,) or not np.all(np.isfinite(phi)):
        raise ConfigError(f"phi_values must be a finite vector of length {nd}")
    spread = float(np.max(phi) - np.min(phi))
    if math.exp(min(spread, PHI_CAP)) > CONDITION_CAP:
        raise ConditioningError(
            f"e^(max phi - min phi) = e^{spread:.3g} exceeds {CONDITION_CAP:g}")

    A = (np.diag(2.0 * np.ones(nd)) - np.diag(np.ones(nd - 1), 1)
         - np.diag(np.ones(nd - 1), -1) + m * m * np.eye(nd))
    vals, V = np.linalg.eigh(A)
    e_ph = np.exp(phi - np.min(phi))
    lhs = e_ph[:, None] * ((V * vals ** s) @ V.T) * (1.0 / e_ph)[None, :]

    B = e_ph[:, None] * A * (1.0 / e_ph)[None, :]
    EV = e_ph[:, None] * V
    EV_inv = V.T * (1.0 / e_ph)[None, :]
    recovered = np.diag(EV_inv @ B @ EV)
    rhs = (EV * recovered ** s) @ EV_inv

    diff = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    measured = {"rel_frobenius": diff, "spread": spread,
                "eig_recovery": float(np.max(np.abs(recovered - vals)
                                             / np.abs(vals)))}
    inputs = {"dim": nd, "s": float(s), "m": float(m)}
    witness = None if diff <= tolerance else {"worst": diff}
    return finish_report("symbols.appendix_conjugation", inputs, measured,
                         tolerance, diff, witness, t_start)


# ---------------------------------------------------------------------------
# calibration (run offline; results frozen in data/symbol_calibration.json)


def calibrate_positivity(s: float, m_ratio: float, *, R: float = 1.0,
                         alphas=None, safety: float = 2.0,
                         operating_alphas=None) -> dict:
    """Scan the weight steepness downward to the first dominance failure
    and freeze the admissibility constant with a safety factor, plus a
    certified floor on the sweep ratio at the operating configs (by default
    the first admissible steepness and two doublings of it)."""
    if alphas is None:
        alphas = np.geomspace(0.5, 400.0, 40)
    profile = lambda a: QuadraticWeight.decaying(a, R)
    breaking = None
    for a in sorted(alphas):
        w = profile(float(a))
        p = OperatorParams(s, m_ratio * 2.0 * w.alpha / w.R)
        rep = positivity_sweep(w, p, constants=(0.0, 0.0), enforce=False)
        ok = (rep.measured["ratio_min"] > 0.0
              and min(rep.measured["margins"].values()) >= -_DOMINANCE_SLACK)
        if ok:
            breaking = float(a)
            break
    if breaking is None:
        raise CalibrationError("no alpha in the scan satisfied the ladder")
    w_floor = profile(breaking)
    c_hyp = safety * w_floor.slope(s) / w_floor.profile_norm()
    if operating_alphas is None:
        # admissibility with the safety factor starts at
        # safety^{1/(2s-1)} * alpha_floor; pad by 5% and double twice
        base = 1.05 * safety ** (1.0 / (2.0 * s - 1.0)) * breaking
        operating_alphas = (base, 2.0 * base, 4.0 * base)
    ratios = []
    for a in operating_alphas:
        w = profile(float(a))
        p = OperatorParams(s, m_ratio * 2.0 * w.alpha / w.R)
        rep = positivity_sweep(w, p, constants=(c_hyp, 0.0))
        ratios.append(rep.measured["ratio_min"])
    return {"s": float(s), "m_ratio": float(m_ratio),
            "c_hyp": float(c_hyp), "c_min": float(0.5 * min(ratios)),
            "alpha_floor": breaking, "profile": "decaying",
            "operating_ratio_min": float(min(ratios))}


def calibrate_garding(s: float, m_ratio: float, *, R: float = 1.0,
                      alphas=(40.0, 100.0, 250.0), safety: float = 2.0) -> dict:
    """Measure the derivative-bound constant over steady-profile operating
    configs and freeze it with a safety factor.  Steady profiles keep the
    profile-driven terms out, which is the regime where the envelope's
    alpha-scaling is exact; moving profiles are measured with an explicit
    constants override."""
    worst = 0.0
    for a in alphas:
        w = QuadraticWeight.constant(float(a), R, 3.0)
        p = OperatorParams(s, m_ratio * 2.0 * w.alpha / w.R)
        rep = garding_hypothesis_check(w, p, constants=1.0)
        worst = max(worst, rep.measured["measured"] / rep.measured["bound"])
    return {"s": float(s), "m_ratio": float(m_ratio),
            "C_ref": float(safety * worst), "profile": "constant"}


def calibrate_quadratic(mode: str, s: float, m_ratio: float, *,
                        R: float = 1.0, L: float = 8.0, n: int = 512,
                        count: int = 20, seed: int = 20260822,
                        nt: int = 48, t_span: float = 1.0) -> dict:
    """Pick the largest joint (c1, c2) leaving a factor-2 margin over the
    operand family, capped at 1.  The steepness floor C_weight = 1 is
    recorded with them; the measured headroom shows how far the inequality
    sits from binding."""
    c_weight = 1.0
    alpha = 2.0 * (c_weight * R ** (4.0 * s)) ** (1.0 / (4.0 * s - 1.0))
    m = m_ratio * 2.0 * alpha / R
    p = OperatorParams(s, m)
    rng = np.random.default_rng(seed)
    if mode == "elliptic":
        w = QuadraticWeight.constant(alpha, R, 3.0)
        fs = elliptic_test_family(w, L, n, count, rng)
    else:
        w = QuadraticWeight.decaying(alpha, R)
        times = np.linspace(0.0, t_span, nt)
        fs = parabolic_test_family(w, L, n, times, count, rng)
    coef1 = s * s * (alpha / R ** 2)
    coef2 = s * s * (alpha ** (4.0 * s - 1.0) / R ** (4.0 * s))
    # a probe with zero constants gathers every operand's terms in one pass
    diag = {}
    carleman_quadratic_check(
        fs, w, p, mode, constants={"c1": 0.0, "c2": 0.0, "C_weight": c_weight},
        diagnostics=diag)
    headroom = math.inf
    for rhs, q_order, q_l2 in diag["operand_terms"]:
        denom = coef1 * q_order + coef2 * q_l2
        if denom > 0.0:
            headroom = min(headroom, rhs / denom)
    c_joint = min(1.0, 0.5 * headroom)
    return {"mode": mode, "s": float(s), "m_ratio": float(m_ratio),
            "C_weight": c_weight, "c1": float(c_joint), "c2": float(c_joint),
            "headroom": float(headroom),
            "corpus": {"R": R, "L": L, "n": n, "count": count, "seed": seed,
                       "alpha": alpha, "nt": nt if mode == "parabolic" else None}}
