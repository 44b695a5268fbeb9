"""The fractional relativistic operator (-lap + m^2)^s on the periodic grid.

Three equivalent realizations are provided and cross-checked:

* ``apply_spectral``: multiply by (|xi|^2 + m^2)^s in Fourier space.  This
  is the reference path, exact for band-limited periodic data.
* ``apply_singular_integral``: the principal-value integral against the
  Macdonald kernel.  The PV is realized by pairing y <-> 2x - y; each
  kernel cell weight is the exact integral of the kernel over that cell,
  the innermost half-cell and the first few cells get Taylor corrections
  proportional to f'', and the kernel is truncated once its exponential
  tail is negligible.
* ``apply_subordination``: the heat-semigroup average
  (1/Gamma(-s)) int_0^inf (e^(t(lap - m^2)) f - f) t^(-1-s) dt
  on a log-uniform time grid, refined until the requested tolerance holds
  per Fourier mode.

The carre du champ H(f,g) = L(fg) - f Lg - g Lf is computed from the same
kernel cells, which keeps H(f,f) <= 0 exactly in the discretization.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ConfigError,
    DomainError,
    PreconditionError,
    QuadratureError,
)
from .grid import GridFunction, centered_d1, centered_d2
from .report import CheckReport, finish_report
from .special import (
    BesselEvalConfig,
    DEFAULT_BESSEL_CONFIG,
    frac_power_constant,
    gamma,
    macdonald_k,
)


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


@dataclass(frozen=True)
class SingularQuadConfig:
    """Controls of the singular-integral discretization.

    far_cutoff : kernel truncated at distance far_cutoff / m (>= 10, which
                 puts the dropped exponential tail below 5e-5).
    near_cells : number of cells next to the singularity that receive the
                 second-moment Taylor correction.
    gl_nodes   : Gauss-Legendre nodes per exact cell integral.
    """

    far_cutoff: float = 25.0
    near_cells: int = 16
    gl_nodes: int = 12

    def __post_init__(self):
        if self.far_cutoff < 10.0:
            raise ConfigError("far_cutoff must be at least 10")
        if self.near_cells < 1:
            raise ConfigError("near_cells must be at least 1")
        if self.gl_nodes < 4:
            raise ConfigError("gl_nodes must be at least 4")


@dataclass(frozen=True)
class SubordinationQuad:
    """Quadrature spec of the subordination time integral (log-uniform grid).

    rel_tol         : per-mode relative tolerance of the refinement.
    initial_spacing : starting log-time spacing, halved on each refinement.
    max_refinements : refinement budget before QuadratureError.
    max_nodes       : cap on the per-mode node count of one evaluation.
    """

    rel_tol: float = 1e-10
    initial_spacing: float = 0.2
    max_refinements: int = 6
    max_nodes: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-2):
            raise ConfigError("rel_tol must lie in (0, 1e-2)")
        if not (0.0 < self.initial_spacing <= 1.0):
            raise ConfigError("initial_spacing must lie in (0, 1]")
        if self.max_refinements < 1 or self.max_nodes < 1024:
            raise ConfigError("refinement budget too small")


DEFAULT_SINGULAR_CONFIG = SingularQuadConfig()
DEFAULT_SUBORDINATION_QUAD = SubordinationQuad()


def frequencies(L: float, n: int) -> np.ndarray:
    """Nonnegative physical frequencies 2 pi k / L of the rfft layout."""
    return 2.0 * math.pi * np.fft.rfftfreq(n, d=L / n)


def symbol(p: OperatorParams, xi: np.ndarray) -> np.ndarray:
    """The Fourier multiplier (|xi|^2 + m^2)^s."""
    return (xi * xi + p.m * p.m) ** p.s


def apply_spectral(f: GridFunction, p: OperatorParams) -> GridFunction:
    """Apply the operator through the discrete transform."""
    xi = frequencies(f.L, f.n)
    out = np.fft.irfft(symbol(p, xi) * np.fft.rfft(f.values), f.n)
    return f.with_values(out)


# ----------------------------------------------------------------------
# singular-integral path


def _kernel_radial(p: OperatorParams, z: np.ndarray,
                   bessel_cfg: BesselEvalConfig) -> np.ndarray:
    # |z|^(-nu) K_nu(m |z|) with nu = (1 + 2s)/2 in one dimension
    nu = 0.5 + p.s
    return z ** (-nu) * macdonald_k(nu, p.m * z, bessel_cfg)


_weights_cache: dict = {}


def _kernel_weights(p: OperatorParams, L: float, n: int,
                    quad: SingularQuadConfig,
                    bessel_cfg: BesselEvalConfig) -> dict:
    """Cell-integrated kernel weights, Taylor moments and the stencil
    transform, cached per (params, grid, config)."""
    key = (p.s, p.m, L, n, quad, bessel_cfg)
    hit = _weights_cache.get(key)
    if hit is not None:
        return hit

    h = L / n
    r_far = min(quad.far_cutoff / p.m, 0.5 * L)
    k_far = min(n // 2, int(math.floor(r_far / h)))
    if k_far < quad.near_cells + 2:
        raise PreconditionError(
            "grid too coarse for the kernel cutoff: "
            f"only {k_far} cells inside the truncation radius")

    nodes, gl_w = leggauss(quad.gl_nodes)
    k = np.arange(1, k_far + 1)
    centers = k * h
    # cell [kh - h/2, kh + h/2] mapped from [-1, 1]
    z = centers[:, None] + 0.5 * h * nodes[None, :]
    gvals = _kernel_radial(p, z.ravel(), bessel_cfg).reshape(z.shape)
    w = 0.5 * h * (gvals * gl_w[None, :]).sum(axis=1)
    # second-moment mismatch of the near cells
    j2 = 0.5 * h * (gvals * (z * z - centers[:, None] ** 2)
                    * gl_w[None, :]).sum(axis=1)
    j2_total = float(j2[: quad.near_cells].sum())

    # innermost half cell: int_0^(h/2) z^2 g(z) dz; the z^(1-2s) behaviour
    # is flattened by the substitution z = (h/2) u^(1/(2-2s)), u in [0, 1]
    beta = 1.0 / (2.0 - 2.0 * p.s)
    u = 0.5 * (nodes + 1.0)
    zin = 0.5 * h * u**beta
    gin = _kernel_radial(p, zin, bessel_cfg)
    jin = 0.5 * h * beta * 0.5 * float(
        (zin**2 * gin * u ** (beta - 1.0) * gl_w).sum())

    stencil = np.zeros(n)
    stencil[1 : k_far + 1] = w
    if 2 * k_far == n:
        # the antipodal cell is a single point; count it once
        stencil[n - k_far + 1 :] += w[-2::-1]
    else:
        stencil[n - k_far :] += w[::-1]
    w0 = float(stencil.sum())
    stencil_hat = np.fft.rfft(stencil)

    out = {
        "h": h,
        "w": w,
        "w0": w0,
        "stencil_hat": stencil_hat,
        "moment": jin + j2_total,
        "c_full": frac_power_constant(1, p.s) * p.m ** (0.5 + p.s),
    }
    _weights_cache[key] = out
    return out


def _require_singular_ok(p: OperatorParams) -> None:
    if not (0.0 < p.s < 1.0):
        raise PreconditionError("singular-integral path requires s in (0, 1)")
    if p.m <= 0.0:
        raise PreconditionError("singular-integral path requires m > 0")


def apply_singular_integral(f: GridFunction, p: OperatorParams,
                            quad: SingularQuadConfig = DEFAULT_SINGULAR_CONFIG,
                            bessel_cfg: BesselEvalConfig = DEFAULT_BESSEL_CONFIG,
                            ) -> GridFunction:
    """Apply the operator through its principal-value kernel integral."""
    _require_singular_ok(p)
    kw = _kernel_weights(p, f.L, f.n, quad, bessel_cfg)
    v = f.values
    conv = np.fft.irfft(kw["stencil_hat"] * np.fft.rfft(v), f.n)
    pv = kw["w0"] * v - conv - centered_d2(f) * kw["moment"]
    out = kw["c_full"] * pv + p.m ** (2.0 * p.s) * v
    return f.with_values(out)


def apply_singular_at(f: GridFunction, p: OperatorParams,
                      indices: np.ndarray,
                      quad: SingularQuadConfig = DEFAULT_SINGULAR_CONFIG,
                      bessel_cfg: BesselEvalConfig = DEFAULT_BESSEL_CONFIG,
                      ) -> np.ndarray:
    """Kernel application evaluated only at the given indices by direct
    summation.

    Matches ``apply_singular_integral`` up to rounding, but the sums touch
    only values within the kernel reach of each point.  That matters for
    data with huge dynamic range (a tapered growing exponential): the FFT
    route spreads roundoff from the largest values everywhere, while here
    remote magnitudes never enter.
    """
    _require_singular_ok(p)
    idx = np.asarray(indices, dtype=int)
    kw = _kernel_weights(p, f.L, f.n, quad, bessel_cfg)
    v = f.values
    w = kw["w"]
    vi = v[idx]
    acc = np.zeros(len(idx))
    for k in range(1, len(w) + 1):
        acc += w[k - 1] * (2.0 * vi - np.take(v, idx + k, mode="wrap")
                           - np.take(v, idx - k, mode="wrap"))
    d2 = (np.take(v, idx + 1, mode="wrap") - 2.0 * vi
          + np.take(v, idx - 1, mode="wrap")) / kw["h"] ** 2
    return kw["c_full"] * (acc - d2 * kw["moment"]) + p.m ** (2.0 * p.s) * vi


def carre_du_champ(f: GridFunction, g: GridFunction, p: OperatorParams,
                   quad: SingularQuadConfig = DEFAULT_SINGULAR_CONFIG,
                   bessel_cfg: BesselEvalConfig = DEFAULT_BESSEL_CONFIG,
                   ) -> GridFunction:
    """H(f, g) = L(fg) - f Lg - g Lf through the kernel cells.

    On the diagonal the quadratic form is minus a combination of squared
    cell differences and m^(2s) f^2, so H(f, f) stays nonpositive for
    resolved data (the nearest-cell difference dominates the small Taylor
    moment).
    """
    _require_singular_ok(p)
    if (f.L, f.n) != (g.L, g.n):
        raise PreconditionError("operands must share one grid")
    kw = _kernel_weights(p, f.L, f.n, quad, bessel_cfg)
    fv, gv = f.values, g.values
    conv_f = np.fft.irfft(kw["stencil_hat"] * np.fft.rfft(fv), f.n)
    conv_g = np.fft.irfft(kw["stencil_hat"] * np.fft.rfft(gv), f.n)
    conv_fg = np.fft.irfft(kw["stencil_hat"] * np.fft.rfft(fv * gv), f.n)
    pair = kw["w0"] * fv * gv - fv * conv_g - gv * conv_f + conv_fg
    pair += 2.0 * centered_d1(f) * centered_d1(g) * kw["moment"]
    out = -kw["c_full"] * pair - p.m ** (2.0 * p.s) * fv * gv
    return f.with_values(out)


# ----------------------------------------------------------------------
# subordination path


def subordination_multiplier(gam: np.ndarray, s: float,
                             t_quad: SubordinationQuad) -> np.ndarray:
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
    gamma_neg = gamma(-s)  # negative throughout (0, 1)
    scale = abs(gamma_neg) * g_lo**s

    # window: the small-t side contributes at most g_hi e^((1-s)u)/(1-s),
    # the large-t side e^(-s u)/s; both pushed below rel_tol * scale.
    tol = t_quad.rel_tol * scale
    u_lo = math.log(tol * (1.0 - s) / g_hi) / (1.0 - s)
    u_hi = -math.log(tol * s) / s
    if u_hi <= u_lo:
        u_hi = u_lo + 1.0

    gcol = gpos[:, None]

    def evaluate(du: float) -> np.ndarray:
        n_nodes = int(math.ceil((u_hi - u_lo) / du)) + 1
        if n_nodes > t_quad.max_nodes:
            raise QuadratureError(
                f"subordination window needs {n_nodes} nodes "
                f"(cap {t_quad.max_nodes}); s={s:g} is too extreme for "
                f"rel_tol={t_quad.rel_tol:g}")
        u = np.linspace(u_lo, u_hi, n_nodes)
        vals = np.expm1(-gcol * np.exp(u)[None, :]) * np.exp(-s * u)[None, :]
        total = vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1])
        return total * (u[1] - u[0])

    du = t_quad.initial_spacing
    prev = evaluate(du)
    for _ in range(t_quad.max_refinements):
        du *= 0.5
        cur = evaluate(du)
        if np.all(np.abs(cur - prev)
                  <= t_quad.rel_tol * np.maximum(np.abs(cur), scale)):
            out[pos] = cur / gamma_neg
            return out
        prev = cur
    raise QuadratureError(
        f"subordination quadrature stalled above rel_tol={t_quad.rel_tol:g} "
        f"after {t_quad.max_refinements} refinements")


def apply_subordination(f: GridFunction, p: OperatorParams,
                        t_quad: SubordinationQuad = DEFAULT_SUBORDINATION_QUAD,
                        ) -> GridFunction:
    """Apply the operator through the subordinated heat semigroup."""
    if not (0.0 < p.s < 1.0):
        raise PreconditionError("subordination requires s in (0, 1)")
    xi = frequencies(f.L, f.n)
    mult = subordination_multiplier(xi * xi + p.m * p.m, p.s, t_quad)
    out = np.fft.irfft(mult * np.fft.rfft(f.values), f.n)
    return f.with_values(out)


# ----------------------------------------------------------------------
# identity checks


_I0_ASY = (1.0, 0.125, 9.0 / 128.0, 75.0 / 1024.0, 11025.0 / 98304.0)


def _positive_series(first: np.ndarray, step) -> np.ndarray:
    # sum of a positive series from its first term, term_j = step(term_{j-1},
    # j) for j >= 2, stopped once the terms fall below 1e-17 of the total
    term = first
    total = np.array(first, copy=True)
    if total.size == 0:
        return total
    for j in range(2, 80):
        term = step(term, j)
        total += term
        if term.max() <= 1e-17 * max(float(total.max()), 1e-300):
            break
    return total


def _i0_minus_1(x: np.ndarray) -> np.ndarray:
    # I_0(x) - 1 by the ascending series without its leading 1; every term
    # is positive, so small arguments keep full relative precision.
    q = 0.25 * x * x
    return _positive_series(q, lambda term, j: term * q / (j * j))


def _scaled_i0_large(x: np.ndarray) -> np.ndarray:
    # exp(-x) I_0(x) for x > 30 by the asymptotic expansion.
    acc = np.zeros_like(x)
    for j, c in enumerate(_I0_ASY):
        acc += c / x**j
    return acc / np.sqrt(2.0 * math.pi * x)


def _sinhc_minus_1(x: np.ndarray) -> np.ndarray:
    # sinh(x)/x - 1, positive ascending series.
    q = x * x
    return _positive_series(
        q / 6.0, lambda term, j: term * q / ((2.0 * j) * (2.0 * j + 1.0)))


def _angular_excess(N: int, lam: float, r: np.ndarray) -> np.ndarray:
    """(integral of e^(lam r u.e) over the unit sphere, minus the sphere
    area) times e^(-r).  The small-argument cores subtract the constant
    inside a positive series, never across floats, so the r^2 vanishing
    at the origin survives in floating point."""
    x = lam * r
    out = np.empty_like(r)
    low = x < 30.0
    rl = r[low]
    if N == 1:
        sh = np.sinh(0.5 * x[low])
        out[low] = 4.0 * np.exp(-rl) * sh * sh
        if not np.all(low):
            rh = r[~low]
            out[~low] = (np.exp(-(1.0 - lam) * rh)
                         + np.exp(-(1.0 + lam) * rh) - 2.0 * np.exp(-rh))
    elif N == 2:
        out[low] = 2.0 * math.pi * np.exp(-rl) * _i0_minus_1(x[low])
        if not np.all(low):
            rh = r[~low]
            out[~low] = 2.0 * math.pi * (
                _scaled_i0_large(x[~low]) * np.exp(-(1.0 - lam) * rh)
                - np.exp(-rh))
    else:
        out[low] = 4.0 * math.pi * np.exp(-rl) * _sinhc_minus_1(x[low])
        if not np.all(low):
            rh = r[~low]
            out[~low] = 4.0 * math.pi * (
                (np.exp(-(1.0 - lam) * rh) - np.exp(-(1.0 + lam) * rh))
                / (2.0 * lam * rh) - np.exp(-rh))
    return out


def bessel_identity_check(lambda_abs: float, N: int, s: float,
                          bessel_cfg: BesselEvalConfig = DEFAULT_BESSEL_CONFIG,
                          tolerance: float = 1e-5) -> CheckReport:
    """Weighted kernel integral against its closed form.

    C(N,s) int (1 - e^(lambda.z)) |z|^(-(N+2s)/2) K_((N+2s)/2)(|z|) dz over
    R^N equals (1 - lambda^2)^s - 1 for |lambda| < 1, and -1 at
    |lambda| = 1 provided N - 2s < 1.
    """
    t0 = time.perf_counter()
    if not (0.0 <= lambda_abs <= 1.0):
        raise DomainError("lambda_abs must lie in [0, 1]")
    if N not in (1, 2, 3):
        raise DomainError("the radial reduction is implemented for N in {1,2,3}")
    if not (0.0 < s < 1.0):
        raise DomainError("s must lie in (0, 1)")
    at_edge = lambda_abs >= 1.0 - 1e-12
    if at_edge and not (N - 2.0 * s < 1.0):
        raise PreconditionError(
            f"|lambda| = 1 requires N - 2s < 1, got N={N}, s={s:g}")

    nu = 0.5 * (N + 2.0 * s)
    lam = lambda_abs
    # log-radius window: the integrand falls like r^(2-2s) toward r = 0
    # (the lower cap keeps the scaled Macdonald factor representable), and
    # at |lambda| = 1 like r^(-s) toward infinity in every dimension (the
    # sphere concentration supplies r^(-(N-1)/2), the kernel the rest)
    v_lo = -min(30.0 / (2.0 - 2.0 * s), 600.0 / nu)
    if at_edge:
        v_hi = (30.0 + math.log(1.0 / s)) / s
    else:
        v_hi = math.log((50.0 + nu) / (1.0 - lam))

    def integrand(v: np.ndarray) -> np.ndarray:
        r = np.exp(v)
        ktil = macdonald_k(nu, r, bessel_cfg, scaled=True)
        # minus sign: the identity integrand carries (1 - e^(lam.z))
        return -_angular_excess(N, lam, r) * ktil * r ** (N - nu)

    def integrate(du: float) -> float:
        n_nodes = int(math.ceil((v_hi - v_lo) / du)) + 1
        v = np.linspace(v_lo, v_hi, n_nodes)
        vals = np.empty_like(v)
        for i in range(0, n_nodes, 1024):
            vals[i : i + 1024] = integrand(v[i : i + 1024])
        return float((vals.sum() - 0.5 * (vals[0] + vals[-1]))
                     * (v[1] - v[0]))

    total = integrate(0.02)
    total_fine = integrate(0.01)
    quad_drift = abs(total_fine - total)

    lhs = frac_power_constant(N, s) * total_fine
    rhs = -1.0 if at_edge else (1.0 - lam * lam) ** s - 1.0
    violation = abs(lhs - rhs)
    return finish_report(
        name="operator.bessel_identity",
        inputs={"lambda_abs": lambda_abs, "N": N, "s": s},
        measured={"lhs": lhs, "rhs": rhs, "quad_drift": quad_drift},
        tolerance=tolerance,
        violation=violation,
        witness={"lhs": lhs, "rhs": rhs},
        t_start=t0,
    )


def eigenfunction_residual(lam: float, p: OperatorParams,
                           window: GridFunction,
                           quad: SingularQuadConfig = DEFAULT_SINGULAR_CONFIG,
                           bessel_cfg: BesselEvalConfig = DEFAULT_BESSEL_CONFIG,
                           tolerance: float = 1e-3) -> CheckReport:
    """Residual of L e^(lambda x) = (m^2 - lambda^2)^s e^(lambda x).

    The exponential is tapered by ``window`` (flat near the origin, zero at
    the seam) and the kernel realization is compared on the core
    |x| <= L/16, where the taper is invisible to the truncated kernel.
    """
    t0 = time.perf_counter()
    if not abs(lam) < p.m:
        raise PreconditionError(
            f"need |lambda| < m for a true eigenfunction, "
            f"got lambda={lam:g}, m={p.m:g}")
    _require_singular_ok(p)
    x = window.x
    f = window.with_values(window.values * np.exp(lam * x))
    core = np.nonzero(np.abs(x) <= window.L / 16.0)[0]
    applied = apply_singular_at(f, p, core, quad, bessel_cfg)
    mu = (p.m * p.m - lam * lam) ** p.s
    target = mu * np.exp(lam * x[core])
    rel = np.abs(applied - target) / np.max(np.abs(target))
    worst = int(np.argmax(rel))
    return finish_report(
        name="operator.eigenfunction_residual",
        inputs={"lambda": lam, "s": p.s, "m": p.m,
                "L": window.L, "n": window.n},
        measured={"max_rel_residual": float(rel.max()), "eigenvalue": mu},
        tolerance=tolerance,
        violation=float(rel.max()),
        witness={"x": float(x[core][worst]),
                 "applied": float(applied[worst]),
                 "target": float(target[worst])},
        t_start=t0,
    )
