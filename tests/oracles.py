"""Oracles and checks that only the tests call.

The package holds what ``fracrel run`` and ``fracrel calibrate`` execute.
This module holds the rest: second routes the tests compare the package
against (the frozen calibration tables parsed straight from the packaged
file, direct kernel sums, the kernel-cell carre du champ, the transform
quadratic form, the normalization constant C(N, s) in R^N, the heat
kernel, its closed form at s = 1/2 and its contour-shifted weighted form,
the energy identity one time at a time, the symbols at one phase-space
point (SymbolPoint, the elliptic bracket {a, b} with its singular flag and
degenerate limits), finite-difference brackets (the parabolic one in x, t,
xi and tau), per-state tilted integrals and the weighted energies of a
stored trajectory, the potential flow stepped into one stored trajectory
and integrated from it, the slice-by-slice quadratic Carleman operand
terms and the per-operand headroom, the whole-matrix refined trapezoid of
the Macdonald and subordination quadratures, the positivity sweep block
by block with a_xi beside b_xi, the subordination multiplier with expm1
on every node, the whole ledger behind a linear Carleman report, and that
report for one draw stepped as a group of one) and five checks that no
suite runs.  The checks keep their report names.
"""
from __future__ import annotations

import json
import math
from importlib import resources
from typing import NamedTuple

import numpy as np

from fracrel.errors import (ConfigError, DomainError, PreconditionError,
                            QuadratureError, SupportError)
from fracrel.grid import (GridFunction, SpaceTimeFunction,
                          band_limited_noise, grid_points,
                          require_seam_decay, smooth_window)
from fracrel.heat import (CHUNK_ROWS, PotentialField, TiltedSeries,
                          _tilted_energy, tilted_integrals)
from fracrel.linear_carleman import (_DDOT_TOLERANCE, LinearWeight,
                                     _admissible_constants, _ledger,
                                     _production, _production_rate,
                                     _require_energy_split,
                                     _uniform_spacing, carleman_linear_check,
                                     ledger_series, tilted_series)
from fracrel.operator import (OperatorParams, _kernel_weights,
                              _require_singular_ok, apply_spectral,
                              frequencies, symbol)
from fracrel.report import CheckReport, finish_report
from fracrel import heat, operator as op, special
from fracrel.special import _kv_quadrature, macdonald_k
from fracrel.symbols import (_SUPPORT_LEAK_TOL, ANNULUS_INNER,
                             ANNULUS_OUTER, SINGULAR_FLOOR,
                             QuadraticWeight, _bracket_ab, _fd_stencil,
                             _grid_exponent, _sigma_branches, _symbol_ab,
                             _symbol_core, _time_derivative,
                             carleman_quadratic_check, parabolic_bracket,
                             quadratic_corpus)

# ----------------------------------------------------------------------
# report


def calibration_tables() -> dict:
    """The frozen tables of the packaged data/calibration.json, parsed
    afresh on every call, apart from the package's once-per-process copy."""
    return json.loads(resources.files("fracrel").joinpath(
        "data", "calibration.json").read_text())


# ----------------------------------------------------------------------
# grid


def trapezoid(g: GridFunction) -> float:
    """Integral over the box; on a periodic grid the trapezoid rule is a
    plain Riemann sum."""
    return float(g.L / g.n * g.values.sum())


def fourier_mode(L: float, n: int, k: int, kind: str = "cos") -> GridFunction:
    """Single periodic mode cos/sin(2 pi k x / L)."""
    phase = 2.0 * math.pi * k * grid_points(L, n) / L
    if kind == "cos":
        return GridFunction(L, n, np.cos(phase))
    if kind == "sin":
        return GridFunction(L, n, np.sin(phase))
    raise DomainError(f"kind must be 'cos' or 'sin', got {kind!r}")


def windowed_exponential(L: float, n: int, lam: float) -> GridFunction:
    """exp(lam x) cut off smoothly: identically exp(lam x) on |x| <= L/8
    and zero beyond |x| >= L/4."""
    w = smooth_window(L, n, L / 8.0, L / 4.0)
    return w.with_values(w.values * np.exp(lam * w.x))


def windowed_noise(L: float, n: int, k_max: int,
                   rng: np.random.Generator) -> GridFunction:
    """band_limited_noise cut off smoothly: unchanged on |x| <= L/8 and
    zero beyond |x| >= L/4, so it decays at the seam."""
    raw = band_limited_noise(L, n, k_max, rng)
    return raw.with_values(
        raw.values * smooth_window(L, n, L / 8.0, L / 4.0).values)


def centered_d1(g: GridFunction) -> np.ndarray:
    """First derivative by periodic centered differences."""
    v = g.values
    return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * g.L / g.n)


# ----------------------------------------------------------------------
# operator


def cell_stencil(w: np.ndarray, n: int) -> np.ndarray:
    """The periodic kernel-cell stencil of ``w``: weight w[k - 1] at the
    offsets k and -k.  It is assigned, not added, so the antipodal offset
    n/2, which the cells reach when len(w) = n/2, carries its weight once."""
    stencil = np.zeros(n)
    k = np.arange(1, len(w) + 1)
    stencil[k] = stencil[-k] = w
    return stencil


def apply_singular_at(f: GridFunction, p: OperatorParams,
                      indices: np.ndarray) -> np.ndarray:
    """The kernel-cell operator at the given indices by direct summation.

    Matches ``apply_singular_integral`` up to rounding, but the sums touch
    only values within the kernel reach of each point, so data with huge
    dynamic range (a tapered growing exponential) keeps its small values:
    the FFT route spreads roundoff from the largest values everywhere.
    """
    _require_singular_ok(p)
    idx = np.asarray(indices, dtype=int)
    kw = _kernel_weights(p, f.L, f.n)
    stencil = cell_stencil(kw["w"], f.n)
    v = f.values
    vi = v[idx]
    acc = np.zeros(len(idx))
    for k in np.flatnonzero(stencil):
        acc += stencil[k] * (vi - np.take(v, idx + k, mode="wrap"))
    d2 = (np.take(v, idx + 1, mode="wrap") - 2.0 * vi
          + np.take(v, idx - 1, mode="wrap")) / (f.L / f.n) ** 2
    return kw["c_full"] * (acc - d2 * kw["moment"]) + p.m ** (2.0 * p.s) * vi


def carre_du_champ(f: GridFunction, g: GridFunction, p: OperatorParams
                   ) -> GridFunction:
    """H(f, g) = L(fg) - f Lg - g Lf through the kernel cells.

    On the diagonal the form is minus a combination of squared cell
    differences and m^(2s) f^2, so H(f, f) stays nonpositive for resolved
    data (the nearest-cell difference dominates the small Taylor moment).
    """
    _require_singular_ok(p)
    if (f.L, f.n) != (g.L, g.n):
        raise PreconditionError("operands must share one grid")
    kw = _kernel_weights(p, f.L, f.n)
    stencil = cell_stencil(kw["w"], f.n)
    stencil_hat = np.fft.rfft(stencil)
    fv, gv = f.values, g.values

    def conv(v):
        return np.fft.irfft(stencil_hat * np.fft.rfft(v), f.n)

    pair = stencil.sum() * fv * gv - fv * conv(gv) - gv * conv(fv) \
        + conv(fv * gv)
    pair += 2.0 * centered_d1(f) * centered_d1(g) * kw["moment"]
    return f.with_values(-kw["c_full"] * pair - p.m ** (2.0 * p.s) * fv * gv)


def refined_trapezoid_untiled(lo: float, hi: float, n: int, n_rows: int,
                              rel_tol: float, floor: float, max_nodes: int,
                              name: str, integrand) -> np.ndarray:
    """``special._refined_trapezoid`` with each level written as one whole
    (rows x nodes) matrix and row-summed there.

    The package writes and sums the same rows one tile at a time; each
    row's values and sum come from the same operations in the same order,
    so the two agree bit for bit.
    """
    h = (hi - lo) / (n - 1)
    prev = None
    while n <= max_nodes:
        x = np.linspace(lo, hi, n) if prev is None else lo + h * np.arange(
            1, n, 2)
        vals = np.empty((n_rows, x.size))
        integrand(x)(slice(0, n_rows), vals)
        if prev is None:
            prev = h * (0.5 * vals[:, 0] + vals[:, 1:-1].sum(axis=1)
                        + 0.5 * vals[:, -1])
        else:
            cur = 0.5 * prev + h * vals.sum(axis=1)
            if np.all(np.abs(cur - prev)
                      <= rel_tol * np.maximum(np.abs(cur), floor)):
                return cur
            prev = cur
        n, h = 2 * n - 1, 0.5 * h
    raise QuadratureError(
        f"{name} did not converge within {max_nodes} nodes")


def subordination_multiplier_dense(gam: np.ndarray, s: float) -> np.ndarray:
    """``operator.subordination_multiplier`` with multiply, expm1 and
    multiply run on every node, on the same refined-trapezoid driver.

    The package fills the saturated tail, where expm1 is exactly -1, with
    -e^(-s u) instead; the two agree bit for bit.
    """
    if not (0.0 < s < 1.0):
        raise PreconditionError("subordination requires s in (0, 1)")
    gam = np.asarray(gam, dtype=float)
    out = np.zeros_like(gam)
    pos = gam > 0.0
    if not np.any(pos):
        return out
    gpos = gam[pos]
    g_lo, g_hi = float(gpos.min()), float(gpos.max())
    gamma_neg = math.gamma(-s)
    scale = abs(gamma_neg) * g_lo**s
    tol = op.SUBORDINATION_REL_TOL * scale
    u_lo = math.log(tol * (1.0 - s) / g_hi) / (1.0 - s)
    u_hi = -math.log(tol * s) / s
    if u_hi <= u_lo:
        u_hi = u_lo + 1.0
    neg_gcol = -gpos[:, None]

    def integrand(u: np.ndarray):
        eu, esu = np.exp(u), np.exp(-s * u)

        def write(rows: slice, v: np.ndarray) -> None:
            np.multiply(neg_gcol[rows], eu, out=v)
            np.expm1(v, out=v)
            v *= esu
        return write

    n = int(math.ceil((u_hi - u_lo) / op.SUBORDINATION_INITIAL_SPACING)) + 1
    out[pos] = special._refined_trapezoid(
        u_lo, u_hi, n, gpos.size, op.SUBORDINATION_REL_TOL, scale,
        op.SUBORDINATION_MAX_NODES, f"subordination quadrature for s={s:g}",
        integrand) / gamma_neg
    return out


def frac_power_constant_nd(N: int, s: float) -> float:
    """Normalization constant of the singular-integral representation in
    R^N.

    C(N, s) = -2^(1 + s - N/2) / (pi^(N/2) * Gamma(-s)), positive for
    s in (0, 1).  At N = 1 it is special.frac_power_constant(s) bit for
    bit: the package spells the same operations with N/2 = 0.5.
    """
    if int(N) != N or N < 1:
        raise DomainError(f"dimension must be a positive integer, got {N!r}")
    if not (0.0 < s < 1.0):
        raise DomainError(f"power must lie in (0, 1), got s={s:g}")
    return -(2.0 ** (1.0 + s - N / 2.0)) / (math.pi ** (N / 2.0)
                                             * math.gamma(-s))


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


def _angular_excess(N: int, lam: float, r: np.ndarray) -> np.ndarray:
    """(integral of e^(lam r u.e) over the unit sphere, minus the sphere
    area) times e^(-r).  Below lam r = 30 the constant is subtracted inside
    a positive series (I_0 - 1, sinh(x)/x - 1), never across floats, so the
    r^2 vanishing at the origin survives in floating point; above, I_0
    comes from its asymptotic expansion."""
    x = lam * r
    out = np.empty_like(r)
    low = x < 30.0
    rl, xl, rh = r[low], x[low], r[~low]
    if N == 1:
        sh = np.sinh(0.5 * xl)
        out[low] = 4.0 * np.exp(-rl) * sh * sh
        out[~low] = (np.exp(-(1.0 - lam) * rh) + np.exp(-(1.0 + lam) * rh)
                     - 2.0 * np.exp(-rh))
    elif N == 2:
        q = 0.25 * xl * xl
        out[low] = 2.0 * math.pi * np.exp(-rl) * _positive_series(
            q, lambda term, j: term * q / (j * j))
        xh = x[~low]
        scaled_i0 = sum(c / xh ** j for j, c in enumerate(_I0_ASY)) \
            / np.sqrt(2.0 * math.pi * xh)
        out[~low] = 2.0 * math.pi * (scaled_i0 * np.exp(-(1.0 - lam) * rh)
                                     - np.exp(-rh))
    else:
        q = xl * xl
        out[low] = 4.0 * math.pi * np.exp(-rl) * _positive_series(
            q / 6.0, lambda term, j: term * q / ((2.0 * j) * (2.0 * j + 1.0)))
        out[~low] = 4.0 * math.pi * (
            (np.exp(-(1.0 - lam) * rh) - np.exp(-(1.0 + lam) * rh))
            / (2.0 * lam * rh) - np.exp(-rh))
    return out


def bessel_identity_check(lambda_abs: float, N: int, s: float,
                          tolerance: float = 1e-5) -> CheckReport:
    """Weighted kernel integral against its closed form.

    C(N,s) int (1 - e^(lambda.z)) |z|^(-(N+2s)/2) K_((N+2s)/2)(|z|) dz over
    R^N equals (1 - lambda^2)^s - 1 for |lambda| < 1, and -1 at
    |lambda| = 1 provided N - 2s < 1.
    """
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

    def integrate(du: float) -> float:
        v = np.linspace(v_lo, v_hi, int(math.ceil((v_hi - v_lo) / du)) + 1)
        vals = np.empty_like(v)
        for i in range(0, v.size, 1024):
            r = np.exp(v[i : i + 1024])
            # minus sign: the identity integrand carries (1 - e^(lam.z))
            vals[i : i + 1024] = (-_angular_excess(N, lam, r)
                                  * _kv_quadrature(nu, r)
                                  * r ** (N - nu))
        return float((vals.sum() - 0.5 * (vals[0] + vals[-1]))
                     * (v[1] - v[0]))

    total_fine = integrate(0.01)
    lhs = frac_power_constant_nd(N, s) * total_fine
    rhs = -1.0 if at_edge else (1.0 - lam * lam) ** s - 1.0
    return finish_report(
        {"lambda_abs": lambda_abs, "N": N, "s": s},
        {"lhs": lhs, "rhs": rhs,
         "quad_drift": abs(total_fine - integrate(0.02))},
        tolerance, abs(lhs - rhs), {"lhs": lhs, "rhs": rhs})


def eigenfunction_residual(lam: float, p: OperatorParams,
                           window: GridFunction,
                           tolerance: float = 1e-3) -> CheckReport:
    """Residual of L e^(lambda x) = (m^2 - lambda^2)^s e^(lambda x).

    The exponential is tapered by ``window`` (flat near the origin, zero at
    the seam) and the kernel realization is compared on the core
    |x| <= L/16, where the taper is invisible to the truncated kernel.
    """
    if not abs(lam) < p.m:
        raise PreconditionError(
            f"need |lambda| < m for a true eigenfunction, "
            f"got lambda={lam:g}, m={p.m:g}")
    _require_singular_ok(p)
    x = window.x
    f = window.with_values(window.values * np.exp(lam * x))
    core = np.nonzero(np.abs(x) <= window.L / 16.0)[0]
    applied = apply_singular_at(f, p, core)
    mu = (p.m * p.m - lam * lam) ** p.s
    target = mu * np.exp(lam * x[core])
    rel = np.abs(applied - target) / np.max(np.abs(target))
    worst = int(np.argmax(rel))
    return finish_report(
        {"lambda": lam, "s": p.s, "m": p.m, "L": window.L, "n": window.n},
        {"max_rel_residual": float(rel.max()), "eigenvalue": mu},
        tolerance, float(rel.max()),
        {"x": float(x[core][worst]), "applied": float(applied[worst]),
         "target": float(target[worst])})


# ----------------------------------------------------------------------
# heat


def constant_potential(grid, c: float) -> PotentialField:
    """The potential V = c, sampled on ``grid``'s box."""
    return PotentialField(GridFunction(grid.L, grid.n, np.full(grid.n, c)))


def energy_identity_loop(u0: GridFunction, p: OperatorParams) -> dict:
    """The reference of heat.energy_identity_check: the same energy and
    dissipation series, formed one time at a time from the decayed modes,
    with its own Parseval sum; max_residual, initial_energy and the
    witness t, which the check must reproduce bit for bit."""
    T, steps = heat._ENERGY_T, heat._ENERGY_STEPS
    sig = symbol(p, frequencies(u0.L, u0.n))
    c0 = np.fft.rfft(u0.values)

    def quadratic(coeffs, weights=None):
        # trapezoid of u^2 via Parseval; interior rfft bins count twice
        mags = np.abs(coeffs) ** 2
        if weights is not None:
            mags = mags * weights
        total = 2.0 * mags.sum() - mags[0] - mags[-1]
        return float(total * u0.L / u0.n ** 2)

    times = np.linspace(0.0, T, steps + 1)
    energy = np.empty(steps + 1)
    dissipation = np.empty(steps + 1)
    for i, t in enumerate(times):
        ct = c0 * np.exp(-t * sig)
        energy[i] = quadratic(ct)
        dissipation[i] = quadratic(ct, weights=sig)
    cumulative = heat._cumulative_trapezoid(dissipation, T / steps)
    base = energy[0]
    if base == 0.0:
        residuals = np.zeros_like(times)
    else:
        residuals = np.abs(energy + 2.0 * cumulative - base) / base
    worst = int(np.argmax(residuals))
    return {"max_residual": float(residuals[worst]),
            "initial_energy": float(base), "t": float(times[worst])}


def state_at(traj: SpaceTimeFunction, i: int) -> GridFunction:
    """The state at ``traj.times[i]`` as a grid function."""
    return GridFunction(traj.L, traj.n, traj.values[i])


def collect(grid, chunks) -> SpaceTimeFunction:
    """Every state of a stream of (times, rows) chunks on ``grid``'s box,
    such as heat.evolve_with_potential's, as one stored trajectory."""
    times, rows = zip(*chunks)
    return SpaceTimeFunction(grid.L, grid.n, np.concatenate(times),
                             np.concatenate(rows))


def stored_chunks(traj: SpaceTimeFunction):
    """A stored trajectory as a stream of CHUNK_ROWS states at a time."""
    for a in range(0, traj.nt, CHUNK_ROWS):
        yield traj.times[a:a + CHUNK_ROWS], traj.values[a:a + CHUNK_ROWS]


def weighted_l2(traj: SpaceTimeFunction, lam: float,
                what: str = "weighted integrand") -> np.ndarray:
    """Integral of e^(lam x) u^2 at every state of a stored trajectory,
    each guarded against seam leakage, the first failure raised: the heat
    checks' weighted energies, the stored states one chunk."""
    return _tilted_energy(traj, [(traj.times, traj.values)], lam, what)


def stored_evolution(u0: GridFunction, V: PotentialField, T: float,
                     p: OperatorParams, dt: float) -> SpaceTimeFunction:
    """The reference of heat.evolve_with_potential: the same step grid and
    closed-form trapezoid Duhamel step, written state by state into one
    stored (nt, n) array, which the stream must reproduce bit for bit."""
    times, steps = [0.0], []
    t = 0.0
    while t < T - 1e-12 * max(1.0, T):
        steps.append(min(dt, T - t))
        t += steps[-1]
        times.append(t)
    values = np.empty((len(times), u0.n))
    values[0] = u0.values
    sig = symbol(p, frequencies(u0.L, u0.n))
    v = V.sample(u0)

    def factors(step):
        half_v = 0.5 * step * v
        return np.exp(-step * sig), half_v, 1.0 - half_v

    full = factors(dt)
    for k, step in enumerate(steps):
        decay, half_v, divisor = full if step == dt else factors(step)
        u = values[k]
        base = np.fft.irfft(np.fft.rfft(u + half_v * u) * decay, u0.n)
        values[k + 1] = base / divisor
    return SpaceTimeFunction(u0.L, u0.n, np.array(times), values)


def half_kernel_explicit(t: float, x, m: float, N: int = 1):
    """Closed-form heat kernel of the half power (s = 1/2) with mass m.

    K_t(x) = 2^((1-N)/2) pi^(-(N+1)/2) m^((N+1)/2) t
             (|x|^2 + t^2)^(-(N+1)/4) K_((N+1)/2)(m sqrt(|x|^2 + t^2))

    normalized so that its integral over R^N equals exp(-m t).

    ``x`` is interpreted as the radial coordinate |x| (vectorized).
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"time must be positive and finite, got t={t:g}")
    if not 0.0 < m < math.inf:
        raise DomainError(f"mass must be positive and finite, got m={m:g}")
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


def fundamental_solution(t: float, p: OperatorParams, L: float = 40.0,
                         n: int = 4096) -> GridFunction:
    """Heat kernel on the periodic box, centered at x = 0.

    Frequency sampling of exp(-t (xi^2 + m^2)^s) is exactly the
    periodization of the whole-line kernel, so away from the seam the values
    match the free-space kernel to the truncation level of the symbol.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got t={t:g}")
    vals = np.fft.irfft(np.exp(-t * symbol(p, frequencies(L, n))), n) * (n / L)
    return GridFunction(L, n, np.roll(vals, n // 2))


def shifted_kernel(t: float, mu: float, p: OperatorParams, L: float,
                   n: int) -> GridFunction:
    """Samples of e^(mu x) K_t(x) from the analytically continued symbol.

    Shifting the frequency contour to xi + i mu keeps the weighted kernel
    within double-precision dynamic range; multiplying FFT output of the
    plain kernel by e^(mu x) instead would amplify the transform's rounding
    floor by e^(|mu| L / 2) and drown the tail.  Needs |mu| < m so the
    shifted symbol stays on the principal branch.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got t={t:g}")
    if abs(mu) >= p.m:
        raise PreconditionError(
            f"contour shift needs |mu| < m, got mu={mu:g}, m={p.m:g}")
    xi = frequencies(L, n)
    mult = np.exp(-t * (xi * xi - mu * mu + p.m ** 2 + 2j * mu * xi) ** p.s)
    vals = np.fft.irfft(mult, n) * (n / L)
    return GridFunction(L, n, np.roll(vals, n // 2))


def weighted_integral(g: GridFunction, values: np.ndarray, lam: float,
                      what: str = "weighted integrand") -> float:
    """Integral of e^(lam x) values over g's box, guarded against seam
    leakage at lam != 0: the one-state oracle of heat.tilted_integrals."""
    integrand = g.with_values(np.exp(lam * g.x) * values)
    if lam != 0.0:
        require_seam_decay(integrand.values, what=what)
    return trapezoid(integrand)


def weighted_l1_kernel(t: float, lam: float, p: OperatorParams,
                       tolerance: float = 1e-3) -> CheckReport:
    """Check the closed form for the e^(lam x)-weighted mass of the kernel.

    The bulk of the weight rides on the shifted contour; only a residual
    factor e^(delta x) with delta ~ 48/L is applied in physical space, so
    the quadrature probes the kernel's tail profile without amplifying the
    transform's rounding floor past the tolerance.  The weighted tail
    decays like e^((|lam|-m)|x|) times a power, hence the long box of
    L = 160; at |lam| = m the identity is only approached and the report
    says by how much.
    """
    L, n = 160.0, 16384
    if abs(lam) > p.m:
        raise PreconditionError(
            f"need |lam| <= m for the weighted identity, got lam={lam:g}, "
            f"m={p.m:g}")
    delta = math.copysign(min(abs(lam), 48.0 / L), lam)
    # the truncated symbol rings at the grid Nyquist with amplitude
    # ~ exp(-t sigma_N); the residual weight blows that up by exp(|delta| L/2),
    # so refine until the product underflows past the tolerance
    sigma_need = (abs(delta) * 0.5 * L + 45.0) / t
    if math.log(sigma_need) / p.s > 60.0:
        raise PreconditionError(
            f"time t={t:g} too short to resolve the weighted kernel")
    xi_need = math.sqrt(max(0.0, sigma_need ** (1.0 / p.s) - p.m * p.m))
    while math.pi * n / L < xi_need and n < (1 << 21):
        n *= 2
    if math.pi * n / L < xi_need:
        raise PreconditionError(
            f"time t={t:g} too short to resolve the weighted kernel on a "
            f"box of length {L:g}")
    kernel = shifted_kernel(t, lam - delta, p, L, n)
    value = trapezoid(kernel.with_values(np.exp(delta * kernel.x)
                                         * kernel.values))
    expected = math.exp(-t * (p.m ** 2 - lam ** 2) ** p.s)
    rel = abs(value - expected) / expected
    return finish_report(
        {"t": t, "lam": lam, "s": p.s, "m": p.m, "L": L, "n": n},
        {"value": value, "expected": expected, "rel_error": rel},
        tolerance, rel, None)


def backward_uc_check(traj: SpaceTimeFunction, V: PotentialField | None,
                      p: OperatorParams) -> CheckReport:
    """Backward uniqueness surrogate: log-convexity of ||u(t)||^2.

    ``traj`` is the flow evolved under V (None for the free flow); the
    check reads ||u||^2 at the states nearest to 21 evenly spaced times.
    With V = 0 the bound is asserted to 1e-8, the free flow's roundoff.
    With a bounded potential the check is report-only: it measures the
    smallest kappa with H(t) <= kappa H(0)^(1-theta) H(T)^theta.
    """
    tolerance = 1e-8
    free = V is None or V.sup_norm == 0.0
    picks = [int(np.argmin(np.abs(traj.times - t)))
             for t in np.linspace(traj.times[0], traj.times[-1], 21)]
    times = traj.times[picks]
    energies = (traj.L / traj.n) * np.sum(traj.values[picks] ** 2, axis=1)
    if energies[0] == 0.0 or energies[-1] == 0.0:
        return finish_report({"s": p.s, "m": p.m, "free": free},
                             {"kappa": 0.0}, tolerance, 0.0, None)
    theta = (times - times[0]) / (times[-1] - times[0])
    kappa = float(np.max(energies / (energies[0] ** (1.0 - theta)
                                     * energies[-1] ** theta)))
    return finish_report(
        {"s": p.s, "m": p.m, "free": free,
         "sup_norm": 0.0 if free else V.sup_norm},
        {"kappa": kappa}, tolerance,
        max(0.0, kappa - 1.0) if free else 0.0, {"kappa": kappa})


# ----------------------------------------------------------------------
# linear Carleman


def spectral_carre(f: GridFunction, p: OperatorParams) -> GridFunction:
    """The quadratic form H(f, f) = L^s(f^2) - 2 f L^s f, transform route;
    pointwise nonpositive up to roundoff."""
    sym = symbol(p, frequencies(f.L, f.n))
    fv = f.values
    lf = np.fft.irfft(sym * np.fft.rfft(fv), f.n)
    lf2 = np.fft.irfft(sym * np.fft.rfft(fv * fv), f.n)
    return f.with_values(lf2 - 2.0 * fv * lf)


def stored_series(traj: SpaceTimeFunction, lam: float, p: OperatorParams,
                  V: PotentialField | None,
                  with_energy: bool = True) -> TiltedSeries:
    """linear_carleman.tilted_series of a stored trajectory, read chunk by
    chunk; the first failure of the pass is raised."""
    [flow] = tilted_series(traj, stored_chunks(traj), lam, p,
                           None if V is None else V.sample(traj),
                           with_energy)
    return flow.checked()


def mass_series(grid, chunks, lam: float) -> TiltedSeries:
    """The tilted mass alone along a stream of states: the one term that
    linear_carleman.tent_identity_check reads, without the production."""
    [flow] = tilted_integrals(grid, chunks, lam, ("tilted mass integrand",),
                              lambda rows: [rows ** 2])
    return flow._replace(terms={"mass": flow.terms["tilted mass integrand"]})


def functional_H(traj: SpaceTimeFunction, w: LinearWeight) -> np.ndarray:
    """Tilted mass int exp(drift t + lam x) u^2 dx at every state."""
    return np.exp(w.drift * traj.times) * weighted_l2(
        traj, w.lam, what="tilted mass integrand")


def functional_D(traj: SpaceTimeFunction, w: LinearWeight,
                 p: OperatorParams) -> np.ndarray:
    """Production int (w_t - L^s w) u^2 dx + int w H(u, u) dx at every
    state, through the weight's eigen relation drift H - 2 int w u L^s u."""
    flow = stored_series(traj, w.lam, p, None, with_energy=False)
    return _production(flow.weighted(w.drift), w.drift)


def ddot_lower_bound_check(traj: SpaceTimeFunction, w: LinearWeight,
                           p: OperatorParams,
                           V: PotentialField | None = None,
                           constants=None) -> CheckReport:
    """Centered-difference audit of the production rate's lower bound.

    Along a uniformly spaced trajectory (spacing at most 2.5e-3 so the
    differences resolve dD/dt) the check asserts, at every interior time,

        dD/dt >= 3/4 (mu - A)^2 H - C1 int w F^2 + 2 int w (u_t)^2
                 + (A + m^(2s)) int w H_s(u, u) - int w H_2s(u, u)

    up to a slack of _DDOT_TOLERANCE times the sum of the terms' magnitudes,
    with mu = (m^2 - lam^2)^s, A the drift, and u_t read off the evolution
    equation.  The energy split behind the bound needs s <= 1/2; the drift
    must pass the calibrated admissibility gate.
    """
    if constants is None:
        c1, c2 = _admissible_constants(p, w)
    else:
        _require_energy_split(p)
        c1, c2 = (float(c) for c in constants)
        w.require_admissible(p, c2)
    dt = _uniform_spacing(traj.times, "production trajectory")
    if dt > 2.5e-3:
        raise PreconditionError(
            f"need spacing <= 2.5e-3 for the centered differences, "
            f"got {dt:g}")
    flow = stored_series(traj, w.lam, p, V)
    ddot, rhs, scale, slacks, _ = _production_rate(flow, w, p, c1)
    k = int(np.argmin(slacks))
    return finish_report(
        {"s": p.s, "m": p.m, "lam": w.lam, "drift": w.drift, "C1": c1,
         "C2": c2, "dt": dt, "states": traj.nt,
         "sup_v": 0.0 if V is None else V.sup_norm},
        {"worst_slack": float(slacks[k]),
         "median_slack": float(np.median(slacks))},
        _DDOT_TOLERANCE, -float(slacks[k]),
        {"t": float(flow.times[k + 1]), "ddot": float(ddot[k]),
         "rhs": float(rhs[k]), "scale": float(scale[k])})


def ledger_check(u0: GridFunction, V: PotentialField, w: LinearWeight,
                 p: OperatorParams) -> CheckReport:
    """linear_carleman.carleman_linear_check of the one draw (u0, V), its
    flow stepped as a group of one (linear_carleman.ledger_series)."""
    [flow] = ledger_series([(u0, V)], w, p)
    return carleman_linear_check(flow, V, w, p)


def ledger_terms(u0: GridFunction, V: PotentialField, w: LinearWeight,
                 p: OperatorParams) -> dict:
    """The whole ledger linear_carleman.carleman_linear_check fills for
    (u0, V), at the frozen constants and on the same flow, which its report
    carries only when it fails; ``inputs`` is left empty."""
    c1, c2 = _admissible_constants(p, w)
    [flow] = ledger_series([(u0, V)], w, p)
    flow = flow.checked()
    return _ledger(flow.times, flow.weighted(w.drift), w, p, c1, c2, {})


# ----------------------------------------------------------------------
# symbols

# Relative step of the finite-difference brackets here.  At the 1e-5 of
# symbols.parabolic_bracket_fd, roundoff lifts the pieces that
# parabolic_bracket_terms_fd differences to 6.6e-5 of the bracket.
_FD_BRACKET_STEP = 1e-4


class SymbolPoint(NamedTuple):
    """Phase-space point (x, t; xi, tau).  Elliptic evaluations fix
    t = tau = 0.  tau, the dual of t, cancels out of every bracket (the
    time direction enters the antisymmetric symbol as tau + b with unit
    coefficient) and is carried only so parabolic points are stated fully.
    """

    x: float
    xi: float
    t: float = 0.0
    tau: float = 0.0


def _core_at(pt: SymbolPoint, w: QuadraticWeight, p: OperatorParams):
    return _symbol_core(pt.xi, float(w.phi_x(pt.t, pt.x)), p.m, p.s)


def bracket_singular(pt: SymbolPoint, w: QuadraticWeight,
                     p: OperatorParams) -> bool:
    """True when the modulus of w vanishes to within SINGULAR_FLOOR times
    the local scale.

    There the bracket carries rho^{2(s-1)} and blows up for s < 1; sweeps
    report such points instead of folding them into minima.
    """
    if p.s >= 1.0:
        return False
    return bool(_core_at(pt, w, p).singular())


def poisson_bracket(pt: SymbolPoint, w: QuadraticWeight,
                    p: OperatorParams) -> float:
    """Closed-form {a, b} = 4 s^2 phi_xx rho^{2(s-1)} (xi^2 + phi_x^2).

    At a singular point (rho = 0, s < 1) the closed form diverges; the
    limit value +inf is returned and bracket_singular carries the flag.
    At a fully degenerate point (xi = 0, m = 0, phi_x = 0) it reads
    0 * inf; there rho = xi^2 + phi_x^2, so the bracket is
    4 s^2 phi_xx (xi^2 + phi_x^2)^(2s-1) nearby, and its limit is
    returned: 0 for s > 1/2, phi_xx at s = 1/2, +inf below.
    """
    val = float(_bracket_ab(_core_at(pt, w, p), w.phi_xx))
    if math.isnan(val):
        if p.s == 0.5:
            return w.phi_xx
        return 0.0 if p.s > 0.5 else math.inf
    return val


def poisson_bracket_fd(pt: SymbolPoint, w: QuadraticWeight,
                       p: OperatorParams) -> float:
    """Centered-difference a_xi b_x - a_x b_xi for cross-checking the
    closed form; steps are relative to the local coordinate scales."""
    h_x = _FD_BRACKET_STEP * w.R
    h_xi = _FD_BRACKET_STEP * max(abs(pt.xi), 2.0 * w.alpha / w.R)

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


def parabolic_bracket_terms_fd(pt: SymbolPoint, w: QuadraticWeight,
                               p: OperatorParams) -> dict:
    """Finite-difference versions of the pieces of {a~, b~} along
    independent paths: symbol differences in (x, xi, t) and weight
    differences in t.  Keys: base {a, b}, mixed phi_tx b_xi, curvature
    phi_tt, transport -a_t.  The t difference is centred, or one-sided
    from t (second order, on t, t + h, t + 2h) where t - h < 0 would take
    psi out of [0, 3]."""
    h_t = _FD_BRACKET_STEP
    h_xi = _FD_BRACKET_STEP * max(abs(pt.xi), 2.0 * w.alpha / w.R)

    def ab_at(t, xi):
        return _symbol_ab(_symbol_core(xi, float(w.phi_x(t, pt.x)), p.m, p.s))

    b_xi = (ab_at(pt.t, pt.xi + h_xi)[1]
            - ab_at(pt.t, pt.xi - h_xi)[1]) / (2.0 * h_xi)

    def d_t(f):
        if pt.t < h_t:
            return (4.0 * float(f(pt.t + h_t)) - 3.0 * float(f(pt.t))
                    - float(f(pt.t + 2.0 * h_t))) / (2.0 * h_t)
        return (float(f(pt.t + h_t)) - float(f(pt.t - h_t))) / (2.0 * h_t)

    return {"base": poisson_bracket_fd(pt, w, p),
            "mixed": d_t(lambda t: w.phi_x(t, pt.x)) * float(b_xi),
            "curvature": d_t(lambda t: w.phi_t(t, pt.x)),
            "transport": -d_t(lambda t: ab_at(t, pt.xi)[0])}


def tilde_symbols(w: QuadraticWeight, p: OperatorParams) -> tuple:
    """a~ = a - phi_t and b~ = tau + b, each a function of (x, t, xi, tau):
    the parabolic symbols whose bracket parabolic_bracket evaluates."""
    def ab(x, t, xi):
        a, b = _symbol_ab(_symbol_core(xi, float(w.phi_x(t, x)), p.m, p.s))
        return float(a), float(b)

    def a_tilde(x, t, xi, tau):
        return ab(x, t, xi)[0] - float(w.phi_t(t, x))

    def b_tilde(x, t, xi, tau):
        return tau + ab(x, t, xi)[1]

    return a_tilde, b_tilde


def phase_bracket_fd(pt: SymbolPoint, w: QuadraticWeight, f, g) -> float:
    """{f, g} = f_xi g_x - f_x g_xi + f_tau g_t - f_t g_tau at pt, every
    first derivative of f(x, t, xi, tau) and g(x, t, xi, tau) a finite
    difference.  Steps are relative to the local coordinate scales; the t
    difference is centred, or one-sided from t (second order, on t, t + h,
    t + 2h) where t - h < 0 would take psi out of [0, 3]."""
    steps = (_FD_BRACKET_STEP * w.R, _FD_BRACKET_STEP,
             _FD_BRACKET_STEP * max(abs(pt.xi), 2.0 * w.alpha / w.R),
             _FD_BRACKET_STEP * max(abs(pt.tau), 1.0))
    at = np.array([pt.x, pt.t, pt.xi, pt.tau])

    def d(fn, k):
        def shifted(by):
            q = at.copy()
            q[k] += by * steps[k]
            return fn(*q)
        if k == 1 and pt.t < steps[1]:
            return (4.0 * shifted(1.0) - 3.0 * shifted(0.0)
                    - shifted(2.0)) / (2.0 * steps[1])
        return (shifted(1.0) - shifted(-1.0)) / (2.0 * steps[k])

    f_x, f_t, f_xi, f_tau = (d(f, k) for k in range(4))
    g_x, g_t, g_xi, g_tau = (d(g, k) for k in range(4))
    return f_xi * g_x - f_x * g_xi + f_tau * g_t - f_t * g_tau


def leak_fraction(w: QuadraticWeight, g: GridFunction, t: float) -> float:
    """Squared-mass fraction of g sitting outside the support annulus at
    time t."""
    w2 = g.values ** 2
    total = float(np.sum(w2))
    if total == 0.0:
        return 0.0
    off = np.abs(w.offset(t, g.x))
    inside = (off >= ANNULUS_INNER) & (off <= ANNULUS_OUTER)
    return float(np.sum(w2[~inside]) / total)


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


def operand_terms(i: int, f, w: QuadraticWeight, p: OperatorParams,
                  mode: str) -> tuple:
    """Slice-by-slice oracle of the quadratic check's operand terms:
    (rhs, order-(s-1/2) norm, L^2 norm) of one operand, all squared, with
    the support and e^phi-cap guards run at each slice in turn."""
    s = p.s
    if mode == "elliptic":
        if not isinstance(f, GridFunction):
            raise ConfigError("elliptic operands must be GridFunction")
        leak = leak_fraction(w, f, 0.0)
        if leak > _SUPPORT_LEAK_TOL:
            raise SupportError(
                f"operand {i} leaks mass fraction {leak:.3g} outside the annulus")
        out = _conjugated_apply(f.values, f.L, f.n, w, p, 0.0)
        return (float(np.sum(out * out) * (f.L / f.n)),
                _order_applied_sq(f.values, f.L, f.n, p.m, s - 0.5),
                float(np.sum(f.values ** 2) * (f.L / f.n)))
    if not isinstance(f, SpaceTimeFunction):
        raise ConfigError("parabolic operands must be SpaceTimeFunction")
    if f.nt < 9:
        raise ConfigError("need at least 9 time samples")
    steps = np.diff(f.times)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ConfigError("time grid must be uniform")
    total = float(np.sum(f.values ** 2))
    ends = float(np.sum(f.values[:4] ** 2) + np.sum(f.values[-4:] ** 2))
    if total > 0.0 and ends / total > _SUPPORT_LEAK_TOL:
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
        leak = leak_fraction(w, state_at(f, j), float(t))
        if leak > _SUPPORT_LEAK_TOL:
            raise SupportError(
                f"operand {i} leaks mass fraction {leak:.3g} outside "
                f"the annulus at t={float(t):g}")
        row = (dtf[j] - np.asarray(w.phi_t(float(t), x), dtype=float) * f.values[j]
               + _conjugated_apply(f.values[j], f.L, f.n, w, p, float(t)))
        rhs += float(np.sum(row * row) * h_x) * dt
        q_order += _order_applied_sq(f.values[j], f.L, f.n, p.m, s - 0.5) * dt
        q_l2 += float(np.sum(f.values[j] ** 2) * h_x) * dt
    return rhs, q_order, q_l2


def quadratic_headroom(fs, w: QuadraticWeight, p: OperatorParams,
                       mode: str) -> float:
    """Per-operand oracle of the quadratic check's headroom: each operand
    checked on its own at c1 = c2 = 1, where its report's witness holds its
    right side and the inequality's left side, and the least rhs / lhs over
    the operands with a nonzero left side (inf if none has one)."""
    unit = {"c1": 1.0, "c2": 1.0, "C_weight": 1.0}
    ratios = []
    for f in fs:
        worst = carleman_quadratic_check([f], w, p, mode,
                                         constants=unit).witness
        if worst["lhs"] > 0.0:
            ratios.append(worst["rhs"] / worst["lhs"])
    return min(ratios, default=math.inf)


def refined_quadratic_constant(entry: dict, n: int) -> float:
    """The joint constant min(1, headroom / 2) of a frozen quadratic table
    entry, measured again on its corpus at n nodes, with the headroom the
    quadratic check reports there."""
    corpus = entry["corpus"]
    w, p, fs = quadratic_corpus(entry["mode"], entry["s"], entry["m_ratio"],
                                corpus["alpha"], corpus["count"],
                                np.random.default_rng(corpus["seed"]), n)
    rep = carleman_quadratic_check(fs, w, p, entry["mode"], constants={
        "c1": 1.0, "c2": 1.0, "C_weight": entry["C_weight"]})
    return min(1.0, 0.5 * float(rep.measured["headroom"]))


def garding_order_max(w: QuadraticWeight, p: OperatorParams,
                      probe_order_8: bool) -> dict:
    """Per-triple oracle of the Garding check's normalized ``order_max``:
    the same sample points and derivative assembly, with the bracket
    evaluated by one call per offset triple on first use."""
    m = p.m
    unit_xi = 2.0 * w.alpha / w.R
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
    lam = np.sqrt(pts_xi ** 2 + unit_xi ** 2 * np.maximum(pts_sig ** 2, 1.0)
                  + m * m)
    h_loc = step * lam

    stencil_vals = {}

    def bracket(oi, oj, ok):
        key = (oi, oj, ok)
        if key not in stencil_vals:
            stencil_vals[key] = parabolic_bracket(
                w, p, pts_sig + oi * h_loc / unit_xi, pts_t + oj * h_t,
                pts_xi + ok * h_loc).total
        return stencil_vals[key]

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
                        if j == 0:
                            acc += (wi * wk) * bracket(oi, 0.0, ok)
                            continue
                        vals = [bracket(oi, oj, ok) for oj in off_j]
                        inner = np.zeros_like(acc)
                        for wj, slice_vals in zip(wt_j, vals):
                            inner += wj * (slice_vals - vals[0])
                        acc += (wi * wk) * inner
                deriv = acc / (h_loc ** (i + k) * h_t ** j)
                order_max[order] = max(order_max[order],
                                       float(np.max(np.abs(deriv))))
    scale = p.s * p.s * w.alpha / w.R ** 2
    return {str(o): v / scale for o, v in order_max.items()}


# ----------------------------------------------------------------------
# the positivity sweep block by block, as written before the core shared
# its sums: each term spelled out in full, a_xi computed alongside b_xi,
# and np.where copies for the minima


def _symbol_xi_grad(c):
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


class _LoopCore(NamedTuple):
    xi: np.ndarray
    px: np.ndarray
    m: float
    s: float
    rho2: np.ndarray
    cos_s: np.ndarray
    sin_s: np.ndarray
    grad_scale: np.ndarray


def _loop_core(xi, px, m: float, s: float) -> _LoopCore:
    xi = np.asarray(xi, dtype=float)
    px = np.asarray(px, dtype=float)
    u = xi * xi + m * m - px * px
    v = 2.0 * xi * px
    rho2 = u * u + v * v
    theta = np.arctan2(v, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_scale = 2.0 * s * rho2 ** (0.5 * s - 1.0)
    return _LoopCore(xi, px, m, s, rho2, np.cos(s * theta),
                     np.sin(s * theta), grad_scale)


def _loop_margin(tenth, term, env):
    """One dominance margin of a block, before masking."""
    return (tenth - np.abs(term)) / env


def loop_sweep_minima(w: QuadraticWeight, p: OperatorParams,
                      xi_mag: np.ndarray, t_grid: np.ndarray,
                      sigma_nodes: int) -> tuple:
    """Block-by-block oracle of the positivity sweep: the final (ratio_min,
    witness, margins, singular_count, nonfinite_count) over the half grid
    -xi_mag, each block's bracket, pieces and masks written out term by
    term."""
    xi = -xi_mag[::-1]
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
    for t in t_grid:
        psi_val = float(w.psi_at(t))
        ptx = float(w.phi_tx(t))
        for lo, hi in _sigma_branches(psi_val):
            sigma = np.linspace(lo, hi, sigma_nodes)[:, None]
            xr = xi[None, :]
            px = (2.0 * w.alpha / w.R) * sigma
            core = _loop_core(xr, px, m, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                base = (4.0 * s * s * w.phi_xx * core.rho2 ** (s - 1.0)
                        * (xr * xr + px * px))
            mixed = w.phi_tx(t) * _symbol_xi_grad(core)[1]
            d1 = np.asarray(w.psi_d1(t), dtype=float)
            curv_psi1 = 2.0 * w.alpha * d1 * d1
            curv_psi2 = (2.0 * w.alpha * sigma
                         * np.asarray(w.psi_d2(t), dtype=float))
            total = base + 2.0 * mixed + curv_psi1 + curv_psi2
            with np.errstate(divide="ignore", invalid="ignore"):
                odd = (ptx * core.grad_scale * xr
                       * (xr * xr + m * m + px * px) * core.sin_s)
                even = (-ptx * core.grad_scale * px
                        * (xr * xr + px * px - m * m) * core.cos_s)

            local = xr * xr + m * m + px * px
            sing = core.rho2 <= (SINGULAR_FLOOR * local) ** 2
            bad = ~np.isfinite(total)
            singular_count += 2 * int(np.sum(sing))
            nonfinite_count += 2 * int(np.sum(bad & ~sing))
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
                margin = np.where(ok, _loop_margin(tenth, term, env),
                                  math.inf)
                margins[key] = min(margins[key], float(np.min(margin)))
            margin = np.where(ok, (total - 0.5 * base) / env, math.inf)
            margins["half_base"] = min(margins["half_base"],
                                       float(np.min(margin)))
    return ratio_min, witness, margins, singular_count, nonfinite_count
