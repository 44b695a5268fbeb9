"""Heat flow driven by the fractional relativistic operator.

The free semigroup is applied exactly per Fourier mode, so the fundamental
solution, mass decay and the semigroup property hold to rounding on the grid.
A bounded time-independent potential V enters through the Duhamel form,
whose per-step equation is pointwise diagonal and is solved in closed form;
V is sampled once per trajectory.  Both flows come back as one
SpaceTimeFunction (times and an (nt, n) array of states).  Weighted
energies refuse to integrate data that has not decayed at the periodic
seam, since the exponential weight would turn wrap-around into silent
garbage.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, PreconditionError
from .grid import (GridFunction, SpaceTimeFunction, require_seam_decay,
                   trapezoid)
from .operator import OperatorParams, frequencies, symbol
from .report import CheckReport, finish_report


@dataclass(frozen=True)
class PotentialField:
    """Bounded time-independent potential V(x) with a declared sup-norm.

    The declared bound is part of the contract: sampling raises if the
    evaluator exceeds it, because the solver's step-size bound and the
    existence theory both key off sup_norm.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    sup_norm: float

    def __post_init__(self):
        if not (math.isfinite(self.sup_norm) and self.sup_norm >= 0.0):
            raise ConfigError(
                f"sup_norm must be finite and >= 0, got {self.sup_norm!r}")

    def sample(self, grid: GridFunction | SpaceTimeFunction) -> np.ndarray:
        """V at the nodes of the grid's box, checked against sup_norm."""
        x = grid.x
        vals = np.broadcast_to(
            np.asarray(self.evaluator(x), dtype=float), x.shape).copy()
        if not np.all(np.isfinite(vals)):
            raise DomainError("potential evaluated to non-finite values")
        peak = float(np.max(np.abs(vals))) if vals.size else 0.0
        if peak > self.sup_norm * (1.0 + 1e-12) + 1e-300:
            raise DomainError(
                f"potential reaches {peak:.6g} but declared sup_norm is "
                f"{self.sup_norm:.6g}")
        return vals

    @staticmethod
    def constant(c: float) -> "PotentialField":
        return PotentialField(lambda x: np.full_like(x, float(c)), abs(c))

    @staticmethod
    def static(profile: GridFunction) -> "PotentialField":
        """Time-independent potential given by its samples on a grid.

        Sampling returns those samples, so it is only defined on the
        profile's own grid; any other grid raises PreconditionError.
        """
        xs, vs = profile.x, profile.values.copy()

        def evaluate(x):
            if not np.array_equal(x, xs):
                raise PreconditionError(
                    f"static potential lives on its profile's grid "
                    f"(L={profile.L:g}, n={profile.n}); resample the "
                    f"profile onto the query grid first")
            return vs

        return PotentialField(evaluate, float(np.max(np.abs(vs))))


def fundamental_solution(t: float, p: OperatorParams, L: float = 40.0,
                         n: int = 4096) -> GridFunction:
    """Heat kernel on the periodic box, centered at x = 0.

    Frequency sampling of exp(-t (xi^2 + m^2)^s) is exactly the
    periodization of the whole-line kernel, so away from the seam the values
    match the free-space kernel to the truncation level of the symbol.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got t={t:g}")
    mult = np.exp(-t * symbol(p, frequencies(L, n)))
    vals = np.fft.irfft(mult, n) * (n / L)
    return GridFunction(L, n, np.roll(vals, n // 2))


def evolve_free(u0: GridFunction, times, p: OperatorParams
                ) -> SpaceTimeFunction:
    """The potential-free flow from u0 at the given times.

    One transform of u0 is decayed mode-wise by the exact factor
    exp(-t sigma) for each time; row i is the state at times[i].  Times
    must be finite and >= 0 (DomainError) and strictly increasing
    (ConfigError, from the trajectory type).
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise DomainError(f"times must be finite and >= 0, got {times!r}")
    spec = np.fft.rfft(u0.values)
    sig = symbol(p, frequencies(u0.L, u0.n))
    values = [np.fft.irfft(spec * np.exp(-t * sig), u0.n)
              for t in np.atleast_1d(times)]
    return SpaceTimeFunction(u0.L, u0.n, times, values)


def _mode_quadratic(coeffs: np.ndarray, L: float, n: int,
                    weights=None) -> float:
    # trapezoid of u^2 via Parseval; interior rfft bins count twice
    mags = np.abs(coeffs) ** 2
    if weights is not None:
        mags = mags * weights
    total = 2.0 * mags.sum() - mags[0] - mags[-1]
    return float(total * L / n ** 2)


def energy_identity_check(u0: GridFunction, p: OperatorParams, T: float = 1.0,
                          steps: int = 100,
                          tolerance: float = 1e-4) -> CheckReport:
    """Balance ||u(t)||^2 + 2 int_0^t ||op^(1/2) u||^2 against ||u0||^2.

    The time integral uses the trapezoid rule on the step grid, so the
    residual measures the discretization honestly instead of hiding it in
    an exact per-mode antiderivative.
    """
    t_start = time.perf_counter()
    if T <= 0.0 or steps < 1:
        raise DomainError("need T > 0 and steps >= 1")
    sig = symbol(p, frequencies(u0.L, u0.n))
    c0 = np.fft.rfft(u0.values)
    times = np.linspace(0.0, T, steps + 1)
    energy = np.empty(steps + 1)
    dissipation = np.empty(steps + 1)
    for i, t in enumerate(times):
        ct = c0 * np.exp(-t * sig)
        energy[i] = _mode_quadratic(ct, u0.L, u0.n)
        dissipation[i] = _mode_quadratic(ct, u0.L, u0.n, weights=sig)
    dt = T / steps
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (dissipation[1:] + dissipation[:-1]))])
    base = energy[0]
    if base == 0.0:
        residuals = np.zeros_like(times)
    else:
        residuals = np.abs(energy + 2.0 * cumulative - base) / base
    worst = int(np.argmax(residuals))
    return finish_report(
        name="heat.energy_identity",
        inputs={"s": p.s, "m": p.m, "L": u0.L, "n": u0.n, "T": T,
                "steps": steps},
        measured={"max_residual": float(residuals[worst]),
                  "initial_energy": base},
        tolerance=tolerance,
        violation=float(residuals[worst]),
        witness={"t": float(times[worst])},
        t_start=t_start,
    )


def weighted_integral(g: GridFunction, values: np.ndarray, lam: float,
                      what: str = "weighted integrand",
                      tilt: np.ndarray | None = None) -> float:
    """Integral of e^(lam x) values over g's box, guarded against seam
    leakage; ``tilt`` may carry e^(lam x) precomputed on g's grid.

    At lam = 0 the integrand is periodic and the guard is skipped; any
    nonzero weight jumps across the seam, so there the data must have died
    out first.
    """
    tilt = np.exp(lam * g.x) if tilt is None else tilt
    integrand = g.with_values(tilt * values)
    if lam != 0.0:
        require_seam_decay(integrand, what=what)
    return trapezoid(integrand)


def weighted_l2(traj: SpaceTimeFunction, lam: float,
                what: str = "weighted integrand") -> np.ndarray:
    """Integral of e^(lam x) u^2 at every state of ``traj``, each guarded
    against seam leakage."""
    tilt = np.exp(lam * traj.x)
    return np.array([weighted_integral(traj.slice(i), row ** 2, lam, what,
                                       tilt)
                     for i, row in enumerate(traj.values)])


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
    w = xi * xi - mu * mu + p.m ** 2 + 2j * mu * xi
    mult = np.exp(-t * w ** p.s)
    vals = np.fft.irfft(mult, n) * (n / L)
    return GridFunction(L, n, np.roll(vals, n // 2))


def weighted_l1_kernel(t: float, lam: float, p: OperatorParams,
                       L: float = 160.0, n: int = 16384,
                       tolerance: float = 1e-3) -> CheckReport:
    """Check the closed form for the e^(lam x)-weighted mass of the kernel.

    The bulk of the weight rides on the shifted contour; only a residual
    factor e^(delta x) with delta ~ 48/L is applied in physical space, so
    the quadrature genuinely probes the kernel's tail profile without the
    rounding floor of the transform being amplified past the tolerance.
    The weighted tail decays like e^((|lam|-m)|x|) times a power, hence the
    long default box; at |lam| = m the identity is only approached and the
    report says by how much.
    """
    t_start = time.perf_counter()
    if abs(lam) > p.m:
        raise PreconditionError(
            f"need |lam| <= m for the weighted identity, got lam={lam:g}, "
            f"m={p.m:g}")
    delta = math.copysign(min(abs(lam), 48.0 / L), lam)
    mu = lam - delta
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
    kernel = shifted_kernel(t, mu, p, L, n)
    value = trapezoid(kernel.with_values(np.exp(delta * kernel.x)
                                         * kernel.values))
    expected = math.exp(-t * (p.m ** 2 - lam ** 2) ** p.s)
    rel = abs(value - expected) / expected
    return finish_report(
        name="heat.weighted_l1_kernel",
        inputs={"t": t, "lam": lam, "s": p.s, "m": p.m, "L": L, "n": n},
        measured={"value": value, "expected": expected, "rel_error": rel},
        tolerance=tolerance,
        violation=rel,
        witness=None,
        t_start=t_start,
    )


def weighted_decay_check(u0: GridFunction, lam: float, p: OperatorParams,
                         tolerance: float = 1e-12) -> CheckReport:
    """Weighted energy never exceeds its predicted exponential envelope,
    sampled at 11 evenly spaced times on [0, 1]."""
    t_start = time.perf_counter()
    if abs(lam) > 2.0 * p.m:
        raise PreconditionError(
            f"need |lam| <= 2m, got lam={lam:g}, m={p.m:g}")
    times = np.linspace(0.0, 1.0, 11)
    rate = (p.m ** 2 - 0.25 * lam ** 2) ** p.s
    w_start = weighted_integral(u0, u0.values ** 2, lam,
                                "initial weighted energy")
    energies = weighted_l2(evolve_free(u0, times, p), lam, "weighted energy")
    worst_slack = math.inf
    worst_t = 0.0
    for t, w_t in zip(times, energies):
        slack = math.exp(-rate * t) * w_start - w_t
        if slack < worst_slack:
            worst_slack, worst_t = slack, float(t)
    violation = max(0.0, -worst_slack) / w_start if w_start > 0.0 else 0.0
    return finish_report(
        name="heat.weighted_decay",
        inputs={"lam": lam, "s": p.s, "m": p.m, "L": u0.L, "n": u0.n},
        measured={"min_slack": worst_slack, "initial_energy": w_start},
        tolerance=tolerance,
        violation=violation,
        witness={"t": worst_t},
        t_start=t_start,
    )


def log_convexity_check(u0: GridFunction, lam: float, p: OperatorParams,
                        tolerance: float = 1e-6) -> CheckReport:
    """H(t) = int e^(lam x) u^2 against the endpoint interpolation bound,
    sampled at 21 evenly spaced times on [0, 1]."""
    t_start = time.perf_counter()
    if abs(lam) > p.m:
        raise PreconditionError(
            f"need |lam| <= m for the weighted theory, got lam={lam:g}, "
            f"m={p.m:g}")
    times = np.linspace(0.0, 1.0, 21)
    values = weighted_l2(evolve_free(u0, times, p), lam, "weighted energy")
    h_first, h_last = values[0], values[-1]
    if h_first == 0.0 or h_last == 0.0:
        # zero data stays zero; nothing to bound
        return finish_report(
            name="heat.log_convexity",
            inputs={"lam": lam, "s": p.s, "m": p.m},
            measured={"max_ratio": 0.0},
            tolerance=tolerance, violation=0.0, witness=None,
            t_start=t_start)
    theta = (times - times[0]) / (times[-1] - times[0])
    bound = h_first ** (1.0 - theta) * h_last ** theta
    ratios = values / bound
    worst = int(np.argmax(ratios))
    violation = max(0.0, float(ratios[worst]) - 1.0)
    return finish_report(
        name="heat.log_convexity",
        inputs={"lam": lam, "s": p.s, "m": p.m, "L": u0.L, "n": u0.n,
                "times": [float(times[0]), float(times[-1]), len(times)]},
        measured={"max_ratio": float(ratios[worst])},
        tolerance=tolerance,
        violation=violation,
        witness={"t": float(times[worst]), "ratio": float(ratios[worst])},
        t_start=t_start,
    )


def evolve_with_potential(u0: GridFunction, V: PotentialField, T: float,
                          p: OperatorParams, dt: float = 1e-2
                          ) -> SpaceTimeFunction:
    """March the potential problem with the trapezoid Duhamel step.

    V is time-independent, so it is sampled once on u0's grid and the same
    samples serve both ends of every step.  Each step solves

        u_{k+1} = K_dt (u_k + (dt/2) V u_k) + (dt/2) V u_{k+1},

    which is pointwise diagonal in u_{k+1}, so it is solved exactly by one
    division; ||V|| dt < 1/2 keeps the divisor above 3/4.  Steps are dt
    except a final shorter one that lands on T.  Returns the trajectory at
    t = 0 and after every step.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    if T <= 0.0:
        raise DomainError(f"horizon must be positive, got T={T:g}")
    if V.sup_norm * dt >= 0.5:
        raise PreconditionError(
            f"need ||V|| * dt < 1/2 for the step, got {V.sup_norm * dt:g}")
    # the step grid first, so the states go straight into one array
    times, steps = [0.0], []
    t = 0.0
    while t < T - 1e-12 * max(1.0, T):
        steps.append(min(dt, T - t))
        t += steps[-1]
        times.append(t)
    values = np.empty((len(times), u0.n))
    values[0] = u0.values
    sig = symbol(p, frequencies(u0.L, u0.n))
    decay_full = np.exp(-dt * sig)
    v = V.sample(u0)
    for k, step in enumerate(steps):
        u = values[k]
        decay = decay_full if step == dt else np.exp(-step * sig)
        base = np.fft.irfft(np.fft.rfft(u + 0.5 * step * v * u) * decay,
                            u0.n)
        values[k + 1] = base / (1.0 - 0.5 * step * v)
    return SpaceTimeFunction(u0.L, u0.n, np.array(times), values)


def backward_uc_check(traj: SpaceTimeFunction, V: PotentialField | None,
                      p: OperatorParams, samples: int = 21,
                      tolerance: float = 1e-8) -> CheckReport:
    """Backward uniqueness surrogate: log-convexity of ||u(t)||^2.

    ``traj`` is the flow evolved under V (None for the free flow); the
    check reads ||u||^2 at the states nearest to ``samples`` evenly spaced
    times.  With V = 0 the bound is asserted.  With a bounded potential the
    check is report-only: it measures the smallest kappa with
    H(t) <= kappa H(0)^(1-theta) H(T)^theta over the trajectory.
    """
    t_start = time.perf_counter()
    free = V is None or V.sup_norm == 0.0
    picks = [int(np.argmin(np.abs(traj.times - t)))
             for t in np.linspace(traj.times[0], traj.times[-1], samples)]
    times = traj.times[picks]
    energies = (traj.L / traj.n) * np.sum(traj.values[picks] ** 2, axis=1)
    if energies[0] == 0.0 or energies[-1] == 0.0:
        return finish_report(
            name="heat.backward_uc",
            inputs={"s": p.s, "m": p.m, "free": free},
            measured={"kappa": 0.0},
            tolerance=tolerance, violation=0.0, witness=None,
            t_start=t_start)
    theta = (times - times[0]) / (times[-1] - times[0])
    kappa = float(np.max(energies
                         / (energies[0] ** (1.0 - theta)
                            * energies[-1] ** theta)))
    violation = max(0.0, kappa - 1.0) if free else 0.0
    return finish_report(
        name="heat.backward_uc",
        inputs={"s": p.s, "m": p.m, "free": free,
                "sup_norm": 0.0 if free else V.sup_norm},
        measured={"kappa": kappa},
        tolerance=tolerance,
        violation=violation,
        witness={"kappa": kappa},
        t_start=t_start,
    )
