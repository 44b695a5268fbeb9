"""Heat flow driven by the fractional relativistic operator.

The free semigroup is applied exactly per Fourier mode, by one core that
the free flow and the energy identity share, so mass decay and the
semigroup property hold to rounding on the grid.
A bounded time-independent potential V, given by its samples, enters
through the Duhamel form, whose per-step equation is pointwise diagonal
and is solved in closed form; one sample of V serves a flow's steps and
integrands.  It steps a group of draws on one grid, a lone draw being a
group of one, with one transform pair per step for the group.  Both flows
are streams of chunks of states, integrated as they are made: the free
flow's chunks hold CHUNK_ROWS of its states, the potential flow's one
state of its group; the heat layer stores no flow.  A stream cut into
time slices, each integrated on its own, is joined back into the series
of one pass (joined_series).
Weighted energies refuse to integrate data that has not decayed at the
periodic seam, since the exponential weight would turn wrap-around into
silent garbage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, PreconditionError, SeamLeakError
from .grid import SEAM_TOL, GridFunction, require_seam_decay, seam_magnitude
from .operator import OperatorParams, frequencies, symbol
from .report import CheckReport, finish_report

# Rows per chunk of a stream: CHUNK_ROWS consecutive states of the free
# flow (_free_modes, read by evolve_free and linear_carleman.free_series,
# whose time slices are cut at multiples of it so each slice keeps one
# pass's chunks), or one state of a group of at most CHUNK_ROWS draws
# stepped together (evolve_with_potential, in linear_carleman's groups).
# Four batch the transforms and row sums about as well as 8 or 64 do, and
# keep a chunk's arrays near 1 MB (six integrands at n = 4096), which is
# what the peak memory sees.
CHUNK_ROWS = 4

# Tolerance of the weighted decay check; the bound holds exactly for the
# free flow.
_WEIGHTED_DECAY_TOLERANCE = 1e-12

# Horizon and trapezoid step count of the energy identity check.
_ENERGY_T = 1.0
_ENERGY_STEPS = 100


@dataclass(frozen=True)
class PotentialField:
    """Time-independent potential V, given by its finite samples on a
    grid, on which alone it is defined; the bound the existence theory
    keys off, sup_norm, is their largest magnitude."""

    profile: GridFunction

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.profile.values)))

    def sample(self, grid) -> np.ndarray:
        """A copy of V's samples; ``grid`` must be the profile's grid, any
        other raises PreconditionError."""
        prof = self.profile
        if (grid.L, grid.n) != (prof.L, prof.n):
            raise PreconditionError(
                f"the potential lives on its profile's grid (L={prof.L:g}, "
                f"n={prof.n}); resample the profile onto the query grid "
                f"first")
        return prof.values.copy()


def _free_modes(u0: GridFunction, times, sig: np.ndarray
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The exact semigroup in Fourier space: one transform of u0, decayed
    mode-wise by exp(-t sig) at the given times, as (times, modes) chunks
    of CHUNK_ROWS rows.  The times are checked as evolve_free documents."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise DomainError(f"times must be finite and >= 0, got {times!r}")
    if times.ndim != 1 or not times.size or np.any(np.diff(times) <= 0.0):
        raise ConfigError(f"need strictly increasing 1-d times, got {times!r}")
    spec = np.fft.rfft(u0.values)
    for a in range(0, times.size, CHUNK_ROWS):
        t = times[a:a + CHUNK_ROWS]
        yield t, spec * np.exp(-np.outer(t, sig))


def evolve_free(u0: GridFunction, times, p: OperatorParams
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The potential-free flow from u0 at the given times: the inverse
    transforms of _free_modes' chunks, yielded as (times, rows) chunks as
    evolve_with_potential does, each made when it is asked for.  Times must
    be finite and >= 0 (DomainError) and strictly increasing (ConfigError);
    bad times raise at the first chunk."""
    sig = symbol(p, frequencies(u0.L, u0.n))
    for t, modes in _free_modes(u0, times, sig):
        yield t, np.fft.irfft(modes, u0.n, axis=1)


def _mode_quadratic(power: np.ndarray, L: float, n: int) -> np.ndarray:
    # trapezoid of u^2 via Parseval, per row of the rfft bins' |c|^2;
    # interior bins count twice
    total = 2.0 * power.sum(axis=-1) - power[..., 0] - power[..., -1]
    return total * L / n ** 2


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral over a uniform grid, starting at 0."""
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), out=out[1:])
    return out


def energy_identity_check(u0: GridFunction, p: OperatorParams,
                          tolerance: float = 1e-4) -> CheckReport:
    """Balance ||u(t)||^2 + 2 int_0^t ||op^(1/2) u||^2 against ||u0||^2
    over t in [0, _ENERGY_T].

    Both norms are read from the exact semigroup's modes (_free_modes) by
    Parseval, a chunk of times at once.  The time integral uses the
    trapezoid rule on the _ENERGY_STEPS step grid, so the residual measures
    the discretization honestly instead of hiding it in an exact per-mode
    antiderivative.
    """
    T, steps = _ENERGY_T, _ENERGY_STEPS
    sig = symbol(p, frequencies(u0.L, u0.n))
    times = np.linspace(0.0, T, steps + 1)
    energy, dissipation = [], []
    for _, modes in _free_modes(u0, times, sig):
        power = np.abs(modes) ** 2
        energy.append(_mode_quadratic(power, u0.L, u0.n))
        dissipation.append(_mode_quadratic(power * sig, u0.L, u0.n))
    energy, dissipation = np.concatenate(energy), np.concatenate(dissipation)
    cumulative = _cumulative_trapezoid(dissipation, T / steps)
    base = energy[0]
    if base == 0.0:
        residuals = np.zeros_like(times)
    else:
        residuals = np.abs(energy + 2.0 * cumulative - base) / base
    worst = int(np.argmax(residuals))
    return finish_report(
        inputs={"s": p.s, "m": p.m, "L": u0.L, "n": u0.n, "T": T,
                "steps": steps},
        measured={"max_residual": float(residuals[worst]),
                  "initial_energy": base},
        tolerance=tolerance,
        violation=float(residuals[worst]),
        witness={"t": float(times[worst])},
    )


class TiltedSeries(NamedTuple):
    """Tilted integrals along one draw's stream of states (see
    tilted_integrals)."""

    grid: GridFunction
    times: np.ndarray
    terms: dict
    failures: list

    def checked(self, integrands: int | None = None) -> "TiltedSeries":
        """Raise the first failure (among the first ``integrands``)."""
        for j, exc in self.failures:
            if integrands is None or j < integrands:
                raise exc
        return self

    def weighted(self, drift: float) -> dict:
        """The terms under the full weight: each times exp(drift t)."""
        weight = np.exp(drift * self.times)
        return {name: weight * values for name, values in self.terms.items()}


def _scan_failures(tilted: np.ndarray, sums: np.ndarray, live: int,
                   lam: float, what: tuple[str, ...], failures: list) -> int:
    """Append to ``failures`` those of one draw's chunk among its first
    ``live`` integrands: ``tilted`` holds its (states, integrands, n)
    tilted values and ``sums`` their row sums.  Returns how many leading
    integrands are still live."""
    states = len(tilted)
    while live:
        # row i is state i // live, integrand i % live: the loop order
        rows = tilted[:, :live].reshape(-1, tilted.shape[-1])
        # a non-finite sum comes from non-finite values or from finite
        # ones overflowing; only the first is an error, the second is inf
        stop = next((int(i) for i in np.flatnonzero(
            ~np.isfinite(sums[:, :live])) if not np.all(
                np.isfinite(rows[i]))), len(rows))
        err = None
        try:
            if lam != 0.0:
                require_seam_decay(rows[:stop], what[:live] * states)
        except SeamLeakError as exc:
            err = exc
            stop = int(np.argmax(seam_magnitude(rows[:stop]) > SEAM_TOL))
        if stop == len(rows):
            break
        live = stop % live
        failures.append((live, err or ConfigError("values must be finite")))
    return live


def tilted_integrals(grid, chunks: Iterable, lam: float,
                     what: tuple[str, ...],
                     integrands: Callable[[np.ndarray], Iterable[np.ndarray]]
                     ) -> list[TiltedSeries]:
    """Integrals of e^(lam x) I over ``grid``'s box at every state of the
    stream ``chunks`` of (times, rows), read to its end, for each integrand
    I named in ``what``: one TiltedSeries per draw of the stream, each with
    its terms, by name, and the failures met as (index in ``what``, error)
    pairs.  A chunk's rows hold, draw after draw, each draw's states at its
    times: a free flow's stream (evolve_free) has as many rows as times,
    and a potential flow's (evolve_with_potential) one time and a row per
    draw of its group.
    ``integrands(rows)`` yields, in the order of ``what``, each integrand's
    values on a chunk's rows.

    Every integrand row is guarded on its own: it must be finite
    (ConfigError) and, at lam != 0, decayed at the seam (SeamLeakError).
    Each draw's first failure is the one a state-by-state loop over that
    draw meets first: the earliest state, and within it the earliest
    integrand.  Its integrands before it go on, so a leading part of
    ``what`` fails as a pass over it alone would; the failed one and those
    after it are void.  No draw's failure touches another draw's series.
    """
    tilt = np.exp(lam * grid.x)
    live, failures, times, parts = [], [], [], []
    # one buffer serves the stream, sized by its longest chunk so far
    buffer = np.empty((0, len(what), grid.n))
    for t, chunk in chunks:
        if not live:
            draws = len(chunk) // len(t)
            live, failures = [len(what)] * draws, [[] for _ in range(draws)]
        if len(buffer) < len(chunk):
            buffer = np.empty((len(chunk), len(what), grid.n))
        tilted = buffer[:len(chunk)]
        for j, values in enumerate(integrands(chunk)):
            np.multiply(tilt, values, out=tilted[:, j])
        sums = tilted.sum(axis=2)
        # the whole chunk is guarded at once; each draw is scanned on its
        # own only when it or a group mate has failed
        clean = min(live) == len(what) and bool(np.all(np.isfinite(sums)))
        try:
            if clean and lam != 0.0:
                require_seam_decay(tilted.reshape(-1, grid.n))
        except SeamLeakError:
            clean = False
        for d in range(0 if clean else len(live)):
            block = slice(d * len(t), (d + 1) * len(t))
            live[d] = _scan_failures(tilted[block], sums[block], live[d],
                                     lam, what, failures[d])
        times.append(t)
        # (draws, integrands, states) of the chunk
        parts.append(sums.reshape(len(live), len(t), -1).transpose(0, 2, 1))
    times = np.concatenate(times)
    terms = grid.L / grid.n * np.concatenate(parts, axis=2)
    return [TiltedSeries(grid, times, dict(zip(what, rows)), failed)
            for rows, failed in zip(terms, failures)]


def joined_series(parts: list[TiltedSeries]) -> TiltedSeries:
    """One draw's series from its stream's consecutive time slices, each
    integrated on its own (tilted_integrals): the slices' times and terms
    in order, and the failures one pass over the whole stream meets.  That
    pass no longer reads an integrand once it has failed, nor those after
    it, so a slice's failure counts only if its integrand index is below
    every one kept before it."""
    failures, live = [], math.inf
    for part in parts:
        for j, exc in part.failures:
            if j < live:
                failures.append((j, exc))
                live = j
    return TiltedSeries(
        parts[0].grid, np.concatenate([part.times for part in parts]),
        {name: np.concatenate([part.terms[name] for part in parts])
         for name in parts[0].terms},
        failures)


def _tilted_energy(grid, chunks, lam: float, what: str) -> np.ndarray:
    """Integral of e^(lam x) u^2 at every state of the stream ``chunks``,
    each guarded against seam leakage; the first failure is raised."""
    [flow] = tilted_integrals(grid, chunks, lam, (what,),
                              lambda rows: [rows ** 2])
    return flow.checked().terms[what]


def weighted_decay_check(u0: GridFunction, lam: float,
                         p: OperatorParams) -> CheckReport:
    """Weighted energy never exceeds its predicted exponential envelope,
    sampled at 11 evenly spaced times on [0, 1]."""
    if abs(lam) > 2.0 * p.m:
        raise PreconditionError(
            f"need |lam| <= 2m, got lam={lam:g}, m={p.m:g}")
    times = np.linspace(0.0, 1.0, 11)
    rate = (p.m ** 2 - 0.25 * lam ** 2) ** p.s
    w_start = float(_tilted_energy(u0, [(np.zeros(1), u0.values[None, :])],
                                   lam, "initial weighted energy")[0])
    energies = _tilted_energy(u0, evolve_free(u0, times, p), lam,
                              "weighted energy")
    worst_slack = math.inf
    worst_t = 0.0
    for t, w_t in zip(times, energies):
        slack = math.exp(-rate * t) * w_start - w_t
        if slack < worst_slack:
            worst_slack, worst_t = slack, float(t)
    violation = max(0.0, -worst_slack) / w_start if w_start > 0.0 else 0.0
    return finish_report(
        inputs={"lam": lam, "s": p.s, "m": p.m, "L": u0.L, "n": u0.n},
        measured={"min_slack": worst_slack, "initial_energy": w_start},
        tolerance=_WEIGHTED_DECAY_TOLERANCE,
        violation=violation,
        witness={"t": worst_t},
    )


def log_convexity_check(u0: GridFunction, lam: float, p: OperatorParams,
                        tolerance: float = 1e-6) -> CheckReport:
    """H(t) = int e^(lam x) u^2 against the endpoint interpolation bound,
    sampled at 21 evenly spaced times on [0, 1]."""
    if abs(lam) > p.m:
        raise PreconditionError(
            f"need |lam| <= m for the weighted theory, got lam={lam:g}, "
            f"m={p.m:g}")
    times = np.linspace(0.0, 1.0, 21)
    values = _tilted_energy(u0, evolve_free(u0, times, p), lam,
                            "weighted energy")
    h_first, h_last = values[0], values[-1]
    inputs = {"lam": lam, "s": p.s, "m": p.m, "L": u0.L, "n": u0.n,
              "times": [float(times[0]), float(times[-1]), len(times)]}
    if h_first == 0.0 or h_last == 0.0:
        # zero data stays zero; nothing to bound
        return finish_report(
            inputs=inputs, measured={"max_ratio": 0.0},
            tolerance=tolerance, violation=0.0, witness=None)
    theta = (times - times[0]) / (times[-1] - times[0])
    bound = h_first ** (1.0 - theta) * h_last ** theta
    ratios = values / bound
    worst = int(np.argmax(ratios))
    violation = max(0.0, float(ratios[worst]) - 1.0)
    return finish_report(
        inputs=inputs,
        measured={"max_ratio": float(ratios[worst])},
        tolerance=tolerance,
        violation=violation,
        witness={"t": float(times[worst]), "ratio": float(ratios[worst])},
    )


def evolve_with_potential(draws, v: np.ndarray, T: float, p: OperatorParams,
                          dt: float = 1e-2
                          ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """March the potential problem with the trapezoid Duhamel step.

    ``draws`` is a group's data, a sequence of GridFunctions on one grid
    (else PreconditionError), a lone draw being a group of one; ``v`` holds
    each draw's potential sampled on that grid, a row per draw in the
    group's order.  V is time-independent, so ``v``, taken once by the
    caller for the flow's integrands too, serves both ends of every step.
    Each step solves

        u_{k+1} = K_dt (u_k + (dt/2) V u_k) + (dt/2) V u_{k+1},

    which is pointwise diagonal in u_{k+1}, so it is solved exactly by one
    division; max |v| dt < 1/2 keeps the divisor above 3/4.  The group's
    states are stepped together, one transform pair per step, each row by
    the same operations.  Steps are dt except a final shorter one that
    lands on T.  Yields the states at t = 0 and after every step, each
    stepped when it is asked for, as (times, rows) chunks of one state of
    the group: one time and a row per draw, in an array of its own; bad
    arguments raise at the first chunk.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    if T <= 0.0:
        raise DomainError(f"horizon must be positive, got T={T:g}")
    grid = draws[0]
    if any((g.L, g.n) != (grid.L, grid.n) for g in draws):
        raise PreconditionError("the draws of a group share one grid")
    v = np.reshape(v, (len(draws), grid.n))
    peaks = np.max(np.abs(v), axis=1) * dt
    if np.any(peaks >= 0.5):
        raise PreconditionError(
            f"need ||V|| * dt < 1/2 for the step, got "
            f"{peaks[np.argmax(peaks >= 0.5)]:g}")
    sig = symbol(p, frequencies(grid.L, grid.n))
    # every step but a shorter final one shares the full step's decay
    full = np.exp(-dt * sig)
    t, u = 0.0, np.stack([g.values for g in draws])
    yield np.array([t]), u
    while t < T - 1e-12 * max(1.0, T):
        step = min(dt, T - t)
        # one scratch array per step holds u + half_v u, then the divisor
        # 1 - half_v, with half_v = (step / 2) v formed as the step is taken
        scratch = 0.5 * step * v
        scratch *= u
        scratch += u
        spec = np.fft.rfft(scratch)
        spec *= full if step == dt else np.exp(-step * sig)
        np.multiply(0.5 * step, v, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        u = np.fft.irfft(spec, grid.n)
        u /= scratch
        t += step
        yield np.array([t]), u
