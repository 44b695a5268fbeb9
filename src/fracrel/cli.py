"""Configuration-driven runner for the verification suites.

Configs are flat JSON objects with dotted keys; every key has a default
(see DEFAULTS, or run ``fracrel defaults``) and unknown keys are rejected
by name.  ``fracrel run config.json`` executes the selected suite and
writes a JSON report bundle plus a CSV table into ``output.dir``;
``fracrel calibrate config.json`` reruns the constant sweeps and writes
the resulting table with its corpus provenance.

Exit status: 0 all checks passed, 1 at least one failed (reports are
still written; a check that raises becomes its own failed report) or a
calibration stopped on an error (the tables done so far are still
written, under the error), 2 the config did not validate.

Determinism: a single ``seed`` feeds every randomized check through a
per-check hash split, so identical configs produce byte-identical report
bodies and CSV tables; wall-clock data lives only under the bundle's
``meta`` key.
"""
import argparse
import csv
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, FracrelError
from .grid import band_limited_noise, gaussian, grid_points
from .heat import (PotentialField, energy_identity_check,
                   evolve_with_potential, log_convexity_check,
                   weighted_decay_check)
from .linear_carleman import (LinearWeight, calibrate_constants,
                              carleman_corpus, carleman_linear_check,
                              monotonicity_check, tent_identity_check)
from .operator import (OperatorParams, apply_singular_integral,
                       apply_spectral, apply_subordination)
from .report import CheckReport, finish_report
from . import symbols

SUITES = ("equivalence", "heat", "linear-carleman", "symbol",
          "quadratic-carleman", "all")

DEFAULTS = {
    "suite": "all",
    "seed": 20260822,
    "output.dir": "fracrel-report",
    "grid.L": 40.0,
    "grid.n": 4096,
    "operator.s": 0.5,
    "operator.m": 1.0,
    "linear.lam": 0.5,
    "linear.drift": -11.0,
    "linear.L": 128.0,
    "linear.n": 4096,
    "quadratic.alpha": 215.0,
    "quadratic.R": 1.0,
    "symbol.matrix_n": 256,
    "sweep.count": 8,
    "tolerance.equivalence": 1e-3,
    "tolerance.energy": 1e-4,
    "tolerance.log_convexity": 1e-6,
    "tolerance.tent": 1e-4,
    "tolerance.bracket": 1e-5,
    "tolerance.commutator": 1e-8,
    "tolerance.appendix": 1e-10,
}


# ------------------------------------------------------------------ config

def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of dotted keys")
    cfg = dict(DEFAULTS)
    for key, value in raw.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    for key, default in DEFAULTS.items():
        value = cfg[key]
        if isinstance(default, bool) or isinstance(value, bool):
            raise ConfigError(f"invalid value for {key!r}: booleans not used")
        if isinstance(default, str):
            if not isinstance(value, str) or not value:
                raise ConfigError(f"invalid value for {key!r}: need a "
                                  "nonempty string")
        elif isinstance(default, int):
            if not isinstance(value, int):
                raise ConfigError(f"invalid value for {key!r}: need an integer")
        else:
            if not isinstance(value, (int, float)):
                raise ConfigError(f"invalid value for {key!r}: need a number")
            cfg[key] = float(value)
    if cfg["suite"] not in SUITES:
        raise ConfigError(f"invalid value for 'suite': pick one of {SUITES}")
    if not 0 <= cfg["seed"] < 2 ** 64:
        raise ConfigError("invalid value for 'seed': need a 64-bit unsigned "
                          "integer")
    for key in cfg:
        if key.startswith("tolerance.") and not cfg[key] > 0.0:
            raise ConfigError(f"invalid value for {key!r}: tolerances must "
                              "be positive")
    for key in ("grid.n", "linear.n", "symbol.matrix_n"):
        if cfg[key] < 16:
            raise ConfigError(f"invalid value for {key!r}: need at least 16 "
                              "nodes")
    for key in ("grid.n", "linear.n"):
        if cfg[key] & (cfg[key] - 1):
            raise ConfigError(f"invalid value for {key!r}: need a power of "
                              "two")
    try:
        OperatorParams(cfg["operator.s"], cfg["operator.m"])
    except ConfigError as exc:
        raise ConfigError(f"invalid value for 'operator.s' or 'operator.m': "
                          f"{exc}") from exc
    for key in ("grid.L", "linear.L", "quadratic.alpha", "quadratic.R"):
        if not cfg[key] > 0:
            raise ConfigError(f"invalid value for {key!r}: need a positive "
                              "value")
    if cfg["sweep.count"] < 1:
        raise ConfigError("invalid value for 'sweep.count': need at least 1")
    # the linear corpus (run and calibrate) draws 40 modes inside |x| <= 12
    if cfg["linear.n"] <= 80:
        raise ConfigError("invalid value for 'linear.n': the linear corpus "
                          "needs more than 80 nodes")
    if cfg["linear.L"] < 24.0:
        raise ConfigError("invalid value for 'linear.L': the linear corpus "
                          "window needs a box of at least 24")


def _split_rng(seed: int, suite: str, check: str, index: int = 0):
    digest = hashlib.sha256(
        f"{seed}|{suite}|{check}|{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _corpus_seed(cfg) -> int:
    """Seed of the linear Carleman corpus, shared by run and calibrate."""
    return int.from_bytes(hashlib.sha256(
        f"{cfg['seed']}|linear|corpus".encode()).digest()[:8], "little")


# ------------------------------------------------------------------ suites

def _checked(name: str, check) -> CheckReport:
    """The report of ``check()``; a FracrelError it raises becomes the
    failed report ``name``, so one failure leaves the rest of its suite
    in place."""
    t0 = time.perf_counter()
    try:
        return check()
    except FracrelError as exc:
        return CheckReport(
            name=name, inputs={},
            measured={"error": f"{type(exc).__name__}: {exc}"},
            tolerance=0.0, passed=False, witness=None,
            wall_time_s=time.perf_counter() - t0)


def _suite_equivalence(cfg) -> list:
    L, n = cfg["grid.L"], cfg["grid.n"]
    tol = cfg["tolerance.equivalence"]
    f = gaussian(L, n, sigma=1.0)
    mid = np.abs(f.x) <= L / 4.0
    applies = {"spectral": apply_spectral,
               "singular": apply_singular_integral,
               "subordination": apply_subordination}
    out = []
    for s in (0.3, 0.5, 0.7):
        for m in (0.5, 1.0, 2.0):
            p = OperatorParams(s, m)
            routes = {}

            def compare(one, two):
                t0 = time.perf_counter()
                # each realization is applied once per (s, m)
                for route in ("spectral", one, two):
                    if route not in routes:
                        routes[route] = applies[route](f, p).values[mid]
                ref = float(np.max(np.abs(routes["spectral"])))
                err = float(np.max(np.abs(routes[one] - routes[two])) / ref)
                return finish_report(
                    f"equivalence.{one}_vs_{two}",
                    {"s": s, "m": m, "L": L, "n": int(n)},
                    {"rel_error": err}, tol, err, None, t0)

            for one, two in (("spectral", "singular"),
                             ("spectral", "subordination"),
                             ("singular", "subordination")):
                out.append(_checked(f"equivalence.{one}_vs_{two}",
                                    lambda: compare(one, two)))
    return out


def _suite_heat(cfg) -> list:
    L, n = cfg["grid.L"], int(cfg["grid.n"])
    p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
    out = []
    u0 = gaussian(L, n, sigma=2.0)
    out.append(_checked("heat.energy_identity", lambda: energy_identity_check(
        u0, p, tolerance=cfg["tolerance.energy"])))
    for lam in (0.0, p.m / 2.0):
        out.append(_checked("heat.weighted_decay",
                            lambda: weighted_decay_check(u0, lam, p)))
    rng = _split_rng(cfg["seed"], "heat", "log_convexity")
    for _ in range(int(cfg["sweep.count"])):
        out.append(_checked("heat.log_convexity", lambda: log_convexity_check(
            band_limited_noise(L, n, 12, rng, windowed=True), p.m / 2.0, p,
            tolerance=cfg["tolerance.log_convexity"])))
    return out


def _ledger_report(i: int, f0, V, w: LinearWeight,
                   p: OperatorParams) -> CheckReport:
    t0 = time.perf_counter()
    ledger = carleman_linear_check(f0, V, w, p)
    return CheckReport(
        name="linear_carleman.ledger",
        inputs={"draw": i, "lam": w.lam, "drift": w.drift,
                "s": p.s, "m": p.m},
        measured={"slack": ledger.slack,
                  "corollary_slack": ledger.corollary_slack,
                  "flagged": list(ledger.flagged)},
        tolerance=0.0,
        passed=bool(ledger.passed and ledger.corollary_passed),
        witness=None if ledger.passed else ledger.to_dict(),
        wall_time_s=time.perf_counter() - t0)


def _suite_linear(cfg) -> list:
    L, n = cfg["linear.L"], int(cfg["linear.n"])
    p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
    w = LinearWeight(cfg["linear.lam"], cfg["linear.drift"])
    out = []
    # one free trajectory serves both checks; the tent residual is
    # quadratic in the step, so it needs the fine spacing
    traj = evolve_with_potential(gaussian(L, n, sigma=2.0),
                                 PotentialField.constant(0.0), 1.0, p,
                                 dt=1e-3)
    out.append(_checked("linear_carleman.monotonicity",
                        lambda: monotonicity_check(traj, None, w, p)))
    out.append(_checked("linear_carleman.tent_identity",
                        lambda: tent_identity_check(
                            traj, w, tolerance=cfg["tolerance.tent"])))
    corpus = carleman_corpus(L, n, int(cfg["sweep.count"]), _corpus_seed(cfg))
    for i, (f0, V) in enumerate(corpus):
        out.append(_checked("linear_carleman.ledger",
                            lambda: _ledger_report(i, f0, V, w, p)))
    return out


def _analytic_operands(L: float, n: int) -> list:
    x = grid_points(L, n)
    core = np.exp(-((x / 0.35) ** 2))
    ops = [core]
    for k in (1, 2, 3):
        ops.append(core * np.cos(2.0 * np.pi * k * x / 3.0))
        ops.append(core * np.sin(2.0 * np.pi * k * x / 3.0))
    return ops


def _falsification_report(p34: OperatorParams) -> CheckReport:
    # expected negative: an oscillating profile outside the admissible set
    rep = symbols.positivity_sweep(
        symbols.QuadraticWeight.oscillating(2.0, 1.0, rate=3.0), p34,
        constants=(1.0, 1.0), enforce=False)
    return CheckReport(
        name="symbol.falsification_witness",
        inputs=rep.inputs, measured=rep.measured, tolerance=0.0,
        passed=bool((not rep.measured["gate_ok"])
                    and rep.measured["ratio_min"] < 0.0),
        witness=rep.witness, wall_time_s=rep.wall_time_s)


def _bracket_fd_report(cfg) -> CheckReport:
    # closed-form bracket against finite differences at random points
    t0 = time.perf_counter()
    rng = _split_rng(cfg["seed"], "symbol", "bracket_fd")
    worst = 0.0
    kept = 0
    for _ in range(200):
        a = float(rng.uniform(0.5, 8.0))
        r = float(rng.uniform(0.5, 2.0))
        w = symbols.QuadraticWeight.decaying(a, r)
        pp = OperatorParams(float(rng.uniform(0.55, 0.95)),
                            float(rng.uniform(0.0, 2.0 * a / r)))
        t = float(rng.uniform(0.0, 2.0))
        sig = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0))
        pt = symbols.SymbolPoint(
            x=(sig - float(w.psi_at(t))) * r, t=t,
            xi=float(rng.choice([-1.0, 1.0])
                     * rng.uniform(1e-2, 1e2) * a / r))
        if symbols.bracket_singular(pt, w, pp):
            continue
        kept += 1
        closed = symbols.poisson_bracket(pt, w, pp)
        fd = symbols.poisson_bracket_fd(pt, w, pp)
        worst = max(worst, abs(closed - fd) / max(abs(closed), 1e-30))
    return finish_report("symbol.bracket_fd", {"points": kept},
                         {"rel_error": worst},
                         cfg["tolerance.bracket"], worst, None, t0)


def _s1_commutator_report(cfg) -> CheckReport:
    # s = 1 commutator action against the closed form
    n_mat = int(cfg["symbol.matrix_n"])
    t0 = time.perf_counter()
    worst = 0.0
    for a, level in ((0.05, 0.0), (0.2, 0.0), (0.4, 0.0), (0.05, 3.0)):
        w = symbols.QuadraticWeight.constant(a, 1.0, level)
        p1 = OperatorParams(1.0, 1.0)
        M = symbols.conjugated_operator_matrix(w, p1, 8.0, n_mat)
        S, A = symbols.matrix_parts(M)
        comm = S @ A - A @ S
        T = symbols.s1_commutator_target(w, p1, 8.0, n_mat)
        for f in _analytic_operands(8.0, n_mat):
            err = float(np.linalg.norm(comm @ f - T @ f)
                        / np.linalg.norm(T @ f))
            worst = max(worst, err)
    return finish_report("symbol.s1_commutator", {"n": n_mat},
                         {"rel_error": worst},
                         cfg["tolerance.commutator"], worst, None, t0)


def _suite_symbol(cfg) -> list:
    p34 = OperatorParams(0.75, 0.0)
    alpha, R = cfg["quadratic.alpha"], cfg["quadratic.R"]
    out = [
        _checked("symbols.positivity_sweep", lambda: symbols.positivity_sweep(
            symbols.QuadraticWeight.decaying(alpha, R), p34)),
        _checked("symbols.positivity_sweep", lambda: symbols.positivity_sweep(
            symbols.QuadraticWeight.constant(50.0 * R, R, 1.0), p34)),
        _checked("symbol.falsification_witness",
                 lambda: _falsification_report(p34)),
        _checked("symbols.garding_hypothesis",
                 lambda: symbols.garding_hypothesis_check(
                     symbols.QuadraticWeight.constant(40.0, 1.0, 3.0), p34)),
        _checked("symbol.bracket_fd", lambda: _bracket_fd_report(cfg)),
        _checked("symbol.s1_commutator", lambda: _s1_commutator_report(cfg)),
    ]
    rng = _split_rng(cfg["seed"], "symbol", "appendix")
    for s in (-0.5, 0.3, 0.5, 1.0):
        phi = 0.2 * rng.standard_normal(64)
        out.append(_checked("symbols.appendix_conjugation",
                            lambda: symbols.appendix_conjugation_check(
                                64, s, phi,
                                tolerance=cfg["tolerance.appendix"])))
    return out


def _quadratic_report(seed: int, mode: str, s: float, mr: float,
                      count: int) -> CheckReport:
    entry = symbols.quadratic_constants(mode, s, mr)
    alpha = entry["corpus"]["alpha"]
    p = OperatorParams(s, mr * 2.0 * alpha)
    if mode == "elliptic":
        w = symbols.QuadraticWeight.constant(alpha, 1.0, 3.0)
        rng = _split_rng(seed, "quadratic", f"elliptic|{s}|{mr}")
        fs = symbols.elliptic_test_family(w, 8.0, 512, count, rng)
    else:
        w = symbols.QuadraticWeight.decaying(alpha, 1.0)
        rng = _split_rng(seed, "quadratic", f"parabolic|{mr}")
        fs = symbols.parabolic_test_family(
            w, 8.0, 512, np.linspace(0.0, 1.0, 48), count, rng)
    return symbols.carleman_quadratic_check(fs, w, p, mode)


def _suite_quadratic(cfg) -> list:
    count = max(3, int(cfg["sweep.count"]) // 2)
    runs = [("elliptic", s, mr, count) for s in (0.5, 0.75)
            for mr in (0.0, 1.0)]
    runs += [("parabolic", 0.75, mr, 3) for mr in (0.0, 1.0)]
    return [_checked("symbols.carleman_quadratic",
                     lambda: _quadratic_report(cfg["seed"], *run))
            for run in runs]


SUITE_RUNNERS = {
    "equivalence": _suite_equivalence,
    "heat": _suite_heat,
    "linear-carleman": _suite_linear,
    "symbol": _suite_symbol,
    "quadratic-carleman": _suite_quadratic,
}


# ------------------------------------------------------------------ output

def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "check", "parameters", "measured",
                     "tolerance", "pass"])
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_outputs(outdir: Path, cfg: dict, suites: list) -> bool:
    """Write report.json and reports.csv; returns overall pass."""
    rows = []
    body_reports = []
    meta_times = []
    all_passed = True
    for suite_name, reports in suites:
        for rep in reports:
            d = rep.to_dict()
            meta_times.append(d.pop("wall_time_s", 0.0))
            d["suite"] = suite_name
            body_reports.append(d)
            rows.append([suite_name, rep.name, _compact(d["inputs"]),
                         _compact(d["measured"]),
                         json.dumps(rep.tolerance),
                         "true" if rep.passed else "false"])
            all_passed = all_passed and rep.passed
    body = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "reports": body_reports,
        "summary": {
            "total": len(body_reports),
            "passed": sum(1 for d in body_reports if d["passed"]),
            "failed": [d["name"] for d in body_reports if not d["passed"]],
        },
    }
    bundle = {"body": body,
              "meta": {"generated_unix": time.time(),
                       "wall_time_s": meta_times}}
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    (outdir / "reports.csv").write_text(_csv_text(rows))
    return all_passed


# ------------------------------------------------------------------ commands

def cmd_run(cfg: dict) -> int:
    wanted = SUITES[:-1] if cfg["suite"] == "all" else (cfg["suite"],)
    suites = []
    for name in wanted:
        reports = SUITE_RUNNERS[name](cfg)
        suites.append((name, reports))
        for rep in reports:
            print(rep)
    ok = write_outputs(Path(cfg["output.dir"]), cfg, suites)
    total = sum(len(r) for _, r in suites)
    failed = sum(1 for _, rs in suites for r in rs if not r.passed)
    print(f"{total - failed}/{total} checks passed; reports in "
          f"{cfg['output.dir']}")
    return 0 if ok else 1


def _corpus_hash(corpus) -> str:
    h = hashlib.sha256()
    for f0, V in corpus:
        h.update(np.ascontiguousarray(f0.values).tobytes())
        h.update(np.ascontiguousarray(V.sample(f0)).tobytes())
    return h.hexdigest()


def cmd_calibrate(cfg: dict) -> int:
    tables = {}
    provenance = {"seed": cfg["seed"]}
    suite = cfg["suite"]
    try:
        if suite in ("linear-carleman", "all"):
            p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
            L, n = cfg["linear.L"], int(cfg["linear.n"])
            draws = int(cfg["sweep.count"])
            corpus_seed = _corpus_seed(cfg)
            tables["linear"] = calibrate_constants(
                p, cfg["linear.lam"], L=L, n=n, draws=draws,
                seed=corpus_seed)
            provenance["linear"] = {
                "grid": {"L": L, "n": n}, "draws": draws,
                "corpus_sha256": _corpus_hash(
                    carleman_corpus(L, n, draws, corpus_seed))}
        if suite in ("symbol", "all"):
            tables["positivity"] = [
                symbols.calibrate_positivity(0.75, mr) for mr in (0.0, 1.0)]
            tables["garding"] = [
                symbols.calibrate_garding(0.75, mr) for mr in (0.0, 1.0)]
        if suite in ("quadratic-carleman", "all"):
            quad = []
            for mode, svals in (("elliptic", (0.5, 0.75)),
                                ("parabolic", (0.75,))):
                for s in svals:
                    for mr in (0.0, 1.0):
                        quad.append(symbols.calibrate_quadratic(
                            mode, s, mr, seed=cfg["seed"]))
            tables["quadratic"] = quad
        if not tables:
            raise ConfigError(
                f"suite {suite!r} has no calibrated constants; pick one of "
                "'linear-carleman', 'symbol', 'quadratic-carleman', 'all'")
        body, failure = {"tables": tables, "provenance": provenance}, None
    except ConfigError:
        raise
    except FracrelError as exc:
        failure = f"{type(exc).__name__}: {exc}"
        body = {"error": failure, "tables": tables}
    outdir = Path(cfg["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "calibration.json").write_text(json.dumps(
        {"body": body, "meta": {"generated_unix": time.time()}},
        indent=2, sort_keys=True) + "\n")
    if failure is not None:
        print(f"calibration failed: {failure}", file=sys.stderr)
        return 1
    print(f"calibration table written to {outdir / 'calibration.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracrel",
        description="run or calibrate the fractional-operator verification "
                    "suites")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a suite and write reports")
    run_p.add_argument("config", help="path to a flat JSON config")
    cal_p = sub.add_parser("calibrate",
                           help="rerun constant sweeps and write the table")
    cal_p.add_argument("config", help="path to a flat JSON config")
    sub.add_parser("defaults", help="print the default config")
    args = parser.parse_args(argv)

    if args.command == "defaults":
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
        return 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_calibrate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
