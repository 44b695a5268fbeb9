"""Configuration-driven runner for the verification suites.

Configs are flat JSON objects with dotted keys; every key has a default
(see DEFAULTS, or run ``fracrel defaults``) and unknown keys are rejected
by name.  ``fracrel run config.json`` executes the selected suite and
writes a JSON report bundle plus a CSV table into ``output.dir``;
``fracrel calibrate config.json`` reruns the constant sweeps and writes
the resulting table with its corpus provenance.

Exit status: 0 all checks passed, 1 at least one failed (reports are
still written; a check that raises becomes its own failed report) or a
calibration table failed (every other table of the suite is still
computed and written, next to the per-table errors), 2 the config did
not validate.

Determinism: a single ``seed`` feeds every randomized check through a
per-check hash split, so identical configs produce byte-identical report
bodies and CSV tables; wall-clock data lives only under the bundle's
``meta`` key.  A calibration's ``meta`` also records each table's wall
time, the fracrel and numpy versions and the git commit of the package
checkout (null outside a git checkout).

Cold start: every command runs in a fresh process, so this module imports
at load time only what config validation and every suite need.  The heat
flow, the linear Carleman and symbol layers, ``pickle``, ``traceback`` and
``subprocess`` are imported inside the functions that use them, and their
functions are read as module attributes when called.  ``hashlib`` comes
from ``grid._load_hashlib`` when a seed or corpus is hashed, and every
generator from ``grid.rng``, so a seeded run loads no OpenSSL.
"""
import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import grid
from .errors import ConfigError, FracrelError
from .grid import band_limited_noise, gaussian, smooth_window
from .operator import (OperatorParams, apply_singular_integral,
                       apply_spectral, apply_subordination)
from .report import CheckReport, finish_report

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
            # json reads Infinity and NaN, and an integer literal may
            # overflow a float
            try:
                cfg[key] = float(value)
            except OverflowError:
                cfg[key] = math.inf
            if not math.isfinite(cfg[key]):
                raise ConfigError(f"invalid value for {key!r}: need a finite "
                                  "number")
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
    # the linear corpus (run and calibrate) draws k_max modes in |x| <= outer
    k_max, outer = grid._CORPUS_K_MAX, grid._CORPUS_OUTER
    if cfg["linear.n"] // 2 <= k_max:
        raise ConfigError("invalid value for 'linear.n': the linear corpus "
                          f"needs more than {2 * k_max} nodes")
    if cfg["linear.L"] < 2.0 * outer:
        raise ConfigError("invalid value for 'linear.L': the linear corpus "
                          f"window needs a box of at least {2.0 * outer:g}")


def _split_rng(seed: int, suite: str, check: str):
    digest = grid._load_hashlib().sha256(
        f"{seed}|{suite}|{check}|0".encode()).digest()
    return grid.rng(int.from_bytes(digest[:8], "little"))


def _corpus_seed(cfg) -> int:
    """Seed of the linear Carleman corpus, shared by run and calibrate."""
    return int.from_bytes(grid._load_hashlib().sha256(
        f"{cfg['seed']}|linear|corpus".encode()).digest()[:8], "little")


# ------------------------------------------------------------------ suites

def _checked(name: str, check) -> CheckReport:
    """The report of ``check()``, or the failed report of a FracrelError it
    raises, so one failure leaves the rest of its suite in place.  Either
    one is stamped here with ``name`` and the wall time of the call: this
    is the one place a report is named and timed."""
    t0 = time.perf_counter()
    try:
        rep = check()
    except FracrelError as exc:
        rep = CheckReport(measured={"error": f"{type(exc).__name__}: {exc}"})
    rep.name, rep.wall_time_s = name, time.perf_counter() - t0
    return rep


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
                # each realization is applied once per (s, m)
                for route in ("spectral", one, two):
                    if route not in routes:
                        routes[route] = applies[route](f, p).values[mid]
                ref = float(np.max(np.abs(routes["spectral"])))
                err = float(np.max(np.abs(routes[one] - routes[two])) / ref)
                return finish_report(
                    {"s": s, "m": m, "L": L, "n": int(n)},
                    {"rel_error": err}, tol, err, None)

            for one, two in (("spectral", "singular"),
                             ("spectral", "subordination"),
                             ("singular", "subordination")):
                out.append(_checked(f"equivalence.{one}_vs_{two}",
                                    lambda: compare(one, two)))
    return out


def _suite_heat(cfg) -> list:
    from . import heat
    L, n = cfg["grid.L"], int(cfg["grid.n"])
    p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
    out = []
    u0 = gaussian(L, n, sigma=2.0)
    out.append(_checked(
        "heat.energy_identity", lambda: heat.energy_identity_check(
            u0, p, tolerance=cfg["tolerance.energy"])))
    for lam in (0.0, p.m / 2.0):
        out.append(_checked("heat.weighted_decay",
                            lambda: heat.weighted_decay_check(u0, lam, p)))
    rng = _split_rng(cfg["seed"], "heat", "log_convexity")
    # the tilt lifts the flow's far field by e^(lam L/2) at the seam, so
    # the data leave the outer three quarters of the box to decay in
    window = smooth_window(L, n, L / 16.0, L / 8.0).values

    def log_convexity():
        raw = band_limited_noise(L, n, 12, rng)
        return heat.log_convexity_check(
            raw.with_values(raw.values * window), p.m / 2.0, p,
            tolerance=cfg["tolerance.log_convexity"])

    for _ in range(int(cfg["sweep.count"])):
        out.append(_checked("heat.log_convexity", log_convexity))
    return out


def _free_slices(times: np.ndarray, count: int) -> list:
    """``times`` cut into ``count`` slices of nearly equal numbers of
    heat.CHUNK_ROWS-state chunks, so that each slice's chunks are those of
    one pass over ``times``."""
    from .heat import CHUNK_ROWS
    chunks = -(-len(times) // CHUNK_ROWS)
    cuts = [k * chunks // count * CHUNK_ROWS for k in range(count + 1)]
    return [times[a:b] for a, b in zip(cuts, cuts[1:])]


def _work(share: list, fd_in: int, fd_out: int) -> None:
    """A forked child's whole life: run ``share``'s jobs, pickle their
    results into the pipe ``fd_out`` and leave by os._exit, with status 0,
    or 1 (after printing the traceback of an error), so that the child
    never returns into the parent's stack nor runs its exit handlers."""
    status = 1
    try:
        os.close(fd_in)
        import pickle
        data = pickle.dumps([job() for job in share])
        with open(fd_out, "wb") as pipe:
            pipe.write(data)
        status = 0
    except Exception:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _forked(shares: list) -> list:
    """Each share's results, in share order: the return values of its jobs
    (callables taking no argument), in order.  This process runs share 0,
    and a child forked for each other share runs it and pickles its results
    into a pipe (_work); a share whose fork fails (OSError) runs here too.
    Every pipe is read and every child reaped before this returns or
    raises, also when a share run here raises; a child that failed or died
    raises RuntimeError."""
    import pickle
    results, here, children = [None] * len(shares), [0], []
    # a child must not write what this process has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for k in range(1, len(shares)):
            fd_in, fd_out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_in)
                os.close(fd_out)
                here.append(k)
                continue
            if pid == 0:
                _work(shares[k], fd_in, fd_out)
            os.close(fd_out)
            children.append((k, pid, fd_in))
        for k in here:
            results[k] = [job() for job in shares[k]]
    finally:
        piped = []
        for k, pid, fd_in in children:
            with open(fd_in, "rb") as pipe:
                data = pipe.read()
            piped.append((k, pid, data,
                          os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    failed = [f"share {k} (pid {pid}) "
              + (f"exited with status {code}" if code > 0
                 else f"was killed by signal {-code}")
              for k, pid, _, code in piped if code]
    if failed:
        raise RuntimeError("linear suite worker failed: " + "; ".join(failed))
    for k, _, data, _ in piped:
        results[k] = pickle.loads(data)
    return results


def _suite_linear(cfg) -> list:
    """The free-flow checks and one ledger per corpus draw, as jobs dealt
    round-robin to one worker per CPU this process may use (_forked), at
    most one more than the groups of heat.CHUNK_ROWS draws, whose flows
    are stepped together, and one where the platform has no affinity call.
    The free flow's states are cut into one time slice per worker
    (_free_slices); the jobs are the slices, then one per group, so share 0
    holds the first slice and the first group.  The slices' series are
    joined into the one both free-flow checks read.  Reports come back in
    job order, a group's in draw order."""
    from . import heat, linear_carleman  # before any job is made
    L, n = cfg["linear.L"], int(cfg["linear.n"])
    p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
    w = linear_carleman.LinearWeight(cfg["linear.lam"], cfg["linear.drift"])
    groups = list(linear_carleman.draw_groups(linear_carleman.carleman_corpus(
        L, n, int(cfg["sweep.count"]), _corpus_seed(cfg))))
    # the tent residual is quadratic in the spacing, so the free flow needs
    # the fine one
    times = np.linspace(0.0, 1.0, 1001)
    try:
        # no more workers than slices with a chunk each
        workers = min(len(os.sched_getaffinity(0)), len(groups) + 1,
                      -(-len(times) // heat.CHUNK_ROWS))
    except AttributeError:
        # macOS and Windows builds of CPython have no affinity call, and
        # nothing is forked there
        workers = 1

    def ledgers(first, group):
        # the group's flows are stepped inside its first draw's check, so
        # that report's wall time holds the group's stepping; a failure
        # before any stepping leaves them unstepped, and each draw's check
        # meets it again
        flows = []

        def check(j):
            if not flows:
                flows[:] = linear_carleman.ledger_series(group, w, p)
            rep = linear_carleman.carleman_linear_check(flows[j],
                                                        group[j][1], w, p)
            rep.inputs["draw"] = first + j
            return rep
        return [_checked("linear_carleman.ledger", lambda: check(j))
                for j in range(len(group))]

    u0 = gaussian(L, n, sigma=2.0)
    jobs = [functools.partial(linear_carleman.free_series, u0, t, w.lam, p)
            for t in _free_slices(times, workers)]
    first = 0
    for group in groups:
        jobs.append(functools.partial(ledgers, first, group))
        first += len(group)
    done = [None] * len(jobs)
    for k, results in enumerate(_forked([jobs[k::workers]
                                         for k in range(workers)])):
        done[k::workers] = results
    free = heat.joined_series(done[:workers])
    reports = [_checked("linear_carleman.monotonicity",
                        lambda: linear_carleman.monotonicity_check(
                            free, None, w, p)),
               _checked("linear_carleman.tent_identity",
                        lambda: linear_carleman.tent_identity_check(
                            free, w, tolerance=cfg["tolerance.tent"]))]
    for group_reports in done[workers:]:
        reports += group_reports
    return reports


def _suite_symbol(cfg) -> list:
    from . import symbols
    p34 = OperatorParams(0.75, 0.0)
    alpha, R = cfg["quadratic.alpha"], cfg["quadratic.R"]
    weights = ((symbols.QuadraticWeight.decaying, (alpha, R)),
               (symbols.QuadraticWeight.constant, (50.0 * R, R, 1.0)))
    out = [_checked("symbols.positivity_sweep",
                    lambda: symbols.positivity_sweep(make(*args), p34))
           for make, args in weights]
    out += [
        _checked("symbol.falsification_witness",
                 lambda: symbols.falsification_witness_check(p34)),
        _checked("symbols.garding_hypothesis",
                 lambda: symbols.garding_hypothesis_check(
                     symbols.QuadraticWeight.constant(40.0, 1.0, 3.0), p34)),
        _checked("symbol.bracket_fd", lambda: symbols.bracket_fd_check(
            _split_rng(cfg["seed"], "symbol", "bracket_fd"),
            cfg["tolerance.bracket"])),
        _checked("symbol.s1_commutator", lambda: symbols.s1_commutator_check(
            int(cfg["symbol.matrix_n"]), cfg["tolerance.commutator"])),
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
    from . import symbols
    entry = symbols.quadratic_constants(mode, s, mr)
    label = f"elliptic|{s}|{mr}" if mode == "elliptic" else f"parabolic|{mr}"
    w, p, fs = symbols.quadratic_corpus(
        mode, s, mr, entry["corpus"]["alpha"], count,
        _split_rng(seed, "quadratic", label), symbols.QUADRATIC_N)
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
    """Write report.json and reports.csv; returns overall pass.

    The body holds the config, the reports and a summary.  The meta holds
    the wall-clock data: ``generated_unix`` and ``checks``, one
    ``{"name", "index", "wall_time_s"}`` per report in body order."""
    rows = []
    body_reports = []
    meta_checks = []
    all_passed = True
    for suite_name, reports in suites:
        for rep in reports:
            d = rep.to_dict()
            meta_checks.append({"name": rep.name, "index": len(body_reports),
                                "wall_time_s": d.pop("wall_time_s", 0.0)})
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
                       "checks": meta_checks}}
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
    h = grid._load_hashlib().sha256()
    for f0, V in corpus:
        h.update(np.ascontiguousarray(f0.values).tobytes())
        h.update(np.ascontiguousarray(V.sample(f0)).tobytes())
    return h.hexdigest()


def _calibration_jobs(cfg: dict, provenance: dict) -> dict:
    """Table name -> zero-argument builder, for each table of the suite."""
    suite = cfg["suite"]
    jobs = {}
    if suite in ("symbol", "quadratic-carleman", "all"):
        from . import symbols
    if suite in ("linear-carleman", "all"):
        def linear():
            from . import linear_carleman
            p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
            L, n = cfg["linear.L"], int(cfg["linear.n"])
            draws = int(cfg["sweep.count"])
            corpus_seed = _corpus_seed(cfg)
            table = linear_carleman.calibrate_constants(
                p, cfg["linear.lam"], L=L, n=n, draws=draws,
                seed=corpus_seed)
            provenance["linear"] = {
                "grid": {"L": L, "n": n}, "draws": draws,
                "corpus_sha256": _corpus_hash(linear_carleman.carleman_corpus(
                    L, n, draws, corpus_seed))}
            return table
        jobs["linear"] = linear
    if suite in ("symbol", "all"):
        jobs["positivity"] = lambda: [
            symbols.calibrate_positivity(0.75, mr) for mr in (0.0, 1.0)]
        jobs["garding"] = lambda: [
            symbols.calibrate_garding(0.75, mr) for mr in (0.0, 1.0)]
    if suite in ("quadratic-carleman", "all"):
        jobs["quadratic"] = lambda: [
            symbols.calibrate_quadratic(mode, s, mr, seed=cfg["seed"])
            for mode, svals in (("elliptic", (0.5, 0.75)),
                                ("parabolic", (0.75,)))
            for s in svals for mr in (0.0, 1.0)]
    if not jobs:
        raise ConfigError(
            f"suite {suite!r} has no calibrated constants; pick one of "
            "'linear-carleman', 'symbol', 'quadratic-carleman', 'all'")
    return jobs


def _checkout_sha():
    """Git commit of the checkout holding the package, or None when git or
    the repository is unavailable (an installed, non-checkout package)."""
    import subprocess
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cmd_calibrate(cfg: dict) -> int:
    from . import __version__
    provenance = {"seed": cfg["seed"]}
    tables, errors, table_wall = {}, {}, {}
    # each table in its own guard, so one failure leaves the others written
    for name, build in _calibration_jobs(cfg, provenance).items():
        t0 = time.perf_counter()
        try:
            tables[name] = build()
        except ConfigError:
            raise
        except FracrelError as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
        table_wall[name] = time.perf_counter() - t0
    body = {"tables": tables, "provenance": provenance}
    if errors:
        body["errors"] = errors
    meta = {"generated_unix": time.time(), "table_wall_s": table_wall,
            "fracrel_version": __version__, "numpy_version": np.__version__,
            "git_sha": _checkout_sha()}
    outdir = Path(cfg["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "calibration.json").write_text(json.dumps(
        {"body": body, "meta": meta}, indent=2, sort_keys=True) + "\n")
    for name, failure in errors.items():
        print(f"calibration failed: {failure} (table {name})",
              file=sys.stderr)
    if errors:
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
