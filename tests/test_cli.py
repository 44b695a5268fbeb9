"""Runner plumbing: config validation, exit codes, determinism of reports.

The symbol suite is the workhorse fixture here because it finishes in well
under a second while still exercising seeded randomness, matrix checks and
the frozen calibration tables.
"""
import ast
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracrel
from fracrel import cli, grid, heat, linear_carleman, report, symbols
from fracrel.cli import (DEFAULTS, SUITES, _split_rng, load_config, main,
                         write_outputs)
from fracrel.errors import CalibrationError, ConfigError
from fracrel.grid import GridFunction
from fracrel.operator import OperatorParams, apply_spectral
from fracrel.report import frozen_entry

import reference
from oracles import calibration_tables, ledger_check

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return path


def symbol_config(tmp_path, outname="out", **overrides):
    overrides.setdefault("suite", "symbol")
    overrides.setdefault("output.dir", str(tmp_path / outname))
    return write_config(tmp_path, f"{outname}.json", **overrides)


# ------------------------------------------------------------------ config

def test_defaults_cover_every_suite():
    assert DEFAULTS["suite"] == "all"
    assert set(SUITES) == {"equivalence", "heat", "linear-carleman",
                           "symbol", "quadratic-carleman", "all"}


def test_load_config_merges_overrides(tmp_path):
    path = write_config(tmp_path, **{"suite": "heat", "sweep.count": 3})
    cfg = load_config(path)
    assert cfg["suite"] == "heat"
    assert cfg["sweep.count"] == 3
    assert cfg["grid.L"] == DEFAULTS["grid.L"]


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, **{"tolernace.energy": 1e-3})
    with pytest.raises(ConfigError, match="tolernace.energy"):
        load_config(path)


def test_load_config_rejects_nested_sections(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"grid": {"L": 20.0}}))
    with pytest.raises(ConfigError, match="'grid'"):
        load_config(path)


def test_load_config_rejects_bad_values(tmp_path):
    for overrides, key in (
            ({"seed": -1}, "seed"),
            ({"seed": 2 ** 64}, "seed"),
            ({"seed": "abc"}, "seed"),
            ({"suite": "everything"}, "suite"),
            ({"tolerance.energy": 0.0}, "tolerance.energy"),
            ({"grid.n": 4}, "grid.n"),
            ({"grid.n": 1000}, "grid.n"),
            ({"linear.n": 1000}, "linear.n"),
            ({"linear.n": 64}, "linear.n"),
            ({"linear.L": 20.0}, "linear.L"),
            ({"symbol.matrix_n": 8}, "symbol.matrix_n"),
            ({"linear.L": -1.0}, "linear.L"),
            ({"quadratic.R": 0.0}, "quadratic.R"),
            ({"operator.s": 1.5}, "operator.s"),
            ({"operator.s": 0.0}, "operator.s"),
            ({"operator.m": -1.0}, "operator.m"),
            ({"sweep.count": 0}, "sweep.count"),
            ({"output.dir": ""}, "output.dir"),
            ({"tolerance.energy": float("inf")}, "tolerance.energy"),
            ({"grid.L": float("inf")}, "grid.L"),
            ({"quadratic.alpha": float("inf")}, "quadratic.alpha"),
            ({"linear.drift": float("-inf")}, "linear.drift"),
            ({"linear.lam": float("nan")}, "linear.lam"),
            ({"operator.m": float("nan")}, "operator.m"),
            ({"grid.L": 10 ** 400}, "grid.L"),
            ({"grid.n": float("inf")}, "grid.n"),
            ({"seed": float("nan")}, "seed")):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)


def test_linear_corpus_guards_follow_the_corpus_constants(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # at the packaged corpus (40 modes in |x| <= 12) the bounds are the
    # historical ones; moving a corpus constant moves its load-time guard
    load_config(write_config(tmp_path, **{"linear.L": 24.0, "linear.n": 128}))
    monkeypatch.setattr(grid, "_CORPUS_OUTER", 16.0)
    monkeypatch.setattr(grid, "_CORPUS_K_MAX", 64)
    for key, value, bound in (("linear.L", 24.0, "at least 32"),
                              ("linear.n", 128, "more than 128 nodes")):
        out = tmp_path / key
        cfg = symbol_config(tmp_path, outname=key, **{key: value})
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and bound in err
        assert not out.exists()


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"suite": "sym')
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_split_rng_is_stable_and_keyed():
    a = _split_rng(7, "heat", "log_convexity").standard_normal(4)
    b = _split_rng(7, "heat", "log_convexity").standard_normal(4)
    assert list(a) == list(b)
    for key in ((8, "heat", "log_convexity"), (7, "symbol", "appendix")):
        assert list(a) != list(_split_rng(*key).standard_normal(4))


# ------------------------------------------------------------------ run

def test_run_symbol_suite_passes(tmp_path, capsys):
    cfg = symbol_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    outdir = tmp_path / "out"
    bundle = json.loads((outdir / "report.json").read_text())
    body = bundle["body"]
    assert body["summary"]["failed"] == []
    assert body["summary"]["total"] == body["summary"]["passed"]
    # wall-clock data stays out of the body
    assert "wall_time_s" not in json.dumps(body)
    assert "wall_time_s" in json.dumps(bundle["meta"])


def test_run_meta_names_each_check_timing(tmp_path):
    assert main(["run", str(symbol_config(tmp_path))]) == 0
    bundle = json.loads((tmp_path / "out" / "report.json").read_text())
    names = [d["name"] for d in bundle["body"]["reports"]]
    checks = bundle["meta"]["checks"]
    assert [c["name"] for c in checks] == names
    assert [c["index"] for c in checks] == list(range(len(names)))
    assert all(c["wall_time_s"] > 0.0 for c in checks)
    assert "checks" not in bundle["body"]


def test_checked_names_and_times_every_report():
    # a check returns its report unnamed and untimed; the runner's guard
    # stamps both, on a report and on the failed report of a raise alike
    u0 = grid.gaussian(40.0, 1024, sigma=2.0)
    p = OperatorParams(0.5, 1.0)
    rep = heat.energy_identity_check(u0, p)
    assert (rep.name, rep.wall_time_s) == ("", 0.0)
    rep = cli._checked("heat.energy_identity",
                       lambda: heat.energy_identity_check(u0, p))
    assert rep.name == "heat.energy_identity" and rep.wall_time_s > 0.0
    assert rep.passed
    failed = cli._checked("heat.weighted_decay",
                          lambda: heat.weighted_decay_check(u0, 5.0, p))
    assert failed.name == "heat.weighted_decay" and failed.wall_time_s > 0.0
    assert not failed.passed
    assert failed.measured["error"].startswith("PreconditionError: ")


def test_run_reports_csv_schema(tmp_path):
    cfg = symbol_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    rows = list(csv.reader((tmp_path / "out" / "reports.csv")
                           .read_text().splitlines()))
    assert rows[0] == ["suite", "check", "parameters", "measured",
                      "tolerance", "pass"]
    body = json.loads((tmp_path / "out" / "report.json").read_text())["body"]
    assert len(rows) == 1 + body["summary"]["total"]
    for row in rows[1:]:
        assert row[0] == "symbol"
        json.loads(row[2])
        assert "violation" in json.loads(row[3]) or row[1] == \
            "symbol.falsification_witness"
        assert row[5] == "true"


def test_run_identical_seeds_byte_identical(tmp_path):
    cfg1 = symbol_config(tmp_path, outname="one")
    cfg2 = symbol_config(tmp_path, outname="two")
    assert main(["run", str(cfg1)]) == 0
    assert main(["run", str(cfg2)]) == 0
    csv1 = (tmp_path / "one" / "reports.csv").read_bytes()
    csv2 = (tmp_path / "two" / "reports.csv").read_bytes()
    assert csv1 == csv2
    bodies = []
    for name in ("one", "two"):
        bundle = json.loads((tmp_path / name / "report.json").read_text())
        body = bundle["body"]
        body["config"].pop("output.dir")
        bodies.append(json.dumps(body, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_run_different_seed_changes_random_checks(tmp_path):
    cfg1 = symbol_config(tmp_path, outname="one")
    cfg2 = symbol_config(tmp_path, outname="two", seed=7)
    main(["run", str(cfg1)])
    main(["run", str(cfg2)])

    def measured(name, check):
        body = json.loads((tmp_path / name / "report.json").read_text())["body"]
        return [d["measured"] for d in body["reports"]
                if d["name"] == check]

    assert measured("one", "symbol.bracket_fd") != \
        measured("two", "symbol.bracket_fd")


def test_run_failure_exit_code_and_reports(tmp_path):
    cfg = symbol_config(tmp_path, **{"tolerance.commutator": 1e-18})
    assert main(["run", str(cfg)]) == 1
    body = json.loads((tmp_path / "out" / "report.json").read_text())["body"]
    assert "symbol.s1_commutator" in body["summary"]["failed"]
    assert (tmp_path / "out" / "reports.csv").exists()


def test_equivalence_checks_fail_below_their_measured_error():
    # negative control: the kernel pairs measure about 1e-5 and spectral
    # against subordination about 5e-11, so at 1e-12 every pair must fail
    # with its measured error as the violation
    cfg = dict(DEFAULTS, **{"tolerance.equivalence": 1e-12, "grid.n": 1024})
    reports = cli._suite_equivalence(cfg)
    names = [f"equivalence.{pair}" for pair in (
        "spectral_vs_singular", "spectral_vs_subordination",
        "singular_vs_subordination")]
    assert [r.name for r in reports] == names * 9
    for r in reports:
        assert r.passed is False, r.name
        assert r.tolerance == 1e-12
        assert r.measured["violation"] == r.measured["rel_error"] > 1e-12


@pytest.mark.parametrize("piece, mutate", [
    ("mixed", lambda br: br._replace(mixed=0.5 * br.mixed,
                                     total=br.total - br.mixed)),
    ("curvature", lambda br: br._replace(curv_psi2=0.0 * br.curv_psi2,
                                         total=br.total - br.curv_psi2)),
    ("curvature", lambda br: br._replace(curv_psi1=0.0 * br.curv_psi1,
                                         total=br.total - br.curv_psi1)),
], ids=["mixed-counted-once", "psi2-piece-dropped", "psi1-piece-dropped"])
def test_bracket_fd_report_names_a_mutated_piece(piece, mutate, monkeypatch):
    # negative control: a parabolic bracket that counts the mixed term
    # once, or drops either part of phi_tt, fails the default report, and
    # its largest per-piece error is in the piece that was broken
    real = symbols.parabolic_bracket
    monkeypatch.setattr(symbols, "parabolic_bracket",
                        lambda *args: mutate(real(*args)))
    r = symbols.bracket_fd_check(
        _split_rng(DEFAULTS["seed"], "symbol", "bracket_fd"),
        DEFAULTS["tolerance.bracket"])
    assert r.passed is False
    assert r.measured["violation"] == r.measured["rel_error"] > r.tolerance
    pieces = {key: r.measured[f"rel_error_{key}"]
              for key in ("base", "mixed", "curvature")}
    assert max(pieces, key=pieces.get) == piece
    assert pieces[piece] > r.tolerance


def test_bracket_fd_passes_on_seeds_0_to_39():
    # the run's sample of each seed, at the run's tolerance: with the
    # difference step at 1e-4 its truncation error read 1.3e-5 at seed 36
    failed = {}
    for seed in range(40):
        r = symbols.bracket_fd_check(_split_rng(seed, "symbol", "bracket_fd"),
                                     DEFAULTS["tolerance.bracket"])
        if not r.passed:
            failed[seed] = r.measured["rel_error"]
    assert failed == {}


def test_run_malformed_config_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"tolernace.energy": 1e-3})
    assert main(["run", str(cfg)]) == 2
    assert "tolernace.energy" in capsys.readouterr().err
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text("{")
    assert main(["run", str(cfg2)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    # out of the domain: rejected at load time, before any suite runs
    cfg3 = symbol_config(tmp_path, outname="domain", **{"operator.s": 1.5})
    assert main(["run", str(cfg3)]) == 2
    assert "operator.s" in capsys.readouterr().err
    assert not (tmp_path / "domain").exists()


def test_run_rejects_non_finite_tolerances(tmp_path, capsys):
    # json reads Infinity; an infinite tolerance would pass every check
    cfg = write_config(tmp_path, **{
        "suite": "heat", "output.dir": str(tmp_path / "out"),
        "tolerance.energy": float("inf"),
        "tolerance.log_convexity": float("inf")})
    assert "Infinity" in cfg.read_text()
    assert main(["run", str(cfg)]) == 2
    assert "tolerance.energy" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_heat_suite_passes_on_seeds_0_to_39():
    # the log-convexity data sit in |x| <= L/8, so under the tilt
    # e^(lam x) they have decayed by the seam: windowed out to L/4, 21 of
    # these seeds leaked past SEAM_TOL there
    failed = {}
    for seed in range(40):
        reports = cli._suite_heat(dict(DEFAULTS, seed=seed))
        bad = [(r.name, r.measured) for r in reports if not r.passed]
        if bad:
            failed[seed] = bad
    assert failed == {}


def test_linear_suite_evolves_each_trajectory_once(monkeypatch):
    # the series of one exact free stream feed both the monotonicity and
    # the tent check, and the ledger draws' group is stepped once: one
    # stream per flow, each read to its end, and V sampled once per draw;
    # the two draws of sweep.count 2 form one group, whose stream is one
    # chunk per state, a row per draw; the jobs run concurrently, so the
    # streams may start in any order
    free, stepped, samples = [], [], []

    def counting(streams, evolve):
        def stream(*args, **kwargs):
            chunks = []
            streams.append(chunks)
            for times, rows in evolve(*args, **kwargs):
                chunks.append((len(times), len(rows)))
                yield times, rows
        return stream

    sample = heat.PotentialField.sample
    monkeypatch.setattr(heat, "evolve_free", counting(free, heat.evolve_free))
    monkeypatch.setattr(linear_carleman, "evolve_with_potential",
                        counting(stepped, heat.evolve_with_potential))
    monkeypatch.setattr(heat.PotentialField, "sample",
                        lambda V, grid: samples.append(1) or sample(V, grid))
    cfg = dict(DEFAULTS, **{"sweep.count": 2})
    reports = cli._suite_linear(cfg)
    assert [sum(t for t, _ in chunks) for chunks in free] == [1001]
    assert [sum(t for t, _ in chunks) for chunks in stepped] == [101]
    assert {shape for chunks in stepped for shape in chunks} == {(1, 2)}
    assert len(samples) == cfg["sweep.count"]
    assert [r.name for r in reports[:2]] == [
        "linear_carleman.monotonicity", "linear_carleman.tent_identity"]
    assert len(reports) == 2 + cfg["sweep.count"]
    assert all(r.passed for r in reports)


def test_linear_suite_output_does_not_depend_on_the_cpus(tmp_path,
                                                         monkeypatch):
    # one thread per CPU runs the jobs; the body and the table come out
    # byte-identical on one CPU, on two, and on eight threads (more than
    # the cores and the jobs) that switch every microsecond
    cfg = dict(DEFAULTS, **{"suite": "linear-carleman", "sweep.count": 4})
    outputs, interval = [], sys.getswitchinterval()
    try:
        for cpus, switch in (({0}, interval), ({0, 1}, interval),
                             (set(range(8)), 1e-6)):
            monkeypatch.setattr(cli.os, "sched_getaffinity",
                                lambda pid: cpus)
            sys.setswitchinterval(switch)
            out = tmp_path / f"cpus{len(cpus)}"
            assert write_outputs(out, cfg, [("linear-carleman",
                                             cli._suite_linear(cfg))])
            body = json.loads((out / "report.json").read_text())["body"]
            outputs.append((json.dumps(body, sort_keys=True),
                            (out / "reports.csv").read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1] == outputs[2]
    assert [r["inputs"].get("draw") for r in json.loads(
        outputs[0][0])["reports"]] == [None, None, 0, 1, 2, 3]


def test_linear_suite_runs_without_sched_getaffinity(monkeypatch):
    # macOS and Windows builds of CPython have no os.sched_getaffinity; the
    # suite sizes its pool by os.cpu_count there
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    reports = cli._suite_linear(dict(DEFAULTS, **{"sweep.count": 2}))
    assert [r.name for r in reports] == [
        "linear_carleman.monotonicity", "linear_carleman.tent_identity",
        "linear_carleman.ledger", "linear_carleman.ledger"]
    assert all(r.passed for r in reports)


def ledger_dicts(reports) -> list:
    """The ledger reports' dicts, without their wall times."""
    return [{k: v for k, v in r.to_dict().items() if k != "wall_time_s"}
            for r in reports if r.name == "linear_carleman.ledger"]


def test_ledger_reports_do_not_depend_on_the_grouping():
    # draw 4 is a group of one at sweep.count 5 and stepped with draws 5
    # to 7 at sweep.count 8; draws 0 to 3 are one group in both
    five, eight = (ledger_dicts(cli._suite_linear(
        dict(DEFAULTS, **{"sweep.count": count}))) for count in (5, 8))
    assert [d["inputs"]["draw"] for d in eight] == list(range(8))
    assert five == eight[:5]


def solo_dict(draw, u0, V, cfg) -> dict:
    """The ledger report of the draw (u0, V) stepped as a group of one, as
    the runner names and stamps it, without its wall time."""
    w = linear_carleman.LinearWeight(cfg["linear.lam"], cfg["linear.drift"])
    p = OperatorParams(cfg["operator.s"], cfg["operator.m"])

    def check():
        rep = ledger_check(u0, V, w, p)
        rep.inputs["draw"] = draw
        return rep
    return ledger_dicts([cli._checked("linear_carleman.ledger", check)])[0]


@pytest.mark.parametrize("fail, error", [
    # the potential past ||V|| dt < 1/2 refuses the group's step
    (lambda u0, V: (u0, heat.PotentialField(
        V.profile.with_values(60.0 * V.profile.values))),
     "PreconditionError: need ||V|| * dt < 1/2 for the step, got 0.6"),
    # unwindowed data leak at the seam at the first state
    (lambda u0, V: (u0.with_values(u0.values + 1e-3), V),
     "SeamLeakError: tilted mass integrand has relative magnitude ")])
def test_one_failing_draw_leaves_its_group_mates(monkeypatch, fail, error):
    # draw 2 of the group of draws 0 to 3 fails: its report is the error it
    # meets as a group of one, and each other draw's report is its solo one
    cfg = dict(DEFAULTS, **{"sweep.count": 5})
    corpus = linear_carleman.carleman_corpus

    def failing_corpus(*args):
        for i, (u0, V) in enumerate(corpus(*args)):
            yield fail(u0, V) if i == 2 else (u0, V)

    monkeypatch.setattr(linear_carleman, "carleman_corpus", failing_corpus)
    got = ledger_dicts(cli._suite_linear(cfg))
    draws = list(failing_corpus(cfg["linear.L"], int(cfg["linear.n"]),
                                cfg["sweep.count"], cli._corpus_seed(cfg)))
    assert got == [solo_dict(i, u0, V, cfg) for i, (u0, V)
                   in enumerate(draws)]
    assert got[2]["measured"]["error"].startswith(error)
    assert [d["passed"] for d in got] == [True, True, False, True, True]


def test_linear_suite_holds_no_trajectory():
    # the states are integrated as they are stepped: the stored 1001-state
    # free trajectory (31 MiB) and each draw's 101 states are never held
    cfg = dict(DEFAULTS, **{"sweep.count": 2})
    u0 = GridFunction(cfg["linear.L"], cfg["linear.n"],
                      np.zeros(cfg["linear.n"]))
    p = OperatorParams(cfg["operator.s"], cfg["operator.m"])
    apply_spectral(u0, p, OperatorParams(2.0 * p.s, p.m))
    tracemalloc.start()
    try:
        reports = cli._suite_linear(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def seam_leak(what, magnitude):
    return (f"SeamLeakError: {what} integrand has relative magnitude "
            f"{magnitude} at the periodic seam (allowed 1.0e-10); enlarge "
            f"the box or window the data")


@pytest.mark.parametrize("overrides, monotonicity, tent", [
    # the production leaks before the mass: each check fails on the first
    # failure of what it reads
    ({"linear.L": 24.0}, seam_leak("production", "1.095e-10"),
     seam_leak("tilted mass", "1.015e-10")),
    # the tilt fails the monotonicity check's precondition; the tent has
    # none and reads its mass, whose leak is the free flow's far-field
    # roundoff floor lifted by the tilt e^(lam L/2), so it pins the flow's
    # rounding, not its mathematics
    ({"linear.lam": 1.0},
     "PreconditionError: tilt needs |lam| < m, got lam=1 with m=1",
     seam_leak("tilted mass", "6.246e-05"))])
def test_free_flow_checks_keep_their_own_failures(overrides, monotonicity,
                                                  tent):
    cfg = dict(DEFAULTS, **{"sweep.count": 1}, **overrides)
    reports = cli._suite_linear(cfg)
    assert [r.measured.get("error") for r in reports[:2]] == [
        monotonicity, tent]


def test_ledger_report_witnesses_a_corollary_failure(monkeypatch):
    # the main inequality holds and only the corollary fails: the ledger
    # job's report fails, carries the ledger as its witness and is stamped
    # with its draw
    real = linear_carleman._ledger

    def corollary_fails(*args):
        return dict(real(*args), corollary_slack=-0.2,
                    corollary_passed=False)

    monkeypatch.setattr(linear_carleman, "_ledger", corollary_fails)
    rep = cli._suite_linear(dict(DEFAULTS, **{"sweep.count": 1}))[2]
    assert rep.name == "linear_carleman.ledger"
    assert not rep.passed
    assert rep.inputs == {"draw": 0, "lam": 0.5, "drift": -11.0, "s": 0.5,
                          "m": 1.0}
    assert rep.measured["slack"] > 0.0
    assert rep.measured["corollary_slack"] == -0.2
    assert rep.witness["passed"] is True
    assert rep.witness["corollary_passed"] is False


def test_failing_check_keeps_the_rest_of_its_suite(tmp_path, capsys):
    # at linear.n = 1024 every ledger draw leaks at the seam; each error is
    # that draw's own failed report, and the checks that passed stay
    for magnitudes in (["7.214e-09"],
                       ["7.214e-09", "8.136e-08", "4.975e-08", "7.882e-10",
                        "1.188e-08", "4.469e-08", "5.632e-09", "5.689e-09"]):
        out = tmp_path / f"out{len(magnitudes)}"
        cfg = write_config(tmp_path, **{
            "suite": "linear-carleman", "linear.n": 1024,
            "sweep.count": len(magnitudes), "output.dir": str(out)})
        assert main(["run", str(cfg)]) == 1
        body = json.loads((out / "report.json").read_text())["body"]
        reports = body["reports"]
        assert [r["name"] for r in reports] == [
            "linear_carleman.monotonicity", "linear_carleman.tent_identity"
        ] + ["linear_carleman.ledger"] * len(magnitudes)
        assert reports[0]["passed"] and reports[1]["passed"]
        assert [r["passed"] for r in reports[2:]] == [False] * len(magnitudes)
        assert [r["measured"]["error"] for r in reports[2:]] == [
            seam_leak("kinetic", m) for m in magnitudes]
        # the runner stamps the draw only on a report the check returned
        assert [r["inputs"] for r in reports[2:]] == [{}] * len(magnitudes)
        total = 2 + len(magnitudes)
        assert f"2/{total} checks passed" in capsys.readouterr().out


# ------------------------------------------------------------------ names

def _docstrings(tree) -> set:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def name_spellings(src, names) -> dict:
    """Each of ``names`` -> where the package spells it, as (file, line,
    whether it is the first argument of a ``_checked`` call in cli.py).
    Every string constant counts but docstrings; an f-string counts once,
    as any identifier in each of its fields."""
    found = {name: [] for name in names}
    for path in sorted((src / "fracrel").glob("*.py")):
        tree = ast.parse(path.read_text())
        guards = {id(node.args[0]) for node in ast.walk(tree)
                  if path.name == "cli.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "_checked" and node.args}
        skip = _docstrings(tree) | {
            id(part) for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) for part in node.values}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                pattern = re.escape(node.value)
            elif isinstance(node, ast.JoinedStr):
                pattern = "".join(
                    re.escape(part.value) if isinstance(part, ast.Constant)
                    else r"\w+" for part in node.values)
            else:
                continue
            for name in names:
                if re.fullmatch(pattern, name):
                    found[name].append((path.name, node.lineno,
                                        id(node) in guards))
    return found


def misspelled(found) -> list:
    """The names not spelled exactly once, as a ``_checked`` argument."""
    return sorted(name for name, spots in found.items()
                  if len(spots) != 1 or not spots[0][2])


@pytest.fixture(scope="module")
def default_reports(tmp_path_factory):
    """The report list of ``fracrel run {}``, run once for this module."""
    return reference.default_reports(tmp_path_factory.mktemp("default"))


@pytest.fixture(scope="module")
def emitted_names(default_reports):
    return sorted({r["name"] for r in default_reports})


def test_default_run_matches_the_reference(default_reports):
    # tests/data/run_default.json; a change that moves numbers on purpose
    # regenerates it (see tests/reference.py), and its diff lists them
    moved = reference.moved(default_reports, reference.load())
    assert not moved, "moved from the reference:\n" + "\n".join(moved)


def test_negative_control_a_moved_value_is_named():
    want = reference.load()
    got = json.loads(json.dumps(want))
    got[9]["measured"]["rel_error"] *= 1.0 + 1e-6
    got[53]["measured"]["rel_error"] = 2e-9
    got[54]["measured"]["rel_frobenius"] = 2e-13
    got[0]["inputs"]["n"] = 2048
    del got[1]["measured"]["violation"]
    assert reference.moved(got, want) == [
        "[0] equivalence.spectral_vs_singular inputs: {'L': 40.0, 'm': 0.5, "
        "'n': 2048, 's': 0.3}, reference {'L': 40.0, 'm': 0.5, 'n': 4096, "
        "'s': 0.3}",
        "[1] equivalence.spectral_vs_subordination measured keys: "
        "['rel_error'], reference ['rel_error', 'violation']",
        f"[9] equivalence.spectral_vs_singular measured.rel_error: "
        f"{got[9]['measured']['rel_error']!r}, reference "
        f"{want[9]['measured']['rel_error']!r}",
        "[53] symbol.s1_commutator measured.rel_error: 2e-09, reference "
        f"{want[53]['measured']['rel_error']!r}",
        "[54] symbols.appendix_conjugation measured.rel_frobenius: 2e-13, "
        f"reference {want[54]['measured']['rel_frobenius']!r}"]
    # roundoff-level values only have to stay below their floor, and the
    # moves other CPUs' kernels make stay inside the comparison
    got = json.loads(json.dumps(want))
    got[54]["measured"]["rel_frobenius"] = 9e-14
    got[53]["measured"]["rel_error"] = 9e-10
    got[51]["measured"]["order_max"]["7"] *= 50.0
    got[63]["measured"]["headroom"] *= 1.0 + 5e-8
    assert reference.moved(got, want) == []


def test_each_report_name_is_spelled_once_in_the_runner(emitted_names):
    # the runner names each report where it guards the check; no check,
    # and no second guard, spells a name again
    found = name_spellings(SRC, emitted_names)
    assert misspelled(found) == [], found


def test_negative_control_a_name_spelled_in_a_check_fails(tmp_path,
                                                          emitted_names):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    heat_py = src / "fracrel" / "heat.py"
    heat_py.write_text(heat_py.read_text()
                       + '\n_NAME = "heat.energy_identity"\n')
    assert misspelled(name_spellings(src, emitted_names)) == [
        "heat.energy_identity"]


def test_defaults_subcommand_prints_reference(tmp_path, capsys):
    assert main(["defaults"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == DEFAULTS


def test_console_entry_point(tmp_path):
    cfg = symbol_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fracrel.cli", "run", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


# a fresh interpreter loads the CLI, validates the first config, then runs
# every config; it prints which of the watched modules each stage left loaded
COLD_PROBE = """
import json, sys
from fracrel import cli
watch = ("fracrel.symbols", "fracrel.heat", "fracrel.linear_carleman",
         "hashlib", "_hashlib", "numpy.polynomial")
cli.load_config(sys.argv[1])
stages = {"load_config": [m for m in watch if m in sys.modules]}
for path in sys.argv[1:]:
    assert cli.main(["run", path]) == 0
    suite = json.loads(open(path).read())["suite"]
    stages[suite] = [m for m in watch if m in sys.modules]
print(json.dumps(stages))
"""


def cold_stages(src, tmp_path, *suites) -> dict:
    configs = [str(write_config(tmp_path, f"{suite}.json", **{
        "suite": suite, "grid.n": 1024, "output.dir": str(tmp_path / suite)}))
        for suite in suites]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, *configs],
        capture_output=True, text=True, env={**os.environ,
                                            "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cold_path_faults(stages) -> list:
    """The watched modules a stage loaded though its suite never runs them:
    validation and suite equivalence need none."""
    return ([f"load_config loaded {m}" for m in stages["load_config"]]
            + [f"suite equivalence loaded {m}"
               for m in stages["equivalence"]])


def test_cold_path_loads_only_what_its_suite_runs(tmp_path):
    stages = cold_stages(SRC, tmp_path, "equivalence", "symbol")
    assert cold_path_faults(stages) == []
    # positive control: the probe sees a module that a suite does load
    assert "fracrel.symbols" in stages["symbol"]


def test_negative_control_eager_hashlib_fails_the_cold_path(tmp_path):
    # a copy of the package whose CLI imports hashlib at the top again
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = src / "fracrel" / "cli.py"
    text = cli_py.read_text()
    assert text.count("\nimport csv\n") == 1
    cli_py.write_text(text.replace("\nimport csv\n",
                                   "\nimport csv\nimport hashlib\n"))
    faults = cold_path_faults(cold_stages(src, tmp_path, "equivalence"))
    assert {"load_config loaded hashlib",
            "suite equivalence loaded _hashlib"} <= set(faults)


def test_negative_control_eager_heat_fails_the_cold_path(tmp_path):
    # a copy of the package whose CLI imports the heat flow at the top again
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = src / "fracrel" / "cli.py"
    text = cli_py.read_text()
    assert text.count("\nfrom . import grid\n") == 1
    cli_py.write_text(text.replace(
        "\nfrom . import grid\n",
        "\nfrom . import grid\nfrom .heat import evolve_free\n"))
    faults = cold_path_faults(cold_stages(src, tmp_path, "equivalence"))
    assert {"load_config loaded fracrel.heat",
            "suite equivalence loaded fracrel.heat"} <= set(faults)


# a fresh interpreter runs one command; it prints whether numpy.random (the
# seeded draws) and _hashlib (OpenSSL) are loaded after it
SEEDED_PROBE = """
import json, sys
from fracrel import cli
assert cli.main(sys.argv[1:]) == 0
print(json.dumps({m: m in sys.modules for m in ("numpy.random", "_hashlib")}))
"""


def openssl_faults(src, tmp_path) -> list:
    """The seeded commands that drew no numbers or loaded OpenSSL, each
    run in its own fresh interpreter on ``src``."""
    commands = {
        "run heat": ("run", {"suite": "heat", "grid.n": 1024}),
        "run linear-carleman": ("run", {"suite": "linear-carleman"}),
        "calibrate quadratic-carleman": ("calibrate",
                                         {"suite": "quadratic-carleman"}),
    }
    procs = {}
    for i, (label, (command, overrides)) in enumerate(commands.items()):
        cfg = write_config(tmp_path, f"seeded{i}.json", **{
            **overrides, "sweep.count": 1,
            "output.dir": str(tmp_path / f"seeded{i}")})
        procs[label] = subprocess.Popen(
            [sys.executable, "-c", SEEDED_PROBE, command, str(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
    faults = []
    for label, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        loaded = json.loads(out.splitlines()[-1])
        if not loaded["numpy.random"]:
            faults.append(f"{label} drew no numbers")
        if loaded["_hashlib"]:
            faults.append(f"{label} loaded _hashlib")
    return faults


def test_seeded_runs_load_no_openssl(tmp_path):
    # numpy.random loaded is the positive control: each command drew
    assert openssl_faults(SRC, tmp_path) == []


def test_negative_control_rng_without_the_helper_loads_openssl(tmp_path):
    # a copy whose generator constructor lets numpy.random import hashlib
    # itself; the run suites hash their seeds through the helper first, so
    # only the quadratic calibration, which hashes nothing, still shows it
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    grid_py = src / "fracrel" / "grid.py"
    text = grid_py.read_text()
    held = "    _load_hashlib()\n    return np.random.default_rng(seed)\n"
    assert text.count(held) == 1
    grid_py.write_text(text.replace(
        held, "    return np.random.default_rng(seed)\n"))
    assert openssl_faults(src, tmp_path) == [
        "calibrate quadratic-carleman loaded _hashlib"]


# a fresh interpreter prints the linear corpus seed, the first draws of one
# split stream and whether OpenSSL is loaded; with the built-in SHA-256
# blocked first, the helper must leave hashlib on OpenSSL
PIN_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["_sha256"] = sys.modules["_sha2"] = None
from fracrel import cli
seed = cli._corpus_seed({"seed": 20260822})
draws = cli._split_rng(20260822, "symbol", "appendix").standard_normal(3)
print(json.dumps([seed, draws.tolist(), "_hashlib" in sys.modules]))
"""


@pytest.mark.parametrize("path,openssl", [("builtin", False),
                                          ("blocked", True)])
def test_holding_openssl_off_changes_no_digest_and_no_stream(path, openssl):
    proc = subprocess.run(
        [sys.executable, "-c", PIN_PROBE, path], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    # the values of the OpenSSL-backed hashlib before the helper existed
    assert json.loads(proc.stdout) == [
        3153282451281769075,
        [0.11685906450838672, 0.8688619723107412, -0.3497081160002033],
        openssl]


def seeding_sites(src) -> dict:
    """Where ``src/fracrel`` names ``default_rng`` and where it imports
    ``hashlib``, each as a set of (file, innermost enclosing function)."""
    sites = {"default_rng": set(), "import hashlib": set()}

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == "default_rng"
                or isinstance(node, ast.Attribute)
                and node.attr == "default_rng"
                or isinstance(node, ast.alias)
                and node.name == "default_rng"):
            sites["default_rng"].add((path.name, where))
        if (isinstance(node, ast.Import)
                and any(a.name == "hashlib" for a in node.names)
                or isinstance(node, ast.ImportFrom)
                and node.module == "hashlib"):
            sites["import hashlib"].add((path.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted((src / "fracrel").glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return sites


def test_one_generator_constructor_and_one_hashlib_import():
    # every seeded draw and every digest goes through the OpenSSL-free path
    assert seeding_sites(SRC) == {
        "default_rng": {("grid.py", "rng")},
        "import hashlib": {("grid.py", "_load_hashlib")}}


# ------------------------------------------------------------------ calibrate

def test_calibrate_quadratic_table(tmp_path):
    cfg = write_config(tmp_path, **{
        "suite": "quadratic-carleman",
        "output.dir": str(tmp_path / "cal")})
    assert main(["calibrate", str(cfg)]) == 0
    table = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    body = table["body"]
    assert len(body["tables"]["quadratic"]) == 6
    assert body["provenance"]["seed"] == DEFAULTS["seed"]
    modes = {(e["mode"], e["s"], e["m_ratio"])
             for e in body["tables"]["quadratic"]}
    assert ("parabolic", 0.75, 1.0) in modes


def test_calibrate_linear_matches_frozen_constants(tmp_path):
    from fracrel.linear_carleman import load_calibration
    from fracrel.operator import OperatorParams
    cfg = write_config(tmp_path, **{
        "suite": "linear-carleman",
        "output.dir": str(tmp_path / "cal"),
        "sweep.count": 2})
    assert main(["calibrate", str(cfg)]) == 0
    table = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    fresh = table["body"]["tables"]["linear"]
    frozen = load_calibration(OperatorParams(0.5, 1.0), 0.5)
    assert fresh["C1"] == frozen["C1"]
    assert fresh["C2"] == pytest.approx(frozen["C2"], rel=1e-12)
    assert len(table["body"]["provenance"]["linear"]["corpus_sha256"]) == 64


def test_calibrated_linear_table_matches_the_reference(tmp_path):
    # tests/data/calibrate_linear.json holds the linear table and its
    # provenance at sweep.count 4; a change that moves them on purpose
    # regenerates it (see tests/reference.py), and its diff lists them
    got = reference.calibrated_linear_table(tmp_path)
    moved = reference.moved_table(got, reference.load_calibration())
    assert not moved, "moved from the reference:\n" + "\n".join(moved)


def test_negative_control_a_moved_table_value_is_named():
    want = reference.load_calibration()
    got = json.loads(json.dumps(want))
    got["table"]["C2"] *= 1.0 + 1e-6
    got["table"]["empirical"]["c1_need"] = 1e-300
    got["provenance"]["corpus_sha256"] = "0" * 64
    assert reference.moved_table(got, want) == [
        f"linear.provenance.corpus_sha256: {'0' * 64!r}, reference "
        f"{want['provenance']['corpus_sha256']!r}",
        f"linear.table.C2: {got['table']['C2']!r}, reference "
        f"{want['table']['C2']!r}",
        "linear.table.empirical.c1_need: 1e-300, reference 0.0"]
    got = json.loads(json.dumps(want))
    got["table"]["C2"] *= 1.0 + 5e-8
    assert reference.moved_table(got, want) == []


def test_calibrate_rejects_suite_without_constants(tmp_path, capsys):
    cfg = write_config(tmp_path, **{
        "suite": "equivalence", "output.dir": str(tmp_path / "cal")})
    assert main(["calibrate", str(cfg)]) == 2
    assert "equivalence" in capsys.readouterr().err


def test_calibrate_error_is_written_not_raised(tmp_path, capsys):
    # the seam leak that fails the ledger at linear.n = 1024 also stops the
    # linear calibration: it lands in calibration.json with exit 1
    out = tmp_path / "cal"
    cfg = write_config(tmp_path, **{
        "suite": "linear-carleman", "linear.n": 1024, "sweep.count": 1,
        "output.dir": str(out)})
    assert main(["calibrate", str(cfg)]) == 1
    body = json.loads((out / "calibration.json").read_text())["body"]
    assert body["errors"]["linear"].startswith("SeamLeakError: ")
    assert body["tables"] == {}
    assert "calibration failed: SeamLeakError" in capsys.readouterr().err


def test_calibrate_failed_table_leaves_the_others(tmp_path, monkeypatch):
    # the symbol and quadratic sweeps never read the linear grid, so the
    # linear seam leak must not cost their tables; stubs keep this fast
    monkeypatch.setattr(symbols, "calibrate_positivity",
                        lambda s, mr: {"stub": "positivity", "m": mr})
    monkeypatch.setattr(symbols, "calibrate_garding",
                        lambda s, mr: {"stub": "garding", "m": mr})
    monkeypatch.setattr(symbols, "calibrate_quadratic",
                        lambda mode, s, mr, seed: {"stub": mode, "s": s})
    out = tmp_path / "cal"
    cfg = write_config(tmp_path, **{
        "suite": "all", "linear.n": 1024, "sweep.count": 1,
        "output.dir": str(out)})
    assert main(["calibrate", str(cfg)]) == 1
    body = json.loads((out / "calibration.json").read_text())["body"]
    assert list(body["errors"]) == ["linear"]
    assert body["errors"]["linear"].startswith("SeamLeakError: ")
    assert sorted(body["tables"]) == ["garding", "positivity", "quadratic"]
    assert body["tables"]["positivity"] == [
        {"stub": "positivity", "m": 0.0}, {"stub": "positivity", "m": 1.0}]
    assert body["tables"]["garding"][1] == {"stub": "garding", "m": 1.0}
    assert len(body["tables"]["quadratic"]) == 6


def test_calibrate_meta_records_timings_and_versions(tmp_path, monkeypatch):
    monkeypatch.setattr(symbols, "calibrate_positivity",
                        lambda s, mr: {"stub": "positivity", "m": mr})
    monkeypatch.setattr(symbols, "calibrate_garding",
                        lambda s, mr: {"stub": "garding", "m": mr})
    cfg = write_config(tmp_path, **{
        "suite": "symbol", "output.dir": str(tmp_path / "cal")})
    path = tmp_path / "cal" / "calibration.json"
    assert main(["calibrate", str(cfg)]) == 0
    bundle = json.loads(path.read_text())
    meta = bundle["meta"]
    assert sorted(meta["table_wall_s"]) == sorted(bundle["body"]["tables"])
    assert all(v >= 0.0 for v in meta["table_wall_s"].values())
    assert meta["fracrel_version"] == fracrel.__version__
    assert meta["numpy_version"] == np.__version__
    sha = meta["git_sha"]
    assert sha is None or re.fullmatch("[0-9a-f]{40}", sha)
    # without git the commit is unknown, and the run still succeeds
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-bin"))
    assert main(["calibrate", str(cfg)]) == 0
    again = json.loads(path.read_text())
    assert again["meta"]["git_sha"] is None
    assert again["body"] == bundle["body"]


def test_frozen_tables_resolve_through_one_lookup():
    tables = calibration_tables()
    assert set(tables) == {"version", "linear", "positivity", "garding",
                           "quadratic"}
    # one matcher serves the symbol lists and the single linear entry
    for table, keys, frozen in (
            ("positivity", {"s": 0.75, "m_ratio": 1.0},
             tables["positivity"][1]),
            ("linear", {"dim": 1, "s": 0.5, "m": 1.0, "lam": 0.5},
             tables["linear"])):
        near, off = ({**keys, "s": keys["s"] + d} for d in (1e-10, 1e-6))
        assert frozen_entry(table, **keys) == frozen
        assert frozen_entry(table, **near) == frozen
        with pytest.raises(CalibrationError, match=f"^no frozen {table} "):
            frozen_entry(table, **off)


def test_frozen_tables_are_parsed_once(monkeypatch):
    tables = calibration_tables()
    reads = []
    files = report.resources.files
    monkeypatch.setattr(report.resources, "files",
                        lambda package: reads.append(package) or files(package))
    report._packaged_tables.cache_clear()
    positivity = {"s": 0.75, "m_ratio": 1.0}
    linear = {"dim": 1, "s": 0.5, "m": 1.0, "lam": 0.5}
    # a caller that changes its entry, or a table nested in it, changes no
    # later lookup
    frozen_entry("positivity", **positivity).clear()
    frozen_entry("linear", **linear)["corpus"].clear()
    assert frozen_entry("positivity", **positivity) == tables["positivity"][1]
    assert frozen_entry("linear", **linear) == tables["linear"]
    assert reads == ["fracrel"]
