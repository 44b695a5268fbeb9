"""Runner plumbing: config validation, exit codes, determinism of reports.

The symbol suite is the workhorse fixture here because it finishes in well
under a second while still exercising seeded randomness, matrix checks and
the frozen calibration tables.
"""
import csv
import json
import re
import subprocess
import sys

import pytest

from fracrel import cli, heat, linear_carleman
from fracrel.cli import (DEFAULTS, SUITES, _split_rng, cmd_calibrate,
                         load_config, main)
from fracrel.errors import CalibrationError, ConfigError
from fracrel.linear_carleman import load_calibration
from fracrel.operator import OperatorParams
from fracrel.symbols import (garding_constants, positivity_constants,
                             quadratic_constants)


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
            ({"output.dir": ""}, "output.dir")):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"suite": "sym')
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_split_rng_is_stable_and_keyed():
    a = _split_rng(7, "heat", "log_convexity").standard_normal(4)
    b = _split_rng(7, "heat", "log_convexity").standard_normal(4)
    c = _split_rng(7, "heat", "log_convexity", index=1).standard_normal(4)
    assert list(a) == list(b)
    assert list(a) != list(c)


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


def test_linear_suite_evolves_each_trajectory_once(monkeypatch):
    # the free Gaussian feeds both the monotonicity and the tent check, and
    # each ledger draw is evolved once
    horizons = []

    def counting(u0, V, T, *args, **kwargs):
        horizons.append(T)
        return heat.evolve_with_potential(u0, V, T, *args, **kwargs)

    monkeypatch.setattr(cli, "evolve_with_potential", counting)
    monkeypatch.setattr(linear_carleman, "evolve_with_potential", counting)
    cfg = dict(DEFAULTS, **{"sweep.count": 1})
    reports = cli._suite_linear(cfg)
    assert len(horizons) == 1 + cfg["sweep.count"]
    assert [r.name for r in reports[:2]] == [
        "linear_carleman.monotonicity", "linear_carleman.tent_identity"]
    assert len(reports) == 2 + cfg["sweep.count"]


def test_failing_check_keeps_the_rest_of_its_suite(tmp_path, capsys):
    # at linear.n = 1024 the ledger draw leaks at the seam; that error is
    # the ledger's own failed report, and the checks that passed stay
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **{
        "suite": "linear-carleman", "linear.n": 1024, "sweep.count": 1,
        "output.dir": str(out)})
    assert main(["run", str(cfg)]) == 1
    reports = json.loads((out / "report.json").read_text())["body"]["reports"]
    assert [r["name"] for r in reports] == [
        "linear_carleman.monotonicity", "linear_carleman.tent_identity",
        "linear_carleman.ledger"]
    assert reports[0]["passed"] and reports[1]["passed"]
    assert not reports[2]["passed"]
    assert reports[2]["measured"]["error"].startswith("SeamLeakError: ")
    assert "2/3 checks passed" in capsys.readouterr().out


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
    assert body["error"].startswith("SeamLeakError: ")
    assert body["tables"] == {}
    assert "calibration failed: SeamLeakError" in capsys.readouterr().err


def test_calibrate_output_loads_back(tmp_path):
    cfg = write_config(tmp_path, **{
        "suite": "all", "output.dir": str(tmp_path / "cal"),
        "sweep.count": 1})
    assert main(["calibrate", str(cfg)]) == 0
    path = tmp_path / "cal" / "calibration.json"
    tables = json.loads(path.read_text())["body"]["tables"]
    assert load_calibration(OperatorParams(0.5, 1.0), 0.5,
                            path=path) == tables["linear"]
    for i, m_ratio in enumerate((0.0, 1.0)):
        entry = tables["positivity"][i]
        assert positivity_constants(0.75, m_ratio, path=path) == (
            entry["c_hyp"], entry["c_min"])
        assert garding_constants(0.75, m_ratio,
                                 path=path) == tables["garding"][i]
    assert quadratic_constants("parabolic", 0.75, 1.0,
                               path=path) == tables["quadratic"][-1]
    # entries the bundle lacks are calibration errors, not lookup crashes
    with pytest.raises(CalibrationError):
        load_calibration(OperatorParams(0.5, 1.0), 0.25, path=path)
    linear_only = tmp_path / "linear_only.json"
    linear_only.write_text(json.dumps(
        {"body": {"tables": {"linear": tables["linear"]}}}))
    with pytest.raises(CalibrationError):
        positivity_constants(0.75, 0.0, path=linear_only)
