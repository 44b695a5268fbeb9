"""The default run's reports, kept in tests/data/run_default.json, and the
calibrated linear table, kept in tests/data/calibrate_linear.json.

``fracrel run {}`` must reproduce the committed report list, and
``fracrel calibrate {"suite": "linear-carleman", "sweep.count": 4}`` the
committed ``linear`` table and provenance.  After a change that moves
numbers on purpose, regenerate the files with

    PYTHONPATH=src python tests/reference.py --write
    PYTHONPATH=src python tests/reference.py --write-calibration

and their diff is the list of moved values.  Given the path of a run's
report.json, or of a calibration.json that holds a linear table (suite
linear-carleman or all, at sweep.count 4), the script compares it with its
file instead, prints every moved value and exits 1 if there is one:

    PYTHONPATH=src python tests/reference.py run-all/report.json
    PYTHONPATH=src python tests/reference.py calibrate-all/calibration.json

``moved`` is the one comparison, for tier-1 and for those commands; the
linear table goes through its value rule (``moved_table``) with a floor of
0, since it has no tolerance.  Names,
order, suites, ``passed``, ``inputs``, tolerances and key sets must match
exactly, and so must every string, integer and flag.  Every float must lie
within REL_TOL of its reference, relative to it, except a roundoff-level
one: where the reference lies at or below its report's floor, the value
only has to stay at or below that floor.  The floor is FLOOR times the
report's tolerance: a value a thousand times under its tolerance decides
nothing, and errors measured that far down are set by rounding (the
appendix errors read about 1e-15 against a tolerance of 1e-10, the
subordination equivalence errors 1e-10 against 1e-3).  Two reports hold
rounding errors above that floor, and ROUNDING_FLOORS gives them their own.

The file holds the numbers of one numpy build on one CPU, and the SIMD and
BLAS kernels another CPU selects move the rounding in many reports.  With
numpy's AVX-512 paths disabled (NPY_DISABLE_CPU_FEATURES, as on a CPU with
AVX2 only) and each of OPENBLAS_CORETYPE Zen, Haswell, Prescott and
Sandybridge, the largest moves were: 8.8e-9 relative for a quadratic
headroom, a ratio of numbers near 1e57 (hence REL_TOL 1e-7, not tighter);
the s = 1 commutator's error 3.4e-10 -> 3.9e-10 against a tolerance of
1e-8; and the Garding check's order-7 residual, 2.2e-7 relative at 1e-10.
The singular route's truncation moves its errors by 0.7 % and more when
KERNEL_FAR_CUTOFF drops from 25 to 9, far above REL_TOL.
"""
import json
import sys
import tempfile
from pathlib import Path

from fracrel.cli import main

REFERENCE = Path(__file__).resolve().parent / "data" / "run_default.json"
CALIBRATION = REFERENCE.with_name("calibrate_linear.json")
REL_TOL = 1e-7
FLOOR = 1e-3
# absolute floors of the reports whose small values are rounding errors
# themselves, kept above the moves other CPUs' kernels make in them
ROUNDING_FLOORS = {
    # the s = 1 commutator is exact; it reads 3.4e-10 against 1e-8
    "symbol.s1_commutator": 1e-9,
    # tolerance 0; the order-6 and order-7 difference residuals read 3.4e-9
    # and 1.1e-10 against a bound of 1.2e-5
    "symbols.garding_hypothesis": 1e-8,
}


def default_reports(workdir) -> list:
    """The report list of ``fracrel run {}``, written under ``workdir``;
    raises unless the run exits 0."""
    out = Path(workdir) / "run"
    config = Path(workdir) / "default.json"
    config.write_text(json.dumps({"output.dir": str(out)}))
    if main(["run", str(config)]) != 0:
        raise RuntimeError("the default run did not pass")
    return json.loads((out / "report.json").read_text())["body"]["reports"]


def linear_table(body: dict) -> dict:
    """The linear table and its provenance of a calibration's body."""
    return {"table": body["tables"]["linear"],
            "provenance": body["provenance"]["linear"]}


def calibrated_linear_table(workdir) -> dict:
    """linear_table of ``fracrel calibrate`` at suite linear-carleman and
    sweep.count 4, written under ``workdir``; raises unless it exits 0."""
    out = Path(workdir) / "calibrate"
    config = Path(workdir) / "calibrate.json"
    config.write_text(json.dumps({"suite": "linear-carleman",
                                  "sweep.count": 4, "output.dir": str(out)}))
    if main(["calibrate", str(config)]) != 0:
        raise RuntimeError("the linear calibration did not pass")
    return linear_table(
        json.loads((out / "calibration.json").read_text())["body"])


def load() -> list:
    return json.loads(REFERENCE.read_text())


def load_calibration() -> dict:
    return json.loads(CALIBRATION.read_text())


def _moved_values(got, want, where: str, floor: float) -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where} keys: {sorted(got)}, reference {sorted(want)}"]
        return [line for key in sorted(want)
                for line in _moved_values(got[key], want[key],
                                          f"{where}.{key}", floor)]
    if isinstance(want, list) and isinstance(got, list) \
            and len(got) == len(want):
        return [line for j, (a, b) in enumerate(zip(got, want))
                for line in _moved_values(a, b, f"{where}[{j}]", floor)]
    if type(got) is not type(want) or got == want:
        same = type(got) is type(want)
    elif isinstance(want, float):
        same = (abs(got) <= floor if abs(want) <= floor
                else abs(got - want) <= REL_TOL * abs(want))
    else:
        same = False
    return [] if same else [f"{where}: {got!r}, reference {want!r}"]


def moved(got: list, want: list) -> list:
    """One line per value of ``got`` that moved from the reference ``want``,
    each naming the report's index and name and the value's key."""
    lines = ([] if len(got) == len(want)
             else [f"{len(got)} reports, reference {len(want)}"])
    for i, (g, w) in enumerate(zip(got, want)):
        label = f"[{i}] {w['name']}"
        if set(g) != set(w):
            lines.append(f"{label} keys: {sorted(g)}, reference {sorted(w)}")
            continue
        for key in ("name", "suite", "passed", "inputs", "tolerance"):
            if g[key] != w[key]:
                lines.append(f"{label} {key}: {g[key]!r}, reference "
                             f"{w[key]!r}")
        floor = ROUNDING_FLOORS.get(w["name"], FLOOR * w["tolerance"])
        for key in ("measured", "witness"):
            lines += _moved_values(g[key], w[key], f"{label} {key}", floor)
    return lines


def moved_table(got: dict, want: dict) -> list:
    """One line per value of the linear table ``got`` (a linear_table)
    that moved from the reference ``want``."""
    return _moved_values(got, want, "linear", 0.0)


def _write(path: Path, data, what: str) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{what} written to {path}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            reports = default_reports(tmp)
        _write(REFERENCE, reports, f"{len(reports)} reports")
    elif sys.argv[1:] == ["--write-calibration"]:
        with tempfile.TemporaryDirectory() as tmp:
            _write(CALIBRATION, calibrated_linear_table(tmp), "linear table")
    elif len(sys.argv) == 2:
        body = json.loads(Path(sys.argv[1]).read_text())["body"]
        if "reports" in body:
            got = body["reports"]
            lines = moved(got, load())
            done = f"{len(got)} reports match {REFERENCE}"
        else:
            lines = moved_table(linear_table(body), load_calibration())
            done = f"the linear table matches {CALIBRATION}"
        print("\n".join(lines) or done)
        sys.exit(1 if lines else 0)
    else:
        sys.exit("usage: reference.py --write | --write-calibration | "
                 "reference.py REPORT_JSON | CALIBRATION_JSON")
