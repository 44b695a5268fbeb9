"""Structured results of verification checks.

Every check in the package returns a CheckReport rather than a bare bool so
that sweeps, the CLI and the tests all see the same thing: what was run, what
was measured, against which tolerance, and where the worst point sits.  A
check neither names nor times its report: the runner (``cli._checked``)
stamps both around the call.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

from .errors import CalibrationError


def _jsonable(value):
    """Coerce numpy scalars/arrays and other odds and ends to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class CheckReport:
    """Outcome of a single verification.

    Parameters
    ----------
    name : str
        Stable identifier of the check, stamped by the runner; empty on a
        report straight from a check.
    inputs : dict
        Echo of the parameters the check ran with.
    measured : dict
        Named measured quantities (violations, residuals, ratios).
    tolerance : float
        The tolerance the headline violation is compared against.
    passed : bool
        True iff the measured violation is within tolerance.
    witness : dict or None
        Worst-point coordinates and values.  Populated whenever the check
        fails, and also on passes that sit within a factor 10 of failing,
        so near-misses stay diagnosable.
    wall_time_s : float
        Wall-clock duration of the guarded call, stamped by the runner;
        0.0 on a report straight from a check.
    """

    name: str = ""
    inputs: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    tolerance: float = 0.0
    passed: bool = False
    witness: Any = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return _jsonable(dataclasses.asdict(self))

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} (tol={self.tolerance:g})"


@functools.lru_cache(maxsize=1)
def _packaged_tables() -> dict:
    # the frozen tables of data/calibration.json, parsed once per process;
    # frozen_entry hands out copies, so no caller can change them
    return json.loads(resources.files("fracrel").joinpath(
        "data", "calibration.json").read_text())


def frozen_entry(table: str, **keys) -> dict:
    """The first entry of calibration table ``table`` whose ``keys`` match:
    floats to 1e-9 relative (absolute below 1), other values by equality.
    A table that is a single entry (the linear one) reads as a list of
    one."""
    entries = _packaged_tables()[table]
    for entry in [entries] if isinstance(entries, dict) else entries:
        if all(abs(entry[k] - v) <= 1e-9 * max(1.0, abs(v))
               if isinstance(v, float) else entry[k] == v
               for k, v in keys.items()):
            return copy.deepcopy(entry)
    raise CalibrationError(f"no frozen {table} entry for {keys}")


def finish_report(inputs, measured, tolerance, violation,
                  witness) -> CheckReport:
    """Assemble the unnamed, untimed CheckReport of a finished check.

    ``violation`` is the headline nonnegative number compared against
    ``tolerance``; the witness is kept when failing or within 10x of the
    tolerance.
    """
    passed = bool(violation <= tolerance)
    keep_witness = (not passed) or (violation * 10.0 >= tolerance)
    measured = dict(measured)
    measured.setdefault("violation", float(violation))
    return CheckReport(
        inputs=_jsonable(inputs),
        measured=_jsonable(measured),
        tolerance=float(tolerance),
        passed=passed,
        witness=_jsonable(witness) if keep_witness else None)
