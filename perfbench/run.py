"""End-to-end benchmark of the fracrel CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``fracrel`` CLI invocation.  The benchmark spawns it
as a fresh child process, one at a time (a closed loop with one client),
until ``--seconds`` is used up, and aggregates each metric over them.
Every child starts cold, as every ``fracrel run`` does.

Right before and after each child the benchmark times a fixed reference
computation in a helper process (``reference.py``).  The host's speed
drifts by tens of percent over minutes, and a child's wall time divided by
the reference time around it cancels most of that drift.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_ref`` (spawn
to exit, in units of the reference time), ``setup_s`` (spawn until the
config has passed ``load_config``) and ``peak_rss_mb``.  With ``--trace
1`` it alternates untraced and traced children and prints per-layer
metrics from the traced ones (see ``tracer.py``), the raw wall and
reference times, and the tracing overhead.

Correctness: a child fails all its checks when it exits non-zero, when its
report cannot be read, or when its body digest differs from the other
children of the run (same code, same seed, traced or not).  Otherwise each
check counts by its own ``passed`` flag.  ``attempted`` and ``failed`` in
the result line count checks, so ``failed / attempted`` is the check
failure ratio.  Each metric is the median over the run's children, except
``wall_ref``, the mean of the per-child ratios.  The last line of output
is one JSON object.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# a fixed relative output.dir keeps the report body the same in every run
OUTPUT_DIR = "fracrel-out"
CHILD_TIMEOUT_S = 150.0
MIN_CHILDREN = 3


@dataclass(frozen=True)
class Workload:
    command: str                 # "run" or "calibrate"
    config: dict                 # overrides of the CLI defaults, no seed
    layers: tuple = ()           # spans the traced run must see called


WORKLOADS = {
    # the three realizations on the default grid; the cold kernel-weight
    # build (Macdonald quadrature) dominates
    "equivalence_cold": Workload(
        "run", {"suite": "equivalence"},
        ("special.macdonald_k", "operator.apply_singular_integral",
         "operator.apply_subordination", "operator.apply_spectral")),
    # the linear Carleman ledger over a seeded corpus: potential sampling,
    # evolution steps and spectral applies, no Macdonald calls
    "linear_ledger": Workload(
        "run", {"suite": "linear-carleman", "sweep.count": 16},
        ("heat.PotentialField.sample", "heat.evolve_with_potential",
         "grid.require_seam_decay", "linear_carleman.carleman_linear_check",
         "linear_carleman.monotonicity_check", "operator.apply_spectral")),
    # every calibration sweep: the symbol layer plus the write side of the
    # heat and linear layers
    "calibrate_all": Workload(
        "calibrate", {"suite": "all", "sweep.count": 4},
        ("symbols.positivity_sweep", "symbols.garding_hypothesis_check",
         "symbols.carleman_quadratic_check", "symbols.calibrate_quadratic",
         "linear_carleman.calibrate_constants", "heat.evolve_with_potential")),
}

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# a run holds as few as 3 children; their per-child ratios, already freed
# of the host's drift, average better than their median does
MEAN_OF_CHILDREN = {"wall_ref"}

PER_LAYER = {
    "special.macdonald_k.calls": "count",
    "special.macdonald_k.points": "count",
    "special.macdonald_k.self_s": "s",
    "operator.apply_singular_integral.calls": "count",
    "operator.apply_singular_integral.self_s": "s",
    "operator.apply_subordination.calls": "count",
    "operator.apply_subordination.self_s": "s",
    "operator.apply_spectral.calls": "count",
    "operator.apply_spectral.self_s": "s",
    "heat.PotentialField.sample.calls": "count",
    "heat.PotentialField.sample.self_s": "s",
    "heat.evolve_with_potential.calls": "count",
    "heat.evolve_with_potential.self_s": "s",
    "grid.require_seam_decay.calls": "count",
    "grid.require_seam_decay.self_s": "s",
    "linear_carleman.carleman_linear_check.calls": "count",
    "linear_carleman.carleman_linear_check.self_s": "s",
    "linear_carleman.monotonicity_check.self_s": "s",
    "linear_carleman.calibrate_constants.self_s": "s",
    "symbols.positivity_sweep.calls": "count",
    "symbols.positivity_sweep.self_s": "s",
    "symbols.garding_hypothesis_check.calls": "count",
    "symbols.garding_hypothesis_check.self_s": "s",
    "symbols.carleman_quadratic_check.calls": "count",
    "symbols.carleman_quadratic_check.self_s": "s",
    "symbols.calibrate_quadratic.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.write_outputs.self_s": "s",
    "fft.calls": "count",
    "fft.points": "count",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "reference.probe_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Child:
    """What one child process did."""
    traced: bool
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_s: float = float("nan")      # reference time around the child
    setup_s: float | None = None
    checks: int | None = None        # None when the report is unreadable
    passed: int = 0
    digest: str | None = None
    trace: dict = field(default_factory=dict)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # OpenBLAS would otherwise size its pool from its build-time maximum
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def read_report(command, outdir):
    """(checks, passed, digest) of a finished child, or None if unreadable."""
    try:
        if command == "run":
            body = json.loads((outdir / "report.json").read_text())["body"]
            csv_bytes = (outdir / "reports.csv").read_bytes()
            reports = body["reports"]
            passed = sum(1 for r in reports if r["passed"] is True)
            digest = hashlib.sha256(_canonical(body) + csv_bytes).hexdigest()
            return len(reports), passed, digest
        body = json.loads((outdir / "calibration.json").read_text())["body"]
        tables = body["tables"]
        checks = sum(len(t) if isinstance(t, list) else 1
                     for t in tables.values())
        passed = 0 if "error" in body else checks
        return checks, passed, hashlib.sha256(_canonical(tables)).hexdigest()
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def spawn(workload, rundir, env, traced):
    """Run one child to completion and collect its timings and report."""
    outdir = rundir / OUTPUT_DIR
    stamp_path = rundir / "stamp.json"
    shutil.rmtree(outdir, ignore_errors=True)
    stamp_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), workload.command,
            "config.json", stamp_path.name, "1" if traced else "0"]
    with open(rundir / "child.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=rundir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(traced=traced, returncode=proc.returncode, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0)
    try:
        stamp = json.loads(stamp_path.read_text())
    except (OSError, ValueError):
        stamp = {}
    if "setup_done" in stamp:
        child.setup_s = stamp["setup_done"] - t0
    child.trace = stamp.get("trace", {})
    report = read_report(workload.command, outdir)
    if report is not None:
        child.checks, child.passed, child.digest = report
    return child


class ReferenceProbe:
    """The helper process that times ``reference.probe()`` on request.

    It runs on one thread and sits blocked on its stdin while a child
    runs, so it takes no CPU from the child.
    """

    def __init__(self):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self):
        """Seconds one probe took in the helper."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference probe helper stopped")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def write_config(workload, rundir, seed):
    cfg = dict(workload.config, seed=seed)
    cfg["output.dir"] = OUTPUT_DIR
    (rundir / "config.json").write_text(json.dumps(cfg, sort_keys=True))


def run_children(workload, seed, seconds, traced, rundir, env,
                 min_children=MIN_CHILDREN):
    """Spawn children until the time is used up.

    Untraced runs spawn one child at a time; traced runs spawn an untraced
    and a traced child in turn.  The reference probe runs before the first
    child and after every child; a child's ``ref_s`` is the mean of the
    probes on either side.  Once ``min_children`` children are done, no
    round starts that the median child says would end past the deadline.
    """
    write_config(workload, rundir, seed)
    probe = ReferenceProbe()
    try:
        return _run_children(workload, traced, rundir, env, probe,
                             time.monotonic() + seconds, min_children)
    finally:
        probe.close()


def _run_children(workload, traced, rundir, env, probe, deadline,
                  min_children):
    children = []
    before = probe()
    while True:
        for kind in ((False, True) if traced else (False,)):
            child = spawn(workload, rundir, env, kind)
            after = probe()
            child.ref_s = (before + after) / 2
            before = after
            children.append(child)
        per_round = statistics.median(c.wall_s + c.ref_s
                                      for c in children) * (
            2 if traced else 1)
        if (len(children) >= min_children
                and time.monotonic() + per_round > deadline):
            return children


def majority_digest(children):
    digests = Counter(c.digest for c in children if c.digest is not None)
    return digests.most_common(1)[0][0] if digests else None


def tally(children):
    """(attempted, failed) checks over all children of one run."""
    majority = majority_digest(children)
    known = [c.checks for c in children if c.checks]
    fallback = max(known) if known else 1
    attempted = failed = 0
    for c in children:
        n = c.checks or fallback
        attempted += n
        if c.returncode != 0 or c.digest is None or c.digest != majority:
            failed += n
        else:
            failed += n - c.passed
    return attempted, failed


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(children):
    plain = [c for c in children if not c.traced]
    return {"wall_ref": [c.wall_s / c.ref_s for c in plain],
            "setup_s": [c.setup_s for c in plain if c.setup_s is not None],
            "peak_rss_mb": [c.rss_mb for c in plain]}


def per_layer(children):
    plain = [c for c in children if not c.traced]
    traced = [c for c in children if c.traced]
    samples = {name: [] for name in PER_LAYER}
    for c in traced:
        for name in PER_LAYER:
            if name in c.trace:
                samples[name].append(c.trace[name])
            elif name.endswith((".calls", ".points", ".self_s")):
                samples[name].append(0)
        samples["trace.unattributed_s"].append(
            c.wall_s - c.trace.get("trace.top_level_s", 0.0))
    samples["process.cpu_s"] = [c.cpu_s for c in plain]
    samples["process.wall_s"] = [c.wall_s for c in plain]
    samples["reference.probe_s"] = [c.ref_s for c in plain]
    samples["trace.overhead_s"] = [
        statistics.median(c.wall_s for c in traced)
        - statistics.median(c.wall_s for c in plain)]
    return samples


def layer_problems(workload, children):
    """Reasons the traced children do not cover the workload's layers."""
    traced = [c for c in children if c.traced]
    problems = []
    for c in traced:
        missing = [name for name in workload.layers
                   if not c.trace.get(f"{name}.calls")]
        if missing:
            problems.append(f"no calls traced for {', '.join(missing)}")
    calls = {tuple(sorted((k, v) for k, v in c.trace.items()
                          if k.endswith((".calls", ".points"))))
             for c in traced}
    if len(calls) > 1:
        problems.append("call counts differ between traced children")
    return problems


def top_layers(children, limit=12):
    """Lines naming the spans with the most self time, as a wall share."""
    traced = [c for c in children if c.traced]
    if not traced:
        return []
    wall = statistics.median(c.wall_s for c in traced)
    names = {k[:-len(".self_s")] for c in traced for k in c.trace
             if k.endswith(".self_s")}
    rows = []
    for name in names:
        own = statistics.median(c.trace.get(f"{name}.self_s", 0.0)
                                for c in traced)
        calls = statistics.median(c.trace.get(f"{name}.calls", 0)
                                  for c in traced)
        rows.append((own, name, calls))
    rows.sort(reverse=True)
    return [f"  {name:<48} self {own:8.4f} s  {100 * own / wall:5.1f} %  "
            f"calls {calls:g}" for own, name, calls in rows[:limit]]


def provenance(env, seed):
    """Where and on what the numbers were taken."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, platform, numpy, fracrel.cli\n"
         "blas = numpy.show_config(mode='dicts')['Build Dependencies']"
         "['blas']\n"
         "print(json.dumps({'python': platform.python_version(),"
         " 'numpy': numpy.__version__, 'blas': blas.get('name'),"
         " 'blas_version': blas.get('version'),"
         " 'blas_config': blas.get('openblas configuration')}))"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    info = json.loads(probe.stdout)
    info["blas_threads"] = int(env["OPENBLAS_NUM_THREADS"])
    info["nproc"] = nproc()
    info["seed"] = seed
    info["source_sha256"] = source_digest()
    info.update(git_state())
    return info


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fracrel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_state():
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--", "src"))}


def measure(workload, seed, seconds, traced, min_children=MIN_CHILDREN):
    """Run one benchmark pass; returns (result dict, text lines, children)."""
    env = child_env()
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        # compile the bytecode and warm the file cache before timing; the
        # probe also reports the interpreter, numpy and BLAS in use
        info = provenance(env, seed)
        children = run_children(workload, seed, seconds, traced, rundir,
                                env, min_children)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    info["body_sha256"] = majority_digest(children)

    attempted, failed = tally(children)
    problems = [f"child exited {c.returncode}" for c in children
                if c.returncode != 0]
    if traced:
        samples, units = per_layer(children), PER_LAYER
        problems += layer_problems(workload, children)
    else:
        samples, units = end_to_end(children), END_TO_END
    lines = []
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        if not values:
            problems.append(f"no samples for {name}")
            continue
        q1, med, q3 = quartiles(values)
        if unit == "count" and med == int(med):
            med = int(med)
        if name in MEAN_OF_CHILDREN:
            value, stat = statistics.fmean(values), "mean"
        else:
            value, stat = med, "median"
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<46} {stat} {value:.6g} {unit}  (q1 {q1:.6g}, "
                     f"q3 {q3:.6g}, n={len(values)})")
    plain = [c for c in children if not c.traced]
    lines.append(f"context: median child wall "
                 f"{statistics.median(c.wall_s for c in plain):.6g} s, "
                 f"reference probe "
                 f"{statistics.median(c.ref_s for c in plain):.6g} s")
    lines.append(f"check_fail_ratio {failed / attempted:.6g} "
                 f"({failed}/{attempted} checks failed, "
                 f"{len(children)} children)")
    if traced:
        lines.append("top layers by self time (median traced child):")
        lines += top_layers(children)
    lines += [f"problem: {p}" for p in problems]
    lines.append("provenance " + json.dumps(info, sort_keys=True))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, children


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracrel" / "cli.py").is_file():
        print(f"fracrel sources not found under {SRC}", file=sys.stderr)
        return 3
    if not 0 <= args.seed < 2 ** 64:
        print("--seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    # a terminated run still stops its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, lines, _ = measure(WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
