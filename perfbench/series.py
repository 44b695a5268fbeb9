"""Repeated benchmark runs: spread, a recorded entry, or a two-tree comparison.

    python3 perfbench/series.py [--runs 10] [--trace 0|1]
                                [--record perfbench/trajectory/BENCH_<label>.json]
                                [--against OTHER_CHECKOUT]

Runs ``perfbench/run.py`` on every workload with seeds 1 to ``--runs``,
each run as long as ``run_seconds`` in ``BENCHMARK.json``, and prints per
metric the median, the quartiles and the spread (quartile distance over
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them).
``--record`` writes every run with its provenance and that summary to a
JSON file; the entry's label is the file name without ``BENCH_`` and
``.json``.

With ``--against`` each seed runs on both trees, alternating which goes
first; each seed's line says whether the two report bodies are equal, and
each metric gets its win count and both medians.  The two trees must hold
the same benchmark files, so only the code under test differs.
"""
import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def bench_digest(root):
    h = hashlib.sha256()
    for name in ("BENCHMARK.json", "perfbench/run.py", "perfbench/child.py",
                 "perfbench/tracer.py"):
        h.update((Path(root) / name).read_bytes())
    return h.hexdigest()


def run_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(root) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line[len("provenance "):])
    result.update(workload=workload, seed=seed, trace=trace,
                  log=[line for line in lines[1:-1]
                       if not line.startswith("provenance ")])
    return result


def value(run, name):
    return run["metrics"].get(name, {}).get("value", float("nan"))


def spread(values):
    q1, med, q3 = bench.quartiles(values)
    return q1, med, q3, (q3 - q1) / med if med else None


def summarize(runs, units):
    """Per workload and metric: median, quartiles and spread over runs."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        out[workload] = {"runs": len(rows),
                         "failed_checks": sum(r["failed"] for r in rows),
                         "attempted_checks": sum(r["attempted"] for r in rows),
                         "all_correct": all(r["correct"] for r in rows)}
        for name in units:
            values = [r["metrics"][name]["value"] for r in rows
                      if name in r["metrics"]]
            if len(values) >= 2:
                q1, med, q3, rel = spread(values)
                out[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": rel, "unit": units[name]}
    return out


def same_body(a, b):
    return a["provenance"]["body_sha256"] == b["provenance"]["body_sha256"]


def compare(pairs, units):
    """Lines giving, per workload and metric, wins of B over A and medians.

    Every metric here is better lower.
    """
    lines = []
    for workload in dict.fromkeys(a["workload"] for a, _ in pairs):
        rows = [(a, b) for a, b in pairs if a["workload"] == workload]
        differ = sum(1 for a, b in rows if not same_body(a, b))
        lines.append(f"{workload:<18} report bodies differ on {differ}/"
                     f"{len(rows)} seeds")
        for name in units:
            va = [value(a, name) for a, _ in rows]
            vb = [value(b, name) for _, b in rows]
            wins = sum(1 for x, y in zip(va, vb) if y < x)
            losses = sum(1 for x, y in zip(va, vb) if y > x)
            qa, qb = spread(va), spread(vb)
            lines.append(
                f"{workload:<18} {name:<46} A {qa[1]:.6g} [{qa[0]:.6g}, "
                f"{qa[2]:.6g}]  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"B wins {wins}/{len(rows)}, loses {losses}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    seconds = run_seconds()
    if args.against and bench_digest(ROOT) != bench_digest(args.against):
        parser.error("the two trees hold different benchmark files")

    runs, pairs = [], []
    for seed in range(1, args.runs + 1):
        for workload in bench.WORKLOADS:
            if args.against is None:
                r = one_run(ROOT, workload, seed, seconds, args.trace)
                runs.append(r)
                print(json.dumps({k: r[k] for k in
                                  ("workload", "seed", "correct", "failed",
                                   "metrics")}), flush=True)
                continue
            order = (args.against, ROOT) if seed % 2 else (ROOT, args.against)
            got = {root: one_run(root, workload, seed, seconds, args.trace)
                   for root in order}
            a, b = got[args.against], got[ROOT]
            pairs.append((a, b))
            print(f"{workload} seed {seed}: body "
                  f"{'same' if same_body(a, b) else 'DIFFERS'}, " + ", ".join(
                      f"{name} {value(a, name):.6g} -> {value(b, name):.6g}"
                      for name in units), flush=True)

    if args.against is not None:
        print(f"A = {args.against}, B = {ROOT}")
        for line in compare(pairs, units):
            print(line)
        runs = [r for pair in pairs for r in pair]
        return 0 if all(r["correct"] for r in runs) else 1

    summary = summarize(runs, units)
    for workload, rows in summary.items():
        for name, row in rows.items():
            if isinstance(row, dict):
                print(f"{workload:<18} {name:<46} median {row['median']:.6g}"
                      f" {row['unit']}  q1 {row['q1']:.6g}  q3 "
                      f"{row['q3']:.6g}  spread {row['spread']}")
        print(f"{workload:<18} checks failed {rows['failed_checks']}/"
              f"{rows['attempted_checks']}, all correct {rows['all_correct']}")
    if args.record:
        label = args.record.stem.removeprefix("BENCH_")
        args.record.write_text(json.dumps(
            {"label": label, "seconds": seconds, "trace": args.trace,
             "summary": summary, "runs": runs},
            indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
