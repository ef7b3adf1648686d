"""Run every eitdisk benchmark workload in fresh processes and summarize.

    python3 bench/suite.py                          # seed 1, then one traced run each
    python3 bench/suite.py --seeds 1-10 --out bench/baseline/BENCH_seeds1-10.json

Every workload in BENCHMARK.json runs for its ``run_seconds``.  For each
seed and workload, ``run.py --trace 0`` runs in its own process
(seeds outermost, so slow spells of the machine spread over all workloads);
then ``run.py --trace 1`` runs once per workload on the first seed.  The
summary gives each end-to-end metric by name with its unit and sample count,
``failed_frac`` per workload, and, with two or more seeds, the quartile
spread (q3 - q1) / median next to the bound from BENCHMARK.json.  ``--out``
writes every result with its environment stamp as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    env = next(json.loads(l[5:]) for l in lines if l.startswith("env: "))
    notes = [l for l in lines[:-1] if not l.startswith(("env: ", "case times: ", "host times: "))]
    return {"seed": seed, "trace": trace, "env": env, "notes": notes, "result": json.loads(lines[-1])}


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1", help="seed list such as 1-10 or 1,4,7")
    parser.add_argument("--out", default=None, help="write all results as JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            run = run_one(w, seed, seconds, 0)
            runs[w].append(run)
            print(f"[{w} seed={seed}] " + "; ".join(run["notes"][1:]), flush=True)
    traced = {}
    for w in names:
        traced[w] = run_one(w, seeds[0], seconds, 1)
        print(f"[{w} seed={seeds[0]} traced] done", flush=True)

    report = {"seconds": seconds, "seeds": seeds, "env": runs[names[0]][0]["env"],
              "workloads": {}}
    print(f"\nend-to-end, {len(seeds)} seed(s), {seconds:g} s per run")
    for w in names:
        results = [r["result"] for r in runs[w]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = {}
        print(f"\n{w}: failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} cases)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            summary[name] = stats
            line = f"  {name} = {stats['median']:.6g} {metric['unit']} (median of {len(results)} runs)"
            if "spread" in stats:
                ok = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
                line += (f", q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}, spread {stats['spread']:.4f}"
                         f" vs bound {metric['bound']} [{ok}]")
            print(line)
        for note in runs[w][0]["notes"]:
            if note.split(" = ")[0] in {m["name"] for m in spec["end_to_end"]}:
                print(f"    seed {seeds[0]}: {note}")
        report["workloads"][w] = {
            "failed": failed, "attempted": attempted, "summary": summary,
            "runs": [{"seed": r["seed"], "result": r["result"]} for r in runs[w]],
            "traced": {"seed": seeds[0], "result": traced[w]["result"]},
        }

    print(f"\nper-layer (traced run, seed {seeds[0]})")
    width = max(len(m["name"]) for m in spec["per_layer"])
    print(" " * width + "".join(f"{w:>18}" for w in names))
    for metric in spec["per_layer"]:
        cells = "".join(f"{traced[w]['result']['metrics'][metric['name']]['value']:>18.6g}"
                        for w in names)
        print(f"{metric['name']:<{width}}{cells}  {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
