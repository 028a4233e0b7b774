"""Repeated soibench runs: calibration sets, a baseline file, or a paired
comparison of two checkouts.

  python3 soibench/calibrate.py --out soibench/results/REV.json
      Runs two sets of every workload on seeds 1-10, plus one traced run
      per workload on seed 1, and writes medians, quartiles and spreads
      next to each metric's bound from BENCHMARK.json.

  python3 soibench/calibrate.py --against ../parent --out cmp.json
      Alternates ten pairs of runs of this checkout and another one
      (same seed per pair, the side that runs first alternating) and
      reports, per workload and end-to-end metric, both sides' medians
      and quartiles, the pairs this checkout won, and whether the gain
      rule of soibench/README.md holds.

Run it from the repository root.  Every run's stdout JSON line is
checked: a wrong output, a missing metric or a wrong unit stops it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))
SETS = 2
PAIRS = 10
TRACED_SEED = 1


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, trace):
    """One bench process; returns its parsed result and info lines."""
    info_path = os.path.join(root, ".soibench", "calibrate-last.json")
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
        "--json", info_path,
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    expected = spec["per_layer" if trace else "end_to_end"]
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"{workload} seed {seed}: metric {m['name']} missing or mis-unit")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: wrong outputs\n{proc.stdout}")
    with open(info_path) as f:
        info = json.load(f)["info"]
    print(f"  {workload:13s} seed {seed:3d} trace {int(trace)}: {wall:5.1f} s wall",
          file=sys.stderr, flush=True)
    return {"seed": seed, "wall_s": round(wall, 2), "info": info,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(metric, base, other):
    """How much worse [other] is than [base], as a share of [base]."""
    if base == 0:
        return 0.0
    d = (other - base) / base
    return d if metric["better"] == "lower" else -d


def calibrate(spec):
    """Two sets of every workload over SEEDS, then one traced run each.

    Each metric's spread, (Q3 - Q1) / median within a set, is checked
    against its bound and against a third of it (the steadiness goal),
    and the second set's median against the first's.  The acceptance
    rule holds every spread but setup_s's within its bound, and every
    second-set median, setup_s's too, within its bound of the first."""
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    for s in range(SETS):
        print(f"set {s + 1}", file=sys.stderr)
        runs = {w: [] for w in workloads}
        for seed in SEEDS:
            for w in workloads:
                runs[w].append(run_once(ROOT, spec, w, seed, False))
        sets.append(runs)
    out = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    within, unsteady = True, []
    for w in workloads:
        rows = {}
        for m in spec["end_to_end"]:
            per_set = [summary([r["metrics"][m["name"]] for r in runs[w]]) for runs in sets]
            worst = max(p["spread"] for p in per_set)
            drift = worse_by(m, per_set[0]["median"], per_set[1]["median"])
            row = {"unit": m["unit"], "bound": m["bound"], "sets": per_set,
                   "spread_within_bound": worst <= m["bound"],
                   "spread_below_third": worst <= m["bound"] / 3,
                   "second_vs_first": drift, "drift_within_bound": drift <= m["bound"]}
            within &= (row["spread_within_bound"] or m["name"] == "setup_s") \
                and row["drift_within_bound"]
            if not row["spread_below_third"]:
                unsteady.append(f"{w}/{m['name']} {worst:.3f}")
            rows[m["name"]] = row
        traced = run_once(ROOT, spec, w, TRACED_SEED, True)
        out["workloads"][w] = {
            "end_to_end": rows,
            "runs": [runs[w] for runs in sets],
            "per_layer": {
                "seed": TRACED_SEED, "info": traced["info"],
                "metrics": {m["name"]: {"value": traced["metrics"][m["name"]], "unit": m["unit"]}
                            for m in spec["per_layer"]}},
        }
    out["all_within_bounds"] = within
    out["spreads_above_a_third_of_bound"] = unsteady
    return out


def compare(against, spec):
    """Alternating pairs of this checkout (change) and [against] (parent)."""
    parent_root = os.path.abspath(against)
    parent_spec = load_spec(parent_root)
    out = {"parent": parent_root, "change": ROOT, "pairs": PAIRS, "workloads": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        sides = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = SEEDS[i % len(SEEDS)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root, sp = (parent_root, parent_spec) if side == "parent" else (ROOT, spec)
                sides[side].append(run_once(root, sp, w, seed, False)["metrics"])
        rows = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name] for r in sides["parent"]]
            c = [r[name] for r in sides["change"]]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            ps, cs = summary(p), summary(c)
            rows[name] = {
                "parent": ps, "change": cs, "change_wins": wins,
                "change_worse_by": worse_by(m, ps["median"], cs["median"]),
                "within_bound": worse_by(m, ps["median"], cs["median"]) <= m["bound"],
                "gain": wins * 10 >= 9 * len(p)
                and sign * (ps["median"] - cs["median"]) > ps["q3"] - ps["q1"],
            }
        out["workloads"][w] = rows
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="checkout of the parent commit to compare with")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = load_spec(ROOT)
    out = compare(args.against, spec) if args.against else calibrate(spec)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    if not args.against:
        print("all within bounds" if out["all_within_bounds"] else "NOT within bounds")
        for line in out["spreads_above_a_third_of_bound"]:
            print("  spread above a third of its bound:", line)


if __name__ == "__main__":
    main()
