"""How the host's speed moves during one oneshot run, from its trace.

  sh soibench/run.sh --workload oneshot --seed 1 --seconds 240 --trace 1
  python3 soibench/levels.py .soibench/oneshot-s1.trace.json

Reads the `oneshot.op` spans of a traced oneshot run.  Those ops cycle
round-robin through the 16-payload corpus from the start of the traced
half, so an op's payload is its position modulo 16.  Prints, as JSON:

  - the host's relative speed in 2 s bins: the median, over the bin's
    ops, of each op's time divided by the median time of its payload;
  - the spread, (Q3 - Q1) / median with statistics.quantiles(n=4), of
    throughput, p50 and p95 over every 20 s window of the trace that
    starts on a whole second, as if each window were one run.
"""

import json
import statistics
import sys

CORPUS = 16
BIN_S = 2
WINDOW_S = 20


def quantile(xs, q):
    """Linear interpolation, as soibench.ml computes its percentiles."""
    a = sorted(xs)
    h = q * (len(a) - 1)
    lo = int(h)
    hi = min(lo + 1, len(a) - 1)
    return a[lo] + (h - lo) * (a[hi] - a[lo])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main():
    with open(sys.argv[1]) as f:
        events = json.load(f)["traceEvents"]
    ops = sorted((e["ts"] / 1e6, e["dur"] / 1e3) for e in events if e["name"] == "oneshot.op")
    t0 = ops[0][0]
    ops = [(t - t0, ms, i % CORPUS) for i, (t, ms) in enumerate(ops)]
    typical = {p: statistics.median(ms for _, ms, q in ops if q == p) for p in range(CORPUS)}
    bins = {}
    for t, ms, p in ops:
        bins.setdefault(int(t // BIN_S), []).append(ms / typical[p])
    speed = [round(statistics.median(v), 3) for _, v in sorted(bins.items())]
    windows = {"ops_per_s": [], "latency_p50_ms": [], "latency_p95_ms": []}
    for start in range(int(ops[-1][0]) - WINDOW_S + 1):
        lats = [ms for t, ms, _ in ops if start <= t < start + WINDOW_S]
        windows["ops_per_s"].append(len(lats) / WINDOW_S)
        windows["latency_p50_ms"].append(quantile(lats, 0.5))
        windows["latency_p95_ms"].append(quantile(lats, 0.95))
    print(json.dumps({
        "ops": len(ops),
        "relative_time_per_2s_bin": speed,
        "range": [min(speed), max(speed)],
        "windows": len(windows["ops_per_s"]),
        "spread_over_20s_windows": {k: round(spread(v), 3) for k, v in windows.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
