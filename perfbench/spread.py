#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed and prints, for each
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound
in BENCHMARK.json.

    python3 perfbench/spread.py social-csv 1 2 3 4 5 [--trace 1]

Run it from the root of the repository.
"""
import json
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    trace = "0"
    if "--trace" in args:
        i = args.index("--trace")
        trace = args[i + 1]
        del args[i:i + 2]
    workload, seeds = args[0], args[1:]
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", seed,
                                  "--seconds", str(bench["run_seconds"]), "--trace", trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stderr[-3000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        line = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        stolen = [l.split(": ", 1)[1].split(" of ")[0] for l in out.stderr.splitlines() if "CPU time stolen" in l]
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} stolen {','.join(stolen)} "
              + " ".join(line), flush=True)
    print(f"{'metric':34} {'median':>12} {'iqr/median':>10} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        rel = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        limit = f"{b / 3:.4f}" if b else "-"
        flag = "  OVER BOUND" if b and rel > b else "  over bound/3" if b and rel > b / 3 else ""
        print(f"{name:34} {med:12.6g} {rel:10.4f} {limit:>8}{flag}")


if __name__ == "__main__":
    main()
