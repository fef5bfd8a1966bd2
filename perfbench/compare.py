#!/usr/bin/env python3
"""Run the benchmark in series and judge the results by its own bounds.

  python3 perfbench/compare.py collect OUT.jsonl [--seeds 1-10] [--trace 0] [--workloads a,b]
  python3 perfbench/compare.py spread  A.jsonl
  python3 perfbench/compare.py compare A.jsonl B.jsonl

`collect` runs BENCHMARK.json's command once per workload and seed and
appends one record per run to OUT.jsonl. `spread` reports, per end-to-end
metric and workload, the median and the distance between the quartiles as a
share of it, against the metric's bound. `compare` judges B against A row
by row: `ok`, `regressed` (B's median worse than A's by more than the
bound, or more failed operations), or `unresolved` (either side's spread is
wider than the bound, so the medians cannot be told apart). It exits 1 on
any regression. Run all three from the root of the checkout.
"""

import json
import statistics
import subprocess
import sys
import time

SPEC = json.load(open("BENCHMARK.json"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def collect(out, seeds, trace, workloads):
    with open(out, "a") as sink:
        for workload in workloads:
            for seed in seeds:
                argv = SPEC["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
                ]
                start = time.time()
                done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
                took = time.time() - start
                if done.returncode != 0:
                    sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed, "trace": trace,
                          "took_s": round(took, 3), "result": result}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                print(f"{workload} seed {seed} trace {trace}: {took:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}", flush=True)


def load(path):
    """{workload: {metric: [values]}} and {workload: failed operations}."""
    values, failed = {}, {}
    for line in open(path):
        record = json.loads(line)
        per_metric = values.setdefault(record["workload"], {})
        failed[record["workload"]] = failed.get(record["workload"], 0) + record["result"]["failed"]
        for name, metric in record["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values, failed


def spread_of(samples):
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(name, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if BETTER[name] == "lower" else -change


def spread(path):
    values, failed = load(path)
    print(f"{'workload':<14} {'metric':<44} {'n':>3} {'median':>16} {'spread':>8} {'bound':>6}")
    for workload, per_metric in values.items():
        for name, samples in per_metric.items():
            s = spread_of(samples)
            bound = END_TO_END.get(name, {}).get("bound")
            note = ""
            if bound is not None and name != "setup_s":
                note = "OVER BOUND" if s > bound else "over a third" if s > bound / 3 else ""
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"{workload:<14} {name:<44} {len(samples):>3} "
                  f"{statistics.median(samples):>16.6f} {s:>8.4f} {shown:>6} {note}")
        if failed[workload]:
            print(f"{workload:<14} FAILED OPERATIONS: {failed[workload]}")


def compare(path_a, path_b):
    (a, failed_a), (b, failed_b) = load(path_a), load(path_b)
    regressions = 0
    print(f"{'workload':<14} {'metric':<14} {'A median':>14} {'B median':>14} {'worse by':>9} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for name, spec in END_TO_END.items():
            if name not in a[workload] or name not in b[workload]:
                continue
            sa, sb = a[workload][name], b[workload][name]
            worse = worse_by(name, statistics.median(sa), statistics.median(sb))
            bound = spec["bound"]
            if worse > bound:
                verdict = "regressed"
                regressions += 1
            elif name != "setup_s" and max(spread_of(sa), spread_of(sb)) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<14} {name:<14} {statistics.median(sa):>14.4f} "
                  f"{statistics.median(sb):>14.4f} {worse:>+9.4f} {bound:>6.2f}  {verdict}")
        if failed_b.get(workload, 0) > failed_a.get(workload, 0):
            print(f"{workload:<14} failed operations {failed_a.get(workload, 0)} -> "
                  f"{failed_b[workload]}  regressed")
            regressions += 1
    sys.exit(1 if regressions else 0)


def main(argv):
    if len(argv) >= 2 and argv[0] == "collect":
        options = dict(zip(argv[2::2], argv[3::2]))
        first, _, last = options.get("--seeds", "1-10").partition("-")
        workloads = options.get("--workloads")
        collect(argv[1], range(int(first), int(last or first) + 1),
                int(options.get("--trace", 0)),
                workloads.split(",") if workloads else [w["name"] for w in SPEC["workloads"]])
    elif len(argv) == 2 and argv[0] == "spread":
        spread(argv[1])
    elif len(argv) == 3 and argv[0] == "compare":
        compare(argv[1], argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
