#!/usr/bin/env python3
"""Run the benchmark over several seeds and judge its spread, or compare
two sets of runs.

    python3 perfbench/steady.py run --workload W --seeds 1-10 --out DIR [--trace 1]
    python3 perfbench/steady.py compare BASE_DIR NEW_DIR

`run` executes the command from BENCHMARK.json once per seed (from the
repository root), keeps each run's full output in DIR, and prints, for
every metric of the result line, its median and its spread: the distance
between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`). A spread above a third of the
metric's bound is flagged.

`compare` reads two such directories and, per workload and end-to-end
metric, reports the change of the median against the metric's bound. Runs
made on hosts with different fingerprints are reported as cross-host and
never as a pass.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def parse(output):
    """(host fingerprint, result object, CPU steal %) of one run's output."""
    lines = output.strip().splitlines()
    host = next((l[5:] for l in lines if l.startswith("host ")), "{}")
    steal = next((float(l.split()[2]) for l in lines if l.startswith("metric query_steal_pct ")), 0.0)
    return json.loads(host), json.loads(lines[-1]), steal


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / abs(q2) if q2 else float("inf")


def load(directory):
    """{workload: (hosts, {metric: [values]})} of a result directory; the
    CPU steal of each run is kept as the pseudo-metric `steal_pct`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        workload = path.name.rsplit("-", 1)[0]
        host, result, steal = parse(path.read_text())
        hosts, metrics = runs.setdefault(workload, (set(), {}))
        hosts.add(json.dumps(host, sort_keys=True))
        metrics.setdefault("steal_pct", []).append(steal)
        if not result["correct"]:
            print(f"{path.name}: not correct", file=sys.stderr)
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs


def run(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds(args.seeds):
        cmd = SPEC["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or SPEC["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        (out / f"{args.workload}-{seed}.out").write_text(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        _, result, steal = parse(proc.stdout)
        print(f"seed {seed}: correct={result['correct']} steal={steal:.1f}%", flush=True)
    _, metrics = load(out)[args.workload]
    worst = 0.0
    for name, values in metrics.items():
        if len(values) < 2:
            continue
        med, s = spread(values)
        bound = BOUNDS.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, s / bound)
            flag = "  STEADY" if s < bound / 3 else "  WIDE"
        print(f"{name:34} median {med:14.4f}  spread {s:7.4f}  bound {bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")


def compare(args):
    base, new = load(args.base), load(args.new)
    verdict = 0
    for workload in sorted(set(base) & set(new)):
        (bh, bm), (nh, nm) = base[workload], new[workload]
        cross = bh != nh or len(bh) != 1
        print(f"{workload}: median CPU steal {statistics.median(bm['steal_pct']):.1f}% -> "
              f"{statistics.median(nm['steal_pct']):.1f}%")
        for name, spec in BOUNDS.items():
            if name not in bm or name not in nm:
                continue
            b, n = statistics.median(bm[name]), statistics.median(nm[name])
            worse = (n - b) / b if spec["better"] == "lower" else (b - n) / b
            if cross:
                status = "CROSS-HOST"
            elif worse > spec["bound"]:
                status = "REGRESSED"
            else:
                status = "ok"
            if status != "ok":
                verdict = 1
            print(f"{workload:16} {name:20} {b:14.4f} -> {n:14.4f}  worse by {worse:+.3f}"
                  f" (bound {spec['bound']})  {status}")
    sys.exit(verdict)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", default="0", choices=["0", "1"])
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()
    run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    main()
