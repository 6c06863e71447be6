#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fp_chains --seeds 1..10 --out a.jsonl
    python3 perfbench/spread.py --workload fp_chains --seeds 11..20 --baseline a.jsonl

For every end-to-end metric it prints the median of the per-seed
values and the distance between their first and third quartiles as a
share of that median, next to the metric's bound from BENCHMARK.json.
A spread above a third of the bound is flagged: the benchmark is not
steady enough to resolve a change of that size. With --baseline, the
runs saved by an earlier --out are a first set, and each median is
compared with that set's: a change for the worse beyond the bound is
flagged.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1..10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="append each run's JSON line here")
    ap.add_argument("--baseline", help="compare medians with the runs in "
                    "this file, written by an earlier --out")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                             text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"]:
            print("seed %d: %d of %d operations failed"
                  % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"])
            for k, m in result["metrics"].items())), flush=True)

    base = {}
    if args.baseline:
        for line in Path(args.baseline).read_text().splitlines():
            for name, m in json.loads(line)["metrics"].items():
                base.setdefault(name, []).append(m["value"])
    spec = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for name, vals in values.items():
        s = benchlib.spread(vals)
        bound = spec[name]["bound"]
        flag = "" if s < bound / 3 else "  <-- above bound/3"
        steady = steady and (flag == "" or name == "setup_s")
        line = "%-16s median %-12.6g spread %6.2f%%  bound %4.0f%%" % (
            name, benchlib.median(vals), 100 * s, 100 * bound)
        if name in base:
            change = benchlib.median(vals) / benchlib.median(base[name]) - 1
            worse = change if spec[name]["better"] == "lower" else -change
            line += "  vs baseline %+6.2f%%" % (100 * change)
            if worse > bound:
                line += "  <-- worse than the bound"
                steady = False
        print(line + flag)
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
