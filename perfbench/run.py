#!/usr/bin/env python3
"""The simulator's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload fp_chains --seed 1 --seconds 10 --trace 0

Workloads: fp_chains, int_cam, store_campaign, or `all` (the three in
one load generator process). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics. Every metric is printed as a `metric NAME VALUE
UNIT` line; the last line of stdout is one JSON object. See README.md.

    python3 perfbench/run.py --make-oracle     # regenerate oracle.tsv

Builds into .bench_build/perfbench under the checkout root on first use.
"""

import argparse
import csv
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
RUN_DIR = Path(".bench_build") / "run"
LOADGEN = BUILD / "perfbench_loadgen"
DIQ = BUILD / "diq" / "diq"
WORKLOADS = ("fp_chains", "int_cam", "store_campaign")
ORACLE_TIMEOUT_S = 900


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", "perfbench", "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   cwd=ROOT, stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_loadgen", "-j", jobs],
                   cwd=ROOT, stdout=sys.stderr, check=True, timeout=850)


def run_loadgen(args, timeout):
    """Run the load generator in its own process group; kill the group on
    timeout."""
    proc = subprocess.Popen([str(LOADGEN)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("load generator timed out after %ds" % timeout)
    if proc.returncode != 0:
        raise RuntimeError("load generator exited with %d" % proc.returncode)
    return out


def source_digest():
    h = hashlib.sha256()
    files = sorted(glob.glob(str(ROOT / "src" / "**" / "*"), recursive=True))
    for f in [str(ROOT / "CMakeLists.txt")] + files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            h.update(Path(f).read_bytes())
    return h.hexdigest()[:16]


def run_context(seed, workload):
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    affinity = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_affinity": ",".join(map(str, affinity)),
        "loadavg_start": os.getloadavg()[0],
        "workload": workload,
        "seed": seed,
    }


def report(args, context, sections, oracle, bench):
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    declared = [m["name"] for m in
                (bench["per_layer"] if args.trace else bench["end_to_end"])]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for sec in sections:
        a, f, reasons = benchlib.account(sec, oracle)
        attempted, failed = attempted + a, failed + f
        correct = correct and f == 0
        prefix = sec.workload + "/" if len(sections) > 1 else ""
        if args.trace:
            spans = []
            if sec.spans:
                spans = benchlib.load_spans(ROOT / sec.spans)
                keep = ROOT / ".bench_build" / "results" / (
                    "%s-seed%d.spans.tsv" % (sec.workload, args.seed))
                keep.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(ROOT / sec.spans, keep)
            m = benchlib.per_layer(sec, declared, a, f, spans)
        else:
            m = benchlib.end_to_end(sec)
            context[prefix + "host_factor"] = benchlib.host_factor(sec)
            print(benchlib.format_metric_line(
                prefix + "failed_frac", f / a if a else 0.0, "ratio"))
        for reason, n in sorted(reasons.items()):
            log("%s: %d operation(s) failed with %s"
                % (sec.workload, n, reason))
        for name in declared:
            print(benchlib.format_metric_line(prefix + name, m[name],
                                              units[name]))
            metrics[prefix + name] = m[name]
            units[prefix + name] = units[name]
    print("# context " + json.dumps(context, sort_keys=True))

    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(
        {"context": context, "attempted": attempted, "failed": failed,
         "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    print(benchlib.result_json(correct, attempted, failed, metrics, units))


def make_oracle():
    """Regenerate oracle.tsv with the serverless runner and check every
    row against `diq sweep` output for the same grids."""
    jobs = str(min(4, os.cpu_count() or 1))
    out = run_loadgen(["oracle", "--jobs", jobs], ORACLE_TIMEOUT_S)
    keys, rows, grids = {}, [], []
    for line in out.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "key":
            oid, key = rest.split(" ", 1)
            keys[oid] = key
        elif kind == "result":
            rows.append(benchlib.parse_result(rest.split(" ")))
        elif kind == "grid":
            warmup, measure, grid = rest.split(" ", 2)
            grids.append((warmup, measure, grid))
    by_key = {keys[r.oracle_id]: r for r in rows}
    checked = 0
    for warmup, measure, grid in grids:
        env = dict(os.environ, DIQ_WARMUP=warmup, DIQ_INSTS=measure)
        csv_text = subprocess.run(
            [str(DIQ), "sweep", grid, "--jobs", jobs], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True).stdout
        for row in csv.DictReader(io.StringIO(csv_text)):
            r = by_key[row["spec"]]
            if (int(row["cycles"]) != r.cycles
                    or int(row["committed"]) != r.committed
                    or row["ipc"] != "%.6f" % float(r.ipc)
                    or row["energy_pj"] != "%.3f" % float(r.energy)):
                raise RuntimeError("diq sweep disagrees on " + row["spec"])
            checked += 1
    if checked != len(rows):
        raise RuntimeError("diq sweep checked %d of %d rows"
                           % (checked, len(rows)))
    lines = [benchlib.ORACLE_HEADER] + sorted(
        benchlib.oracle_line(r, keys[r.oracle_id]) for r in rows)
    (HERE / "oracle.tsv").write_text("\n".join(lines) + "\n")
    log("oracle.tsv: %d rows, each matching `diq sweep`" % len(rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length; default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-oracle", action="store_true")
    args = ap.parse_args()
    if not args.make_oracle and not args.workload:
        ap.error("--workload is required")

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        log("no simulator sources (CMakeLists.txt, src/) beside perfbench/; "
            "run from a full checkout")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    context = run_context(args.seed, args.workload)
    try:
        build()
        shutil.rmtree(ROOT / RUN_DIR, ignore_errors=True)
        if args.make_oracle:
            make_oracle()
            return 0
        out = run_loadgen(["run", "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", str(args.trace),
                          "--diq", str(DIQ), "--run-dir", str(RUN_DIR)],
                          benchlib.loadgen_timeout(
                              args.seconds, args.trace,
                              len(WORKLOADS) if args.workload == "all" else 1))
        loadgen_context, sections = benchlib.parse_records(out)
        context.update(loadgen_context)
        context["seconds"] = args.seconds
        oracle = benchlib.load_oracle(HERE / "oracle.tsv")
        report(args, context, sections, oracle, bench)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(ROOT / RUN_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
