"""Statistics, record parsing and output checking for the benchmark.

perfbench_loadgen only executes and prints records (README.md, "Load
generator records"); everything that turns records into metrics or decides
correctness lives here, so it can be unit tested without a build.
"""

import json
import math
import statistics
from dataclasses import dataclass, field


# ---------------------------------------------------------------- stats

def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(values, pct, min_beyond=10):
    """Nearest-rank percentile that has at least `min_beyond` samples above it.

    Raises ValueError when there are too few samples for that percentile,
    instead of reporting a tail that rests on a handful of points.
    """
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)
    if n == 0 or rank < 1 or n - rank < min_beyond:
        raise ValueError(
            "p%g of %d samples has %d beyond it; need %d"
            % (pct, n, max(0, n - rank), min_beyond))
    return sorted(values)[rank - 1]


# Share of a run's set-ups, and of the sim workloads' repetitions, that
# host-time metrics are taken over.
FASTER_SHARE = 1 / 3
# store_campaign keeps every repetition: its phase A runs a third faster
# in the host's quiet stretches, and a faster third that happens to catch
# one reads as another level (README.md, "Summarising a run").
KEPT_SHARE = {"fp_chains": FASTER_SHARE, "int_cam": FASTER_SHARE,
              "store_campaign": 1.0}


def kept_count(n, share):
    return math.ceil(n * share)


def faster_share(values):
    """The smallest FASTER_SHARE of `values`, rounded up.

    Interference from other tenants of a shared host only ever slows a
    repetition down, so the faster share estimates the program's own
    speed and ignores slow bursts that cover most of a run.
    """
    return sorted(values)[:kept_count(len(values), FASTER_SHARE)]


# The least work a run does whatever --seconds says, in seconds at the
# speed runs are sized for: fp_chains' 40 passes (README.md, Workloads).
MIN_RUN_S = 20


def loadgen_timeout(seconds, trace, workloads):
    """Seconds a load generator run may take before it counts as hung:
    three times its planned work, since a shared host runs up to 2x
    slower than the speed a run is sized for, plus a margin for set-up.
    A traced run does every repetition twice, and `all` runs the
    workloads in turn."""
    planned = max(seconds, MIN_RUN_S) * (2 if trace else 1) * workloads
    return 30 + 3 * planned


# -------------------------------------------------------------- records

@dataclass
class Section:
    """Records of one workload, as printed by the load generator."""
    workload: str
    samples: dict = field(default_factory=dict)   # name -> [float]
    reps: dict = field(default_factory=dict)      # rep -> {name: [float]}
    layers: dict = field(default_factory=dict)    # name -> float
    ops: dict = field(default_factory=dict)       # op id -> kind
    results: list = field(default_factory=list)   # Result
    fails: list = field(default_factory=list)     # (op id, reason)
    spans: str = ""


@dataclass
class Result:
    op: int
    oracle_id: str
    cycles: int
    committed: int
    ipc: str
    energy: str
    counters: str
    entry: str          # "-" when not comparable byte for byte
    deadlocked: bool

    def expected_fields(self):
        return (self.cycles, self.committed, self.ipc, self.energy,
                self.counters)


def parse_result(fields):
    op, oid, cyc, com, ipc, energy, counters, entry, dead = fields
    return Result(int(op), oid, int(cyc), int(com), ipc, energy, counters,
                  entry, dead == "1")


def parse_records(text):
    """Split load generator output into (context dict, [Section])."""
    context, sections, cur, rep = {}, [], None, None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        f = rest.split(" ")
        if kind == "context":
            context[f[0]] = " ".join(f[1:])
        elif kind == "workload":
            cur, rep = Section(f[0]), None
            sections.append(cur)
        elif cur is None:
            raise ValueError("line %d: record before any workload: %r"
                             % (lineno, line))
        elif kind == "rep":
            rep = None if f[0] == "-" else cur.reps.setdefault(int(f[0]), {})
        elif kind == "sample":
            cur.samples.setdefault(f[0], []).append(float(f[1]))
            if rep is not None:
                rep.setdefault(f[0], []).append(float(f[1]))
        elif kind == "layer":
            cur.layers[f[0]] = float(f[1])
        elif kind == "op":
            cur.ops[int(f[0])] = f[1]
        elif kind == "result":
            cur.results.append(parse_result(f))
        elif kind == "fail":
            cur.fails.append((int(f[0]), f[1]))
        elif kind == "spans":
            cur.spans = f[0]
        else:
            raise ValueError("line %d: unknown record %r" % (lineno, line))
    return context, sections


def format_metric_line(name, value, unit):
    return "metric %s %r %s" % (name, value, unit)


def parse_metric_line(line):
    """Inverse of format_metric_line: (name, value, unit)."""
    kind, name, value, unit = line.split(" ")
    if kind != "metric":
        raise ValueError("not a metric line: %r" % line)
    return name, float(value), unit


# --------------------------------------------------------------- oracle

ORACLE_HEADER = ("# id\tcycles\tcommitted\tipc\tenergy_pj\tcounters_digest"
                 "\tentry_digest\tkey")


def oracle_line(result, key):
    return "\t".join([result.oracle_id, str(result.cycles),
                      str(result.committed), result.ipc, result.energy,
                      result.counters, result.entry, key])


def load_oracle(path):
    """id -> (cycles, committed, ipc, energy, counters, entry, key)."""
    table = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            oid, cyc, com, ipc, energy, counters, entry, key = \
                line.rstrip("\n").split("\t")
            table[oid] = (int(cyc), int(com), ipc, energy, counters, entry,
                          key)
    return table


def check_result(result, oracle):
    """Reasons this result disagrees with the oracle (empty when right)."""
    reasons = []
    if result.deadlocked:
        reasons.append("deadlocked")
    row = oracle.get(result.oracle_id)
    if row is None:
        reasons.append("no_expectation")
    elif result.expected_fields() != row[:5]:
        reasons.append("wrong_result")
    elif result.entry != "-" and result.entry != row[5]:
        reasons.append("wrong_entry_bytes")
    return reasons


def account(section, oracle):
    """Failure accounting: (attempted, failed, {reason: count}).

    An operation fails once however many reasons it has; the reasons
    are counted separately. Busy rejects, failed rows, client errors,
    deadlocked runs and wrong outputs all fail their operation.
    """
    reasons_by_op = {}
    for op, reason in section.fails:
        reasons_by_op.setdefault(op, []).append(reason)
    for r in section.results:
        for reason in check_result(r, oracle):
            reasons_by_op.setdefault(r.op, []).append(reason)
    unknown = set(reasons_by_op) - set(section.ops)
    if unknown:
        raise ValueError("failures for undeclared ops %s" % sorted(unknown))
    by_reason = {}
    for reasons in reasons_by_op.values():
        for reason in reasons:
            by_reason[reason] = by_reason.get(reason, 0) + 1
    return len(section.ops), len(reasons_by_op), by_reason


# ---------------------------------------------------------------- spans

def load_spans(path):
    """[(id, parent, run, layer, name, t0, t1)] from the load generator's file."""
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, run, lay, name, t0, t1 = line.rstrip("\n").split(
                "\t")
            spans.append((int(sid), int(parent), int(run), lay, name,
                          int(t0), int(t1)))
    return spans


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Seconds per layer: each span's length minus what its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[5], s[6]))
    out = {}
    for sid, _, _, lay, _, t0, t1 in spans:
        own = (t1 - t0) - covered(children.get(sid, []), t0, t1)
        out[lay] = out.get(lay, 0.0) + own / 1e9
    return out


# -------------------------------------------------------------- metrics

SIM_WORKLOADS = ("fp_chains", "int_cam")


# The host reference loop's ns per iteration on the 4-core development
# host (Intel Xeon, 2.0 GHz) when no other tenant slows it.
REF_HOST_NS = 11.0


def host_factor(section):
    """How much slower than the reference the host ran during the kept
    repetitions: the median of their reference-loop times over
    REF_HOST_NS. 1.0 at the development host's undisturbed speed."""
    kept = kept_reps(section)
    return median([v for r in kept for v in r["host_ref_ns"]]) / REF_HOST_NS


def kept_reps(section):
    """The faster share of a run's repetitions, by repetition wall-clock
    (all of them in store_campaign)."""
    reps = sorted(section.reps.values(), key=lambda r: r["rep_s"][0])
    return reps[:kept_count(len(reps), KEPT_SHARE[section.workload])]


def end_to_end(section):
    """The end-to-end metrics of one untraced workload run.

    Every host time comes from the kept repetitions (kept_reps), and
    set-up from the faster third of the run's set-ups. Host times are then
    scaled to the reference host speed by host_factor: divided by it,
    and rates multiplied by it.
    """
    kept = kept_reps(section)
    pooled = lambda name: [v for r in kept for v in r[name]]  # noqa: E731
    walls = pooled("rep_s")
    if section.workload in SIM_WORKLOADS:
        # A repetition is one pass over the job list; the campaign is
        # the kept passes back to back.
        rates = [r["rep_insts"][0] / r["rep_s"][0] for r in kept]
        cold, campaign = walls, sum(walls)
        latency = pooled("job_ms")
    else:
        rates = [r["sweep_insts"][0] / r["sweep_cold_s"][0] for r in kept]
        cold, campaign = pooled("sweep_cold_s"), median(walls)
        latency = pooled("submit_ms")
    s = section.samples
    f = host_factor(section)
    return {
        "sim_minst_per_s": median(rates) / 1e6 * f,
        "sweep_cold_s": median(cold) / f,
        "campaign_s": campaign / f,
        "submit_p50_ms": median(latency) / f,
        "submit_p95_ms": tail_percentile(latency, 95) / f,
        "setup_s": median(faster_share(s["setup_s"])) / f,
        "peak_rss_mb": s["peak_rss_kb"][0] / 1024.0,
    }


def per_layer(section, declared, attempted, failed, spans=None):
    """Every declared per-layer metric; 0 where the workload has no such
    layer or preset (README.md lists which metrics each workload sets)."""
    unknown = set(section.layers) - set(declared)
    if unknown:
        raise ValueError("load generator printed undeclared metrics %s"
                         % sorted(unknown))
    m = {name: 0.0 for name in declared}
    m.update(section.layers)
    s = section.samples
    if "trace.untraced_s" in s:
        m["bench.tracing_overhead_frac"] = \
            s["trace.traced_s"][0] / s["trace.untraced_s"][0] - 1.0
    m["bench.failed_frac"] = failed / attempted if attempted else 0.0
    if "host_ref_ns" in s:
        m["bench.host_ref_ns"] = median(s["host_ref_ns"])
    for lay, secs in self_times(spans or []).items():
        name = lay + ".self_s"
        if name in m:
            m[name] = secs
    return m


def result_json(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })
