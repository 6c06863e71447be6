/**
 * @file
 * Shared job runner, record output and the two sim workloads.
 */

#include "workloads.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "power/events.hh"
#include "sim/pipeline.hh"
#include "spec/experiment_spec.hh"
#include "store/result_store.hh"
#include "trace/file_trace.hh"
#include "trace/scenarios.hh"

namespace perfbench
{

namespace
{
std::mutex gOutMu;
std::atomic<uint64_t> gNextOp{1};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}
} // namespace

void
emit(const std::string &line)
{
    std::lock_guard<std::mutex> g(gOutMu);
    std::cout << line << '\n';
}

void
sample(const std::string &name, double value)
{
    emit("sample " + name + " " + num(value));
}

void
layer(const std::string &name, double value)
{
    emit("layer " + name + " " + num(value));
}

uint64_t
newOp(const char *kind)
{
    uint64_t id = gNextOp.fetch_add(1);
    emit("op " + std::to_string(id) + " " + kind);
    return id;
}

std::string
digest(const std::string &s)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      diq::store::fnv1a64(s.data(), s.size())));
    return buf;
}

void
emitResult(uint64_t op, const std::string &oracleKey,
           const std::string &entryKey, const diq::runner::SimResult &r)
{
    std::string entry = entryKey.empty()
        ? "-"
        : digest(diq::store::encodeEntry(entryKey, r));
    emit("result " + std::to_string(op) + " " + digest(oracleKey) + " " +
         std::to_string(r.stats.cycles) + " " +
         std::to_string(r.stats.committed) + " " + num(r.ipc) + " " +
         num(r.energy.total()) + " " +
         digest(r.stats.counters.toString()) + " " + entry + " " +
         (r.stats.deadlocked ? "1" : "0"));
}

std::string
JobDef::text() const
{
    return preset + " bench=" + bench + " warmup_insts=" +
        std::to_string(warmup) + " measure_insts=" +
        std::to_string(measure) + (extra.empty() ? "" : " " + extra);
}

std::string
JobDef::oracleText() const
{
    JobDef d = *this;
    if (!oracleBench.empty())
        d.bench = oracleBench;
    return d.text();
}

double
hostRefNs()
{
    // Fixed work that touches no libdiq code: dependent hashing,
    // table updates over 1 MiB and a data-dependent branch, the kind
    // of work one simulated cycle does.
    std::vector<uint32_t> table(1 << 18);
    uint64_t x = 88172645463325252ULL, acc = 0;
    constexpr int kIters = 1000000;
    int64_t t0 = nowNs();
    for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint32_t &slot = table[(x ^ acc) & (table.size() - 1)];
        acc += slot;
        slot = static_cast<uint32_t>(acc + i);
        if (acc & 1)
            acc ^= x;
    }
    int64_t dt = nowNs() - t0;
    volatile uint64_t sink = acc;
    (void)sink;
    return double(dt) / kIters;
}

long
peakRssKb(const std::string &pid)
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so
    // it would report the high-water mark of whatever forked us.
    std::ifstream is("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    return 0;
}

void
resetPeakRss()
{
    // "5" resets VmHWM to the current RSS (proc(5), clear_refs).
    std::ofstream("/proc/self/clear_refs") << "5";
}

JobRun
runJob(const JobDef &def, Tracer &tr, LayerAcc &acc)
{
    using namespace diq;
    using power::EventId;

    uint64_t op = newOp("job");
    int64_t t0 = nowNs();
    auto root = tr.span("bench", "job", tr.newRun());

    spec::ExperimentSpec exp;
    std::string key;
    {
        auto s = tr.span("spec", "ExperimentSpec::parse");
        exp = spec::ExperimentSpec::parse(def.text());
        key = exp.canonicalLine();
        acc.parseNs += s.stop();
    }
    runner::SimJob job;
    {
        auto s = tr.span("runner", "makeJob");
        job = runner::makeJob(exp);
    }
    std::unique_ptr<trace::TraceSource> workload;
    {
        auto s = tr.span("trace", "makeJobWorkload");
        workload = runner::makeJobWorkload(job);
        acc.makeNs += s.stop();
    }

    JobRun out;
    uint64_t warmCommitted = 0;
    uint64_t l1dA = 0, l1dM = 0, l2A = 0, l2M = 0;
    int64_t runNs = 0;
    {
        std::optional<sim::Cpu> cpu;
        {
            auto s = tr.span("sim", "Cpu::Cpu");
            cpu.emplace(exp.processor, *workload);
            acc.constructNs += s.stop();
        }
        {
            auto s = tr.span("sim", "Cpu::run");
            cpu->run(exp.warmupInsts);
            runNs += s.stop();
        }
        warmCommitted = cpu->stats().committed;
        const mem::MemoryHierarchy &m = cpu->memory();
        l1dA = m.l1d().accesses(), l1dM = m.l1d().misses();
        l2A = m.l2().accesses(), l2M = m.l2().misses();
        {
            auto s = tr.span("sim", "Cpu::resetStats");
            cpu->resetStats();
        }
        {
            auto s = tr.span("sim", "Cpu::run");
            cpu->run(exp.measureInsts);
            runNs += s.stop();
        }

        runner::SimResult &r = out.result;
        r.benchmark = job.profile.name;
        r.scheme = exp.processor.scheme.name();
        r.stats = cpu->stats();
        r.ipc = r.stats.ipc();
        {
            auto s = tr.span("runner", "energyFor");
            r.energy = runner::energyFor(exp.processor.scheme,
                                         r.stats.counters);
        }
        out.insts = warmCommitted + r.stats.committed;

        if (tr.on()) {
            LayerAcc::Run &pr = acc.byPreset[def.preset];
            pr.ns += runNs;
            pr.insts += out.insts;
            pr.cycles += cpu->cycle();
            l1dA = m.l1d().accesses() - l1dA;
            l1dM = m.l1d().misses() - l1dM;
            l2A = m.l2().accesses() - l2A;
            l2M = m.l2().misses() - l2M;
        }
    }
    root.stop();
    out.wallNs = nowNs() - t0;

    const sim::SimStats &st = out.result.stats;
    if (tr.on()) {
        const auto &c = st.counters;
        using Kind = core::SchemeConfig::Kind;
        Kind kind = exp.processor.scheme.kind;
        if (kind == Kind::MixBuff) {
            acc.mbRunNs += runNs;
            acc.mbSweeps += c.get(EventId::ChainSweeps);
            acc.mbSelects += c.get(EventId::SelectRequests);
            acc.mbLatches += c.get(EventId::RegLatches);
            acc.mbCommitted += st.committed;
        }
        if (kind == Kind::Cam) {
            acc.camBroadcasts += c.get(EventId::WakeupBroadcasts);
            acc.camMatches += c.get(EventId::WakeupCamMatches);
            acc.camCommitted += st.committed;
        } else {
            acc.fifoReads += c.get(EventId::FifoReads);
            acc.fifoSteerFull += c.get(EventId::SteerStallFull);
            acc.fifoCommitted += st.committed;
        }
        acc.cycles += st.cycles;
        acc.dispatchStall += st.dispatchStallCycles;
        acc.windowStall += st.windowStallCycles;
        acc.fetchStall += st.fetchStallCycles;
        acc.occupancySum += st.schemeOccupancySum;
        acc.l1dAccesses += l1dA, acc.l1dMisses += l1dM;
        acc.l2Accesses += l2A, acc.l2Misses += l2M;
        acc.branches += st.branches;
        acc.mispredicts += st.mispredicts;
        ++acc.jobs;
    }

    std::string oracleKey = def.oracleBench.empty()
        ? key
        : spec::ExperimentSpec::parse(def.oracleText()).canonicalLine();
    emitResult(op, oracleKey, def.oracleBench.empty() ? key : "",
               out.result);
    return out;
}

void
LayerAcc::report() const
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    for (const auto &[preset, r] : byPreset) {
        layer("sim." + preset + ".ns_per_inst",
              ratio(double(r.ns), double(r.insts)));
        layer("sim." + preset + ".ns_per_cycle",
              ratio(double(r.ns), double(r.cycles)));
    }
    if (mbSweeps > 0)
        layer("core.mb_ns_per_chain_sweep",
              ratio(double(mbRunNs), double(mbSweeps)));
    if (mbCommitted > 0) {
        layer("core.chain_sweeps_per_inst",
              ratio(double(mbSweeps), double(mbCommitted)));
        layer("core.select_requests_per_inst",
              ratio(double(mbSelects), double(mbCommitted)));
        layer("core.reg_latches_per_inst",
              ratio(double(mbLatches), double(mbCommitted)));
    }
    if (camCommitted > 0) {
        layer("core.wakeup_broadcasts_per_inst",
              ratio(double(camBroadcasts), double(camCommitted)));
        layer("core.wakeup_cam_matches_per_inst",
              ratio(double(camMatches), double(camCommitted)));
    }
    if (fifoCommitted > 0) {
        layer("core.fifo_reads_per_inst",
              ratio(double(fifoReads), double(fifoCommitted)));
        layer("core.steer_full_per_inst",
              ratio(double(fifoSteerFull), double(fifoCommitted)));
    }
    if (jobs == 0)
        return;
    layer("sim.dispatch_stall_frac",
          ratio(double(dispatchStall), double(cycles)));
    layer("sim.window_stall_frac", ratio(double(windowStall), double(cycles)));
    layer("sim.fetch_stall_frac", ratio(double(fetchStall), double(cycles)));
    layer("sim.scheme_occupancy_avg",
          ratio(double(occupancySum), double(cycles)));
    layer("mem.l1d_miss_rate", ratio(double(l1dMisses), double(l1dAccesses)));
    layer("mem.l2_miss_rate", ratio(double(l2Misses), double(l2Accesses)));
    layer("branch.mispredict_rate",
          ratio(double(mispredicts), double(branches)));
    layer("spec.parse_us", parseNs / 1e3 / double(jobs));
    layer("trace.make_us", makeNs / 1e3 / double(jobs));
    layer("sim.construct_us", constructNs / 1e3 / double(jobs));
}

// ---------------------------------------------------------------------
// fp_chains and int_cam
// ---------------------------------------------------------------------

namespace
{

// Budgets of the sim workloads' jobs. Every job simulates kSimInsts
// instructions; the seed picks, per job, how many of them warm up the
// machine before the measured region starts. A run's work is then the
// same for every seed, while the measured windows, and every modelled
// count with them, differ: a held-out seed gives other inputs.
constexpr uint64_t kSimInsts = 80000;
const std::vector<uint64_t> kSimWarmups = {10000, 20000, 30000,
                                           40000, 50000, 60000};

// At least this many jobs in the faster third of a run's passes, so
// p95 has ten samples beyond it.
constexpr size_t kMinJobs = 200;

// Set-ups per run, spread over its passes.
constexpr int kSetupReps = 9;

struct SimWorkloadDef
{
    std::vector<std::pair<std::vector<std::string>,
                          std::vector<std::string>>> grids;
    bool traceJob = false; ///< add iq6464 replaying a recorded gcc
    /** One pass's wall-clock on the 4-core development host at its
     *  faster speed; sizes a run from --seconds. */
    double nominalPassSeconds;
};

const SimWorkloadDef &
simWorkload(const std::string &name)
{
    static const SimWorkloadDef fp{
        {{{"mb_distr", "mixbuff_8x8_8x16", "latfifo_8x8_8x16"},
          {"swim", "applu", "equake", "mgrid", "scenario:fp_flood"}}},
        false,
        0.4};
    static const SimWorkloadDef integer{
        {{{"iq6464"}, {"swim", "gcc", "mcf"}},
         {{"if_distr", "mb_distr"}, {"gcc", "mcf", "bzip2"}}},
        true,
        0.21};
    return name == "fp_chains" ? fp : integer;
}

// Ops drained per bench token for trace.gen_ns_per_op.
constexpr uint64_t kGenOps = 200000;

/** Drain `ops` micro-ops (or the whole stream); host ns per op. */
double
drainNsPerOp(diq::trace::TraceSource &src, uint64_t ops)
{
    diq::trace::MicroOp op;
    uint64_t n = 0;
    int64_t t0 = nowNs();
    while (n < ops && src.next(op))
        ++n;
    int64_t dt = nowNs() - t0;
    return n ? double(dt) / double(n) : 0.0;
}

} // namespace

std::string
joinComma(const std::vector<std::string> &v)
{
    std::string s;
    for (const auto &x : v)
        s += (s.empty() ? "" : ",") + x;
    return s;
}

double
genNsPerOp(const std::vector<std::string> &benches, Tracer &tr)
{
    double sum = 0;
    for (const auto &b : benches) {
        auto s = tr.span("trace", "TraceSource::next", tr.newRun());
        auto src = diq::trace::makeWorkload(b);
        sum += drainNsPerOp(*src, kGenOps);
    }
    return sum / double(benches.size());
}

std::vector<OracleGrid>
simOracleGrids()
{
    std::vector<OracleGrid> out;
    for (const char *wl : {"fp_chains", "int_cam"})
        for (uint64_t warmup : kSimWarmups)
            for (const auto &[presets, benches] : simWorkload(wl).grids)
                out.push_back({warmup, kSimInsts - warmup,
                               "scheme=" + joinComma(presets) +
                                   " bench=" + joinComma(benches)});
    return out;
}

int
runSimWorkload(const Options &o)
{
    namespace fs = std::filesystem;
    const SimWorkloadDef &w = simWorkload(o.workload);
    std::mt19937_64 rng(o.seed);

    // Inputs: every job of the workload with a seeded warm-up split.
    auto warmup = [&] { return kSimWarmups[draw(rng, kSimWarmups.size())]; };
    std::vector<JobDef> jobs;
    for (const auto &[presets, benches] : w.grids)
        for (const auto &p : presets)
            for (const auto &b : benches) {
                uint64_t wu = warmup();
                jobs.push_back({p, b, wu, kSimInsts - wu, "", ""});
            }
    fs::create_directories(o.runDir);
    std::string tracePath = o.runDir + "/gcc.diqt";
    if (w.traceJob) {
        uint64_t wu = warmup();
        jobs.push_back({"iq6464", "trace:" + tracePath, wu, kSimInsts - wu,
                        "", "gcc"});
    }

    // Set-up: build every job's spec, job and workload, and record the
    // replayed trace. Done before the first pass and again between
    // passes, so the set-ups sample the whole run, not one moment.
    auto setup = [&] {
        int64_t t0 = nowNs();
        if (w.traceJob) {
            auto src = diq::trace::makeWorkload("gcc");
            // Fetch runs ahead of commit by at most the window, so a
            // little slack past the budget keeps the replay exact.
            diq::trace::recordTrace(*src, tracePath,
                                    jobs.back().warmup +
                                        jobs.back().measure + 8192);
        }
        for (const JobDef &d : jobs) {
            auto job = diq::runner::makeJob(
                diq::spec::ExperimentSpec::parse(d.text()));
            auto wl = diq::runner::makeJobWorkload(job);
        }
        sample("setup_s", (nowNs() - t0) / 1e9);
    };

    // run.py keeps the faster third of the passes, which must still
    // hold kMinJobs jobs.
    size_t minKept = (kMinJobs + jobs.size() - 1) / jobs.size();
    size_t passes = std::max<size_t>(
        3 * minKept - 2, size_t(std::ceil(o.seconds / w.nominalPassSeconds)));

    // One pass over the jobs in `idx` order; each untraced pass is one
    // repetition in the records. Returns its wall-clock.
    auto pass = [&](const std::vector<size_t> &idx, Tracer &tr,
                    LayerAcc &acc) {
        int64_t p0 = nowNs();
        uint64_t insts = 0;
        for (size_t i : idx) {
            JobRun run = runJob(jobs[i], tr, acc);
            insts += run.insts;
            if (!tr.on())
                sample("job_ms", run.wallNs / 1e6);
        }
        double wall = (nowNs() - p0) / 1e9;
        if (!tr.on()) {
            sample("rep_s", wall);
            sample("rep_insts", double(insts));
        }
        return wall;
    };

    // In traced mode every untraced pass is followed by the same pass
    // traced, so both halves see the same host conditions. The host
    // reference loop runs right after each untraced pass.
    setup();
    Tracer off(false), on(true);
    LayerAcc none, acc;
    double untraced = 0, traced = 0;
    std::mt19937_64 order(o.seed ^ 0x9e3779b97f4a7c15ULL);
    size_t setupEvery = std::max<size_t>(1, passes / (kSetupReps - 1));
    for (size_t p = 0; p < passes; ++p) {
        std::vector<size_t> idx(jobs.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        shuffle(idx, order);
        emit("rep " + std::to_string(p));
        untraced += pass(idx, off, none);
        sample("host_ref_ns", hostRefNs());
        emit("rep -");
        if (o.trace)
            traced += pass(idx, on, acc);
        if ((p + 1) % setupEvery == 0 && (p + 1) / setupEvery < kSetupReps)
            setup();
    }

    if (o.trace) {
        Tracer &tr = on;
        sample("trace.untraced_s", untraced);
        sample("trace.traced_s", traced);
        acc.report();

        std::set<std::string> benches;
        for (const JobDef &d : jobs)
            if (d.oracleBench.empty())
                benches.insert(d.bench);
        layer("trace.gen_ns_per_op",
              genNsPerOp({benches.begin(), benches.end()}, tr));
        if (w.traceJob) {
            auto s = tr.span("trace", "FileTrace::next", tr.newRun());
            diq::trace::FileTrace ft(tracePath);
            layer("trace.decode_ns_per_op", drainNsPerOp(ft, ~0ULL));
        }
        std::string spans = o.runDir + "/spans.tsv";
        if (!tr.write(spans))
            throw std::runtime_error("cannot write " + spans);
        emit("spans " + spans);
    }
    sample("peak_rss_kb", double(peakRssKb("self")));
    return 0;
}

} // namespace perfbench
