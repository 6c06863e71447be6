/**
 * @file
 * The benchmark's workloads and the record stream they print.
 *
 * The load generator only executes and records. Every operation (a simulated
 * job, a sweep point, a submit) is announced with an `op` record; its
 * simulated outputs follow as `result` records and its failures as
 * `fail` records. Host times are `sample` records, and in traced mode
 * per-layer figures are `layer` records. run.py turns the stream into
 * metrics and checks every `result` against oracle.tsv (README.md,
 * "Load generator records").
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "runner/sim_job.hh"
#include "tracer.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string diq;    ///< path of the `diq` binary (store_campaign)
    std::string runDir; ///< scratch directory for stores, sockets, traces
};

/** Thread-safe line output on stdout. */
void emit(const std::string &line);

/** "sample <name> <value>" with every digit of the value. */
void sample(const std::string &name, double value);

/** "layer <name> <value>". */
void layer(const std::string &name, double value);

/** A fresh operation id, announced as "op <id> <kind>". */
uint64_t newOp(const char *kind);

/** 16 hex digits of FNV-1a 64 over `s`. */
std::string digest(const std::string &s);

/**
 * "result" record of one simulated outcome. `oracleKey` names the
 * expected row; `entryKey` is the key the result is stored under, or
 * empty when the stored entry is not comparable byte for byte (a
 * replayed trace carries its file path in the key).
 */
void emitResult(uint64_t op, const std::string &oracleKey,
                const std::string &entryKey, const diq::runner::SimResult &r);

/** One simulated job of a sim workload. */
struct JobDef
{
    std::string preset;
    std::string bench; ///< bench token as given to the spec layer
    uint64_t warmup = 0, measure = 0;
    std::string extra; ///< further spec tokens (store campaign knobs)

    /** Bench name of the expected row when it differs from `bench`. */
    std::string oracleBench;

    std::string text() const;
    std::string oracleText() const;
};

/**
 * Per-layer accumulators, filled only when tracing. Sums over jobs;
 * the ratios are formed in report().
 */
struct LayerAcc
{
    struct Run
    {
        int64_t ns = 0;
        uint64_t insts = 0, cycles = 0;
    };
    std::map<std::string, Run> byPreset;

    int64_t mbRunNs = 0;
    uint64_t mbSweeps = 0, mbSelects = 0, mbLatches = 0, mbCommitted = 0;
    uint64_t camBroadcasts = 0, camMatches = 0, camCommitted = 0;
    uint64_t fifoReads = 0, fifoSteerFull = 0, fifoCommitted = 0;

    uint64_t cycles = 0, dispatchStall = 0, windowStall = 0,
             fetchStall = 0, occupancySum = 0;
    uint64_t l1dAccesses = 0, l1dMisses = 0, l2Accesses = 0, l2Misses = 0;
    uint64_t branches = 0, mispredicts = 0;

    int64_t parseNs = 0, makeNs = 0, constructNs = 0;
    uint64_t jobs = 0;

    /** Print the sim/core/mem/branch/spec/trace layer records. */
    void report() const;
};

/** Outcome of runJob. */
struct JobRun
{
    diq::runner::SimResult result;
    int64_t wallNs = 0;
    uint64_t insts = 0; ///< committed, warm-up + measured
};

/**
 * Run one job through the public layers (spec parse, makeJob,
 * makeJobWorkload, Cpu, run/resetStats/run, energyFor), print its op
 * and result records, and add to `acc` when tracing.
 */
JobRun runJob(const JobDef &def, Tracer &tr, LayerAcc &acc);

/** The sim workloads: fp_chains and int_cam. */
int runSimWorkload(const Options &o);

/** The sweep-then-serve campaign. */
int runStoreCampaign(const Options &o);

/** Every (budgets, grid) pair a workload can draw, for the oracle. */
struct OracleGrid
{
    uint64_t warmup, measure;
    std::string grid;
};
std::vector<OracleGrid> simOracleGrids();
std::vector<OracleGrid> campaignOracleGrids();

/**
 * trace.gen_ns_per_op: host ns per op of TraceSource::next on each
 * bench token's workload from trace::makeWorkload, drained standalone
 * and averaged over the tokens.
 */
double genNsPerOp(const std::vector<std::string> &benches, Tracer &tr);

/** Comma-joined, as the grid form's value lists are written. */
std::string joinComma(const std::vector<std::string> &v);

/** Draw in [0, n) from raw engine output (same on every stdlib). */
inline uint64_t
draw(std::mt19937_64 &rng, uint64_t n)
{
    return rng() % n;
}

/** Fisher-Yates with draw(), so orders repeat across stdlibs. */
template <class T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[draw(rng, i)]);
}

/** Host ns per iteration of a fixed reference loop: tracks how fast
 *  the host runs now, independently of the simulator's code. */
double hostRefNs();

/** Peak resident set (VmHWM) of process `pid` ("self" for this one)
 *  in KiB; 0 when unreadable. */
long peakRssKb(const std::string &pid);

/** Restart this process's VmHWM from its current RSS, so a workload
 *  run after another reports its own peak. */
void resetPeakRss();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
