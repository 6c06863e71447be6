/**
 * @file
 * store_campaign: a cold `runAllSupervised` sweep into an empty store
 * (phase A), then `diq serve` on that store with two closed-loop
 * `ServeClient` connections submitting small sub-grids (phase B).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "runner/sweep_runner.hh"
#include "serve/client.hh"
#include "spec/experiment_spec.hh"
#include "store/result_store.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using diq::serve::ServeClient;

// Slowest first, as phase A's grid runs scheme-major: the short jobs
// come last, so the two workers finish close together.
const std::vector<std::string> kSchemes = {
    "mixbuff_8x8_8x16", "mb_distr", "latfifo_8x8_8x16", "if_distr",
    "iq6464"};
const std::vector<std::string> kBenches = {
    "mcf", "applu", "swim", "equake", "mgrid", "bzip2", "gcc", "gzip"};
// The swept knob: main-memory latency to the first chunk (Table 1
// default 100). Phase A takes one value, new points take the others.
const std::vector<int> kLatencies = {90, 100, 110, 120};
const char *const kLatencyKey = "mem_first_chunk_latency";

// The runner's default budgets.
constexpr uint64_t kWarmup = 30000;
constexpr uint64_t kMeasure = 120000;

constexpr unsigned kWorkers = 2;
constexpr size_t kClients = 2;
constexpr size_t kStepsPerClient = 100;
// Both clients submit the same new point at every tenth step.
constexpr size_t kDedupeEvery = 10, kDedupeOffset = 4;
constexpr size_t kStatusEvery = 10;

// One repetition's wall-clock on the 4-core development host at its
// faster speed; sizes a run from --seconds.
constexpr double kNominalRepSeconds = 2.3;
constexpr size_t kMinReps = 3;

struct Submit
{
    enum Kind { Warm, Cold, Dedupe } kind;
    std::string grid;
    size_t points;
};

/** Everything the seed decides. */
struct Plan
{
    int latA = 0;
    std::string gridA;
    std::vector<JobDef> pointsA;
    std::array<std::vector<Submit>, kClients> client;
    size_t newPoints = 0;
};

Plan
makePlan(uint64_t seed)
{
    // The seed picks latencies, the order of each client's steps and
    // the warm sub-grids. Which (scheme, bench) pairs are dedupe or
    // cold points, and phase A's grid order, are fixed: they set how
    // much work a run does, and that must not change with the seed.
    std::mt19937_64 rng(seed ^ 0x5eed0fca3a16e5ULL);
    Plan p;
    p.latA = kLatencies[draw(rng, kLatencies.size())];
    std::string latA = std::to_string(p.latA);
    p.gridA = "scheme=" + joinComma(kSchemes) + " bench=" + joinComma(kBenches) + " " +
        kLatencyKey + "=" + latA;
    for (const auto &s : kSchemes)
        for (const auto &b : kBenches)
            p.pointsA.push_back({s, b, kWarmup, kMeasure,
                                 std::string(kLatencyKey) + "=" + latA,
                                 ""});

    // Every (scheme, bench) pair gets one new point at another latency:
    // every fourth pair is a dedupe point, the rest alternate between
    // the clients as cold points.
    std::vector<int> others;
    for (int l : kLatencies)
        if (l != p.latA)
            others.push_back(l);
    auto newLatency = [&] {
        return std::to_string(others[draw(rng, others.size())]);
    };
    std::vector<std::string> dedupe;
    std::array<std::vector<std::string>, kClients> cold;
    size_t i = 0;
    for (const auto &s : kSchemes) {
        for (const auto &b : kBenches) {
            std::string grid = "scheme=" + s + " bench=" + b + " " +
                kLatencyKey + "=";
            if (i % 4 == 0)
                dedupe.push_back(grid + newLatency());
            else
                cold[(i - i / 4 - 1) % kClients].push_back(
                    grid + latA + "," + newLatency());
            ++i;
        }
    }
    p.newPoints = i;

    for (size_t c = 0; c < kClients; ++c) {
        std::vector<Submit::Kind> kinds(kStepsPerClient, Submit::Warm);
        for (size_t d = 0; d < dedupe.size(); ++d)
            kinds[d * kDedupeEvery + kDedupeOffset] = Submit::Dedupe;
        std::vector<size_t> free;
        for (size_t k = 0; k < kinds.size(); ++k)
            if (kinds[k] == Submit::Warm)
                free.push_back(k);
        shuffle(free, rng);
        for (size_t k = 0; k < cold[c].size(); ++k)
            kinds[free[k]] = Submit::Cold;
        shuffle(cold[c], rng);
        size_t d = 0, n = 0;
        for (Submit::Kind k : kinds) {
            if (k == Submit::Dedupe) {
                p.client[c].push_back({k, dedupe[d++], 1});
            } else if (k == Submit::Cold) {
                p.client[c].push_back({k, cold[c][n++], 2});
            } else {
                size_t s0 = draw(rng, kSchemes.size());
                size_t s1 = (s0 + 1 + draw(rng, kSchemes.size() - 1)) %
                    kSchemes.size();
                size_t b0 = draw(rng, kBenches.size());
                size_t b1 = (b0 + 1 + draw(rng, kBenches.size() - 1)) %
                    kBenches.size();
                p.client[c].push_back(
                    {k,
                     "scheme=" + kSchemes[s0] + "," + kSchemes[s1] +
                         " bench=" + kBenches[b0] + "," + kBenches[b1] +
                         " " + kLatencyKey + "=" + latA,
                     4});
            }
        }
    }
    return p;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** A `diq serve` child process; stopped and reaped on destruction. */
class ServerChild
{
  public:
    ServerChild(const std::string &diq, const std::string &socket,
                const std::string &store, const std::string &log)
        : socket_(socket)
    {
        // The child must not pick up fault plans or budgets from the
        // caller's environment.
        std::vector<std::string> env;
        for (char **e = environ; *e; ++e)
            if (std::string(*e).rfind("DIQ_", 0) != 0)
                env.emplace_back(*e);
        std::vector<char *> envp;
        for (auto &e : env)
            envp.push_back(e.data());
        envp.push_back(nullptr);

        std::vector<std::string> args = {
            diq, "serve", "--socket", socket, "--store", store,
            "--jobs", std::to_string(kWorkers)};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
        int rc = posix_spawn(&pid_, diq.c_str(), &fa, nullptr, argv.data(),
                             envp.data());
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + diq);
        }

        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!ServeClient::ping(socket_)) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("diq serve exited at start-up "
                                         "(see " + log + ")");
            }
            if (std::chrono::steady_clock::now() > deadline) {
                kill();
                throw std::runtime_error("diq serve did not come up");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    }

    ~ServerChild() { kill(); }

    ServerChild(const ServerChild &) = delete;
    ServerChild &operator=(const ServerChild &) = delete;

    /** Peak resident set of the child in KiB. */
    long
    peakRssKb() const
    {
        return perfbench::peakRssKb(std::to_string(pid_));
    }

    /** Graceful stop through the protocol, then reap. */
    void
    shutdown()
    {
        ServeClient(socket_).shutdown();
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("diq serve did not exit cleanly");
    }

  private:
    void
    kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    std::string socket_;
    pid_t pid_ = -1;
};

/** What one repetition of the campaign measured. */
struct Rep
{
    double setupS = 0, sweepS = 0, phaseBS = 0;
    uint64_t sweptInsts = 0;
    std::vector<double> warmMs, statusUs;
    uint64_t hits = 0, attached = 0, computed = 0, rejectedBusy = 0;
    size_t pointsComputed = 0, pointsReplayed = 0;
    long childRssKb = 0;
};

Rep
runRep(const Options &o, const Plan &plan, size_t index, Tracer &tr,
       bool probeStore)
{
    using namespace diq;
    Rep rep;
    if (!tr.on())
        emit("rep " + std::to_string(index));
    auto root = tr.span("bench", "rep", tr.newRun());
    fs::path dir = fs::path(o.runDir) / ("rep" + std::to_string(index));
    fs::remove_all(dir);
    std::string storeDir = (dir / "store").string();
    // Relative to the working directory, which keeps the socket path
    // short whatever the checkout's location.
    std::string socket = (dir / "s.sock").string();

    // Set-up, part 1: an empty store under the writer lock.
    int64_t s0 = nowNs();
    std::optional<store::StoreLock> lock;
    std::optional<store::ResultStore> st;
    {
        auto s = tr.span("store", "ResultStore::ResultStore");
        fs::create_directories(dir);
        lock.emplace(storeDir);
        st.emplace(storeDir);
    }
    rep.setupS = (nowNs() - s0) / 1e9;

    // Phase A: the cold sweep, as `diq sweep --store` runs it.
    int64_t a0 = nowNs();
    std::vector<std::string> keys;
    {
        runner::SweepSpec grid;
        {
            auto s = tr.span("spec", "SweepSpec::fromText");
            grid = runner::SweepSpec::fromText(plan.gridA);
        }
        runner::RunnerOptions ro;
        ro.warmupInsts = kWarmup;
        ro.measureInsts = kMeasure;
        ro.jobs = kWorkers;
        ro.store = &*st;
        runner::SweepRunner runner(ro);
        std::string campaign = "perfbench " + plan.gridA;
        runner::SweepJournal journal(
            st->root() / "journals" /
                runner::SweepJournal::fileNameFor(campaign),
            campaign, false);
        std::vector<runner::JobOutcome> outcomes;
        {
            auto s = tr.span("runner", "SweepRunner::runAllSupervised");
            outcomes = runner.runAllSupervised(grid, &journal);
        }
        rep.sweepS = (nowNs() - a0) / 1e9;
        for (size_t i = 0; i < outcomes.size(); ++i) {
            spec::ExperimentSpec exp = grid.points()[i].first;
            exp.benchmark = grid.points()[i].second.name;
            exp.warmupInsts = kWarmup;
            exp.measureInsts = kMeasure;
            keys.push_back(exp.canonicalLine());
            uint64_t op = newOp("sweep_point");
            const runner::JobOutcome &out = outcomes[i];
            if (!out.result) {
                emit("fail " + std::to_string(op) + " failed_row");
                continue;
            }
            emitResult(op, keys.back(), keys.back(), *out.result);
            rep.sweptInsts += out.result->stats.committed + kWarmup;
            ++(out.fromStore ? rep.pointsReplayed : rep.pointsComputed);
        }
    }
    st.reset();
    lock.reset();

    // Set-up, part 2: the server on the swept store.
    int64_t s1 = nowNs();
    std::optional<ServerChild> server;
    {
        auto s = tr.span("serve", "diq serve start");
        server.emplace(o.diq, socket, storeDir, (dir / "serve.log").string());
    }
    rep.setupS += (nowNs() - s1) / 1e9;

    // Phase B: two closed-loop clients.
    int64_t b0 = nowNs();
    std::barrier sync(static_cast<std::ptrdiff_t>(kClients));
    std::mutex mu; // guards the Rep fields the clients add to
    auto client = [&](size_t c) {
        try {
            std::optional<ServeClient> conn;
            {
                auto s = tr.span("serve", "ServeClient::ServeClient",
                                 tr.newRun(), root.id());
                conn.emplace(socket);
            }
            const auto &steps = plan.client[c];
            for (size_t i = 0; i < steps.size(); ++i) {
                const Submit &sub = steps[i];
                if (sub.kind == Submit::Dedupe)
                    sync.arrive_and_wait();
                uint64_t op = newOp("submit");
                std::vector<serve::RowOutcome> rows;
                serve::SubmitSummary sum;
                int64_t t0 = nowNs();
                try {
                    auto s = tr.span("serve", "ServeClient::submit",
                                     tr.newRun(), root.id());
                    sum = conn->submit(kWarmup, kMeasure, sub.grid,
                                       [&](const serve::RowOutcome &r) {
                                           rows.push_back(r);
                                       });
                } catch (const serve::ServerBusy &) {
                    emit("fail " + std::to_string(op) + " busy_reject");
                    continue;
                }
                double ms = (nowNs() - t0) / 1e6;
                if (!tr.on())
                    sample("submit_ms", ms);
                if (rows.size() != sub.points)
                    emit("fail " + std::to_string(op) + " missing_row");
                for (const auto &r : rows) {
                    if (r.result)
                        emitResult(op, r.key, r.key, *r.result);
                    else
                        emit("fail " + std::to_string(op) + " failed_row");
                }
                double statusUs = -1;
                if ((i + 1) % kStatusEvery == 0) {
                    auto s = tr.span("serve", "ServeClient::status",
                                     tr.newRun(), root.id());
                    int64_t q0 = nowNs();
                    conn->status();
                    statusUs = (nowNs() - q0) / 1e3;
                }
                std::lock_guard<std::mutex> g(mu);
                if (sum.storeHits == sub.points)
                    rep.warmMs.push_back(ms);
                if (statusUs >= 0)
                    rep.statusUs.push_back(statusUs);
                rep.hits += sum.storeHits;
                rep.attached += sum.attached;
                rep.computed += sum.computed;
            }
        } catch (const std::exception &e) {
            emit("fail " + std::to_string(newOp("submit")) +
                 " client_error");
            std::cerr << "perfbench: client " << c << ": " << e.what()
                      << "\n";
            // Let the other client pass the remaining dedupe steps.
            sync.arrive_and_drop();
        }
    };
    {
        std::vector<std::jthread> threads;
        for (size_t c = 0; c < kClients; ++c)
            threads.emplace_back(client, c);
    }
    rep.phaseBS = (nowNs() - b0) / 1e9;

    {
        ServeClient conn(socket);
        for (const auto &[k, v] : conn.status())
            if (k == "rejected_busy")
                rep.rejectedBusy = std::stoull(v);
    }
    rep.childRssKb = server->peakRssKb();
    {
        auto s = tr.span("serve", "diq serve shutdown");
        server->shutdown();
    }
    server.reset();

    if (probeStore) {
        // store.load_us / store.save_us on this campaign's keys.
        store::ResultStore warm(storeDir);
        store::ResultStore scratch((dir / "probe").string());
        std::vector<std::pair<std::string, runner::SimResult>> loaded;
        int64_t l0 = nowNs();
        for (const auto &k : keys) {
            auto s = tr.span("store", "ResultStore::load");
            if (auto r = warm.load(k))
                loaded.emplace_back(k, *r);
        }
        int64_t l1 = nowNs();
        for (const auto &[k, r] : loaded) {
            auto s = tr.span("store", "ResultStore::save");
            scratch.save(k, r);
        }
        int64_t l2 = nowNs();
        if (loaded.size() != keys.size())
            throw std::runtime_error("swept keys missing from the store");
        auto stats = warm.stats();
        layer("store.load_us", (l1 - l0) / 1e3 / double(keys.size()));
        layer("store.save_us", (l2 - l1) / 1e3 / double(keys.size()));
        layer("store.entry_bytes",
              stats.entries ? double(stats.entryBytes) / stats.entries : 0);
    }
    root.stop();
    fs::remove_all(dir);
    return rep;
}

} // namespace

int
runStoreCampaign(const Options &o)
{
    Plan plan = makePlan(o.seed);
    fs::create_directories(o.runDir);
    size_t reps = std::max(kMinReps,
                           size_t(std::ceil(o.seconds / kNominalRepSeconds)));

    // One store + server set-up on its own, timed like a repetition's.
    auto extraSetup = [&](size_t k) {
        fs::path dir = fs::path(o.runDir) / ("setup" + std::to_string(k));
        fs::remove_all(dir);
        int64_t t0 = nowNs();
        fs::create_directories(dir);
        {
            diq::store::StoreLock lock((dir / "store").string());
            diq::store::ResultStore st((dir / "store").string());
        }
        ServerChild server(o.diq, (dir / "s.sock").string(),
                           (dir / "store").string(),
                           (dir / "serve.log").string());
        sample("setup_s", (nowNs() - t0) / 1e9);
        server.shutdown();
        fs::remove_all(dir);
    };

    // Each repetition is followed by the host reference loop, an extra
    // set-up and the loop again, then, in traced mode, by the same
    // repetition traced: set-ups and both halves of the tracing
    // comparison sample the whole run.
    Tracer off(false), tr(true);
    std::vector<Rep> traced;
    long childRss = 0;
    double untracedS = 0, tracedS = 0;
    for (size_t i = 0; i < reps; ++i) {
        Rep r = runRep(o, plan, i, off, false);
        sample("sweep_cold_s", r.sweepS);
        sample("sweep_insts", double(r.sweptInsts));
        sample("rep_s", r.sweepS + r.phaseBS);
        sample("setup_s", r.setupS);
        sample("host_ref_ns", hostRefNs());
        extraSetup(i);
        sample("host_ref_ns", hostRefNs());
        emit("rep -");
        untracedS += r.sweepS + r.phaseBS;
        childRss = std::max(childRss, r.childRssKb);
        if (o.trace) {
            traced.push_back(runRep(o, plan, i, tr, i + 1 == reps));
            tracedS += traced.back().sweepS + traced.back().phaseBS;
            childRss = std::max(childRss, traced.back().childRssKb);
        }
    }

    if (o.trace) {
        sample("trace.untraced_s", untracedS);
        sample("trace.traced_s", tracedS);

        auto med = [&](auto field) {
            std::vector<double> v;
            for (const Rep &r : traced)
                v.push_back(double(field(r)));
            return median(v);
        };
        std::vector<double> warm, status;
        for (const Rep &r : traced) {
            warm.insert(warm.end(), r.warmMs.begin(), r.warmMs.end());
            status.insert(status.end(), r.statusUs.begin(),
                          r.statusUs.end());
        }
        layer("serve.warm_submit_ms", median(warm));
        layer("serve.status_rtt_us", median(status));
        layer("serve.store_hits", med([](const Rep &r) { return r.hits; }));
        layer("serve.attached", med([](const Rep &r) { return r.attached; }));
        layer("serve.computed", med([](const Rep &r) { return r.computed; }));
        layer("serve.rejected_busy",
              med([](const Rep &r) { return r.rejectedBusy; }));
        layer("serve.compute_per_new_point",
              med([](const Rep &r) { return r.computed; }) /
                  double(plan.newPoints));
        layer("runner.points_computed",
              med([](const Rep &r) { return r.pointsComputed; }));
        layer("runner.points_replayed",
              med([](const Rep &r) { return r.pointsReplayed; }));

        // Serial re-execution of phase A's points through the job path:
        // per-point compute time for runner.parallel_efficiency, and the
        // per-preset sim/core/mem figures of this campaign's points.
        LayerAcc acc;
        double serialS = 0;
        for (const JobDef &d : plan.pointsA)
            serialS += runJob(d, tr, acc).wallNs / 1e9;
        acc.report();
        layer("runner.parallel_efficiency",
              serialS /
                  (med([](const Rep &r) { return r.sweepS; }) * kWorkers));

        layer("trace.gen_ns_per_op", genNsPerOp(kBenches, tr));

        std::string spans = o.runDir + "/spans.tsv";
        if (!tr.write(spans))
            throw std::runtime_error("cannot write " + spans);
        emit("spans " + spans);
    }
    sample("peak_rss_kb", double(peakRssKb("self") + childRss));
    return 0;
}

std::vector<OracleGrid>
campaignOracleGrids()
{
    std::vector<std::string> lat;
    for (int l : kLatencies)
        lat.push_back(std::to_string(l));
    return {{kWarmup, kMeasure,
             "scheme=" + joinComma(kSchemes) + " bench=" + joinComma(kBenches) + " " +
                 kLatencyKey + "=" + joinComma(lat)}};
}

} // namespace perfbench
