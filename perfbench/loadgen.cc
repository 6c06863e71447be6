/**
 * @file
 * perfbench_loadgen: runs benchmark workloads against libdiq and prints
 * the record stream that run.py turns into metrics (README.md).
 *
 *   perfbench_loadgen run --workload W --seed N --seconds S --trace 0|1
 *                        --diq PATH --run-dir DIR
 *   perfbench_loadgen oracle [--jobs N]
 *
 * W is fp_chains, int_cam, store_campaign or all (the three in turn, in
 * this one process). `oracle` prints the expected result of every point
 * any workload can draw, computed by the serverless sweep runner.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "runner/sweep_runner.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage()
{
    std::cerr << "usage: perfbench_loadgen run --workload W --seed N "
                 "--seconds S --trace 0|1 --diq PATH --run-dir DIR\n"
                 "       perfbench_loadgen oracle [--jobs N]\n";
    return 2;
}

/** Every oracle grid (`grid`) and its points (`key`, `result`). */
int
oracle(unsigned jobs)
{
    std::vector<OracleGrid> grids = simOracleGrids();
    for (const OracleGrid &g : campaignOracleGrids())
        grids.push_back(g);
    for (const OracleGrid &g : grids) {
        diq::runner::RunnerOptions ro;
        ro.warmupInsts = g.warmup;
        ro.measureInsts = g.measure;
        ro.jobs = jobs;
        diq::runner::SweepRunner runner(ro);
        emit("grid " + std::to_string(g.warmup) + " " +
             std::to_string(g.measure) + " " + g.grid);
        auto spec = diq::runner::SweepSpec::fromText(g.grid);
        auto results = runner.runAll(spec);
        for (size_t i = 0; i < results.size(); ++i) {
            diq::spec::ExperimentSpec exp = spec.points()[i].first;
            exp.benchmark = spec.points()[i].second.name;
            exp.warmupInsts = g.warmup;
            exp.measureInsts = g.measure;
            std::string key = exp.canonicalLine();
            emit("key " + digest(key) + " " + key);
            emitResult(0, key, key, *results[i]);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::ios::sync_with_stdio(false);
    std::string buildType = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
    buildType += "+assertions";
#endif
    if (buildType != "Release") {
        std::cerr << "perfbench: refusing to measure a '" << buildType
                  << "' build of libdiq; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            return usage();
        args[k.substr(2)] = argv[i + 1];
    }
    auto arg = [&](const std::string &k, const std::string &dflt) {
        auto it = args.find(k);
        return it == args.end() ? dflt : it->second;
    };

    try {
        if (mode == "oracle")
            return oracle(static_cast<unsigned>(std::stoul(arg("jobs", "0"))));
        if (mode != "run")
            return usage();

        Options o;
        o.workload = arg("workload", "");
        o.seed = std::stoull(arg("seed", "1"));
        o.seconds = std::stod(arg("seconds", "10"));
        o.trace = arg("trace", "0") == "1";
        o.diq = arg("diq", "");
        std::string runDir = arg("run-dir", "");
        if (runDir.empty())
            return usage();

        std::vector<std::string> workloads = {o.workload};
        if (o.workload == "all")
            workloads = {"fp_chains", "int_cam", "store_campaign"};
        emit("context build_type " + buildType);
        for (const std::string &w : workloads) {
            o.workload = w;
            o.runDir = runDir + "/" + w;
            emit("workload " + w);
            resetPeakRss();
            int rc = 0;
            if (w == "fp_chains" || w == "int_cam")
                rc = runSimWorkload(o);
            else if (w == "store_campaign")
                rc = runStoreCampaign(o);
            else
                return usage();
            if (rc != 0)
                return rc;
        }
    } catch (const std::exception &e) {
        std::cout.flush();
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    std::cout.flush();
    return 0;
}
