// perfbench: the operator's path through AalWiNes, end to end and layer by
// layer.  Usually started through run.py, which builds this binary first:
//
//   perfbench --workload paper-oneshot|serve-mixed|whatif-churn --seed N
//             --seconds S --trace 0|1 --data-dir DIR
//   perfbench --make-expected paper|default OUT.tsv
//
// A run prints a human-readable report, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"} whose metrics are
// every figure the run computed, name to value.  run.py turns it into the
// benchmark's result: the end_to_end metrics of BENCHMARK.json with
// --trace 0, its per_layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "telemetry/telemetry.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Layers of the traced table with the layer whose span encloses them; a
/// layer's self time is its busy time minus that of its children.
constexpr std::pair<const char*, const char*> k_layer_parents[] = {
    {"io.topology", "load"},       {"io.routing", "load"},      {"xml.parse", "io.routing"},
    {"query.parse", "query"},      {"verify.engine", "query"},  {"io.encode", "query"},
    {"nfa.compile", "verify.engine"}, {"verify.translate", "verify.engine"},
    {"pda.saturate", "verify.engine"}, {"pda.accept", "verify.engine"},
    {"pda.witness", "verify.engine"}, {"json.decode", "server.handle"},
    {"delta.apply", "delta"},        {"delta.reverify", "delta"},   {"io.encode", "delta"},
};

/// Fill the per-layer metrics that follow from the recorded spans and
/// counters; workloads set the rest directly.
void derive_layer_metrics(RunResult& run) {
    auto& m = run.metrics;
    const auto per_load = [&](const char* layer) {
        const auto it = run.layers.find(layer);
        return it == run.layers.end() || it->second.calls == 0
                   ? 0.0
                   : it->second.seconds / static_cast<double>(it->second.calls);
    };
    m["xml.parse_s"] = per_load("xml.parse");
    m["io.topology_s"] = per_load("io.topology");
    m["io.routing_s"] = per_load("io.routing");
    const auto routing_seconds = run.layers["io.routing"].seconds;
    m["io.rules_per_s"] = routing_seconds > 0 ? run.counts["io.rules"] / routing_seconds : 0.0;
    for (const auto* layer : {"query.parse", "nfa.compile", "verify.translate", "verify.engine",
                              "pda.saturate", "pda.accept", "pda.witness", "io.encode",
                              "json.decode", "server.handle", "delta.apply", "delta.reverify"})
        m[std::string(layer) + "_ms"] = run.mean_ms(layer);
    const double results = run.counts["pda.results"];
    if (results > 0) {
        m["verify.under_share"] = run.counts["verify.under"] / results;
        m["pda.rules_materialized"] = run.counts["pda.rules_materialized"] / results;
        m["pda.iterations"] = run.counts["pda.iterations"] / results;
        m["pda.relaxations"] = run.counts["pda.relaxations"] / results;
        if (run.counts["pda.rules_total"] > 0)
            m["pda.materialized_ratio"] =
                run.counts["pda.rules_materialized"] / run.counts["pda.rules_total"];
    }
}

std::string format_number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void print_layer_table(const RunResult& run) {
    std::printf("# layer table (busy time from spans around calls into each module)\n");
    std::printf("# %-18s %10s %12s %12s %12s\n", "layer", "calls", "total_ms", "mean_ms",
                "self_ms");
    for (const auto& [layer, totals] : run.layers) {
        double children = 0.0;
        for (const auto& [child, parent] : k_layer_parents) {
            const auto it = run.layers.find(child);
            if (layer == parent && it != run.layers.end()) children += it->second.seconds;
        }
        std::printf("# %-18s %10zu %12.3f %12.4f %12.3f\n", layer.c_str(), totals.calls,
                    1e3 * totals.seconds,
                    totals.calls ? 1e3 * totals.seconds / static_cast<double>(totals.calls) : 0.0,
                    1e3 * (totals.seconds - children));
    }
    std::printf("# counters:");
    for (const auto& [name, value] : run.counts) std::printf(" %s=%.0f", name.c_str(), value);
    std::printf("\n");
}

void clear_ambient_overrides() {
    std::vector<std::string> names;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const std::string variable(*entry);
        const auto name = variable.substr(0, variable.find('='));
        if (name == "AALWINES_SOLVER_THREADS" || name.rfind("AALWINES_BENCH_", 0) == 0)
            names.push_back(name);
    }
    for (const auto& name : names) ::unsetenv(name.c_str());
}

int usage() {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--data-dir DIR\n"
                 "       perfbench --make-expected paper|default OUT.tsv\n";
    return 2;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    clear_ambient_overrides();
    std::vector<std::string> arguments(argv + 1, argv + argc);
    if (arguments.size() == 3 && arguments[0] == "--make-expected")
        return make_expected(arguments[1], arguments[2]);

    Args args;
    for (std::size_t i = 0; i + 1 < arguments.size(); i += 2) {
        const auto& flag = arguments[i];
        const auto& value = arguments[i + 1];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::stoull(value);
        else if (flag == "--seconds") args.seconds = std::stod(value);
        else if (flag == "--trace") args.trace = value == "1";
        else if (flag == "--data-dir") args.data_dir = value;
        else return usage();
    }
    if (arguments.size() % 2 != 0 || args.data_dir.empty() || args.seconds <= 0) return usage();

    RunResult run;
    try {
        if (args.workload == "paper-oneshot") run = run_paper_oneshot(args);
        else if (args.workload == "serve-mixed") run = run_serve_mixed(args);
        else if (args.workload == "whatif-churn") run = run_whatif_churn(args);
        else return usage();
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << args.workload << ": " << error.what() << "\n";
        return 1;
    }
    // whatif-churn reads it itself once its first session is complete.
    if (!run.metrics.count("peak_rss_mb"))
        run.metrics["peak_rss_mb"] =
            static_cast<double>(aalwines::telemetry::peak_rss_kb()) / 1024.0;
    run.metrics["error_rate"] =
        run.attempted ? static_cast<double>(run.failed) / static_cast<double>(run.attempted) : 0.0;
    if (args.trace) derive_layer_metrics(run);

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::printf("# build=%s telemetry=%d nproc=%u\n", PERFBENCH_BUILD_TYPE,
                AALWINES_TELEMETRY_ENABLED ? 1 : 0, std::thread::hardware_concurrency());
    for (const auto& [key, value] : run.config)
        std::printf("# option %s=%s\n", key.c_str(), value.c_str());
    for (const auto& failure : run.failures) std::printf("# FAILED %s\n", failure.c_str());
    if (args.trace) print_layer_table(run);

    // Every metric the run computed, by name; run.py picks and orders the
    // ones BENCHMARK.json declares for the mode and adds their units.
    bool finite = true;
    std::string metrics;
    for (const auto& [name, measured] : run.metrics) {
        double value = measured;
        if (!std::isfinite(value)) {
            finite = false;
            value = 0.0;
        }
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + name + "\": " + format_number(value);
    }
    const bool correct = finite && run.failed == 0 && run.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", run.attempted, run.failed, metrics.c_str());
    return 0;
}
