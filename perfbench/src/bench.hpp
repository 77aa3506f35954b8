#pragma once
// Shared pieces of the perfbench workloads: timing, the per-layer ledger of
// the traced run, the pinned verification options, the expected-verdict
// tables and the answer checks.  Everything here calls the library only
// through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/quantity.hpp"
#include "model/routing.hpp"
#include "query/query.hpp"
#include "verify/engine.hpp"

namespace perfbench {

namespace aw = aalwines;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir; ///< the benchmark's directory (holds expected/)
};

/// Busy time and call count of one layer, from spans the benchmark records
/// around calls into that module's public functions.
struct LayerTotals {
    std::size_t calls = 0;
    double seconds = 0.0;
};

/// Everything one workload run produces.
struct RunResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures; ///< first few failure descriptions
    /// End-to-end figures of the workload (untraced run) or directly
    /// computed per-layer figures (traced run), by metric name.
    std::map<std::string, double> metrics;
    std::map<std::string, LayerTotals> layers; ///< traced run: spans per layer
    std::map<std::string, double> counts;      ///< traced run: work counters
    std::vector<std::pair<std::string, std::string>> config; ///< echoed options

    void fail(const std::string& what);
    void span(const std::string& layer, double seconds) {
        auto& totals = layers[layer];
        ++totals.calls;
        totals.seconds += seconds;
    }
    /// Mean milliseconds per call of `layer` (0 when it never ran).
    [[nodiscard]] double mean_ms(const std::string& layer) const;
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The options every verification in the benchmark uses, spelled out so an
/// ambient override or a changed library default cannot move the workload:
/// reduction 2, automatic translation mode (lazy for dual/weighted), one
/// witness, no iteration cap, one solver thread.
[[nodiscard]] aw::verify::VerifyOptions pinned_options(aw::verify::EngineKind engine,
                                                       const aw::WeightExpr* weights = nullptr);

/// The synthesized network handed to the system as its two XML documents.
struct Documents {
    std::string topology;
    std::string routing;
    std::size_t rules = 0;
};

/// NORDUnet-like network with `chains` service chains (synthesis seed
/// k_synth_seed), written as XML.
[[nodiscard]] Documents make_documents(std::size_t chains);

/// One reference verdict from expected/*.tsv.
struct ExpectedQuery {
    std::string answer; ///< yes | no
    std::string source; ///< moped, moped+exact, exact, or replay (YES proven by witness replay)
    std::string group;  ///< table1, reach-prov, reach-rand, service, waypoint, transparency, stress
    std::string text;
};

/// Read a verdict table; throws std::runtime_error when it is missing or
/// malformed.
[[nodiscard]] std::vector<ExpectedQuery> load_expected(const std::string& path);

/// Failure budget k of a query text (its trailing number).
[[nodiscard]] std::uint64_t failure_budget(const std::string& query_text);

/// The paper's unspecific stress query `<smpls? ip> .* <. smpls ip> k`.
inline constexpr const char* k_stress_prefix = "<smpls? ip> .* <. smpls ip> ";
[[nodiscard]] inline bool is_stress(const std::string& query_text) {
    return query_text.rfind(k_stress_prefix, 0) == 0;
}

/// Check one answer: the verdict must equal `expected` ("" = no reference,
/// verdict unchecked; an inconclusive answer to a query with a reference is
/// a failure) and a YES must carry a witness that replays through
/// validate::check_result.  Returns "" when the answer holds.
[[nodiscard]] std::string check_answer(const aw::Network& network, const aw::query::Query& query,
                                       const aw::verify::VerifyResult& result,
                                       const std::string& expected,
                                       const aw::WeightExpr* weights = nullptr);

/// Result JSON without its wall-clock field: the byte-identity form that
/// served, incremental and cold answers must agree on.
[[nodiscard]] std::string canonical_json(const aw::Network& network, const std::string& text,
                                         const aw::verify::VerifyResult& result);

/// A library query from text to JSON answer, as production runs it.
struct Answered {
    bool ok = false;
    std::string error;
    aw::query::Query query;
    aw::verify::VerifyResult result;
    std::string json;
    double seconds = 0.0;        ///< parse + verify + encode
    double encode_seconds = 0.0; ///< the result_to_json call alone
};

/// parse_query → verify → result_to_json.  With `trace` set, each call is
/// timed as its own span (in that order), then the layers verify runs
/// internally are probed by separate calls after the answer is complete:
/// compile_query_nfas and a lazy Translation built from those NFAs.  The
/// pda.* figures come from the result's own stats.
[[nodiscard]] Answered answer_query(const aw::Network& network, const std::string& text,
                                    const aw::verify::VerifyOptions& options,
                                    RunResult* trace);

/// Add the pda.* counters and phase times of one result to the trace.
void absorb_stats(const aw::verify::VerifyResult& result, RunResult& trace);

/// Load both documents as read_network_xml does (topology, then routing).
/// With `trace` set the two readers are timed separately and the routing
/// document's XML parse is probed by a separate xml::parse call afterwards.
[[nodiscard]] aw::Network load_network(const Documents& docs, RunResult* trace);

/// Workload entry points.
[[nodiscard]] RunResult run_paper_oneshot(const Args& args);
[[nodiscard]] RunResult run_serve_mixed(const Args& args);
[[nodiscard]] RunResult run_whatif_churn(const Args& args);

/// Regenerate the verdict table of one scale (README.md, "Correctness").
int make_expected(const std::string& scale, const std::string& out);

/// Network sizes.  Both scales use one synthesis seed: the default-scale
/// networks of synthesis seeds 1 to 4 differ by up to 2x in what-if cost,
/// far more than any usable regression bound, so the run seed varies the
/// query battery, the delta sequence and the serve draw instead.
inline constexpr std::size_t k_paper_chains = 26000;
inline constexpr std::size_t k_default_chains = 1000;
inline constexpr std::uint64_t k_synth_seed = 1;
/// expected/<scale>.tsv under the benchmark's directory.
[[nodiscard]] std::string expected_path(const Args& args, const std::string& scale);

} // namespace perfbench
