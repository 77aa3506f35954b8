#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "io/formats.hpp"
#include "io/results_json.hpp"
#include "synthesis/networks.hpp"
#include "validate/witness.hpp"
#include "verify/translation.hpp"
#include "xml/xml.hpp"

namespace perfbench {

void RunResult::fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

double RunResult::mean_ms(const std::string& layer) const {
    const auto it = layers.find(layer);
    if (it == layers.end() || it->second.calls == 0) return 0.0;
    return 1e3 * it->second.seconds / static_cast<double>(it->second.calls);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

aw::verify::VerifyOptions pinned_options(aw::verify::EngineKind engine,
                                         const aw::WeightExpr* weights) {
    aw::verify::VerifyOptions options;
    options.engine = engine;
    options.reduction_level = 2;
    options.weights = weights;
    options.max_iterations = 0;
    options.build_trace = true;
    options.max_witnesses = 1;
    options.translation = aw::verify::TranslationMode::Auto;
    options.solver_threads = 1;
    return options;
}

Documents make_documents(std::size_t chains) {
    const auto net = aw::synthesis::make_nordunet_like(chains, k_synth_seed);
    Documents docs;
    docs.topology = aw::io::write_topology_xml(net.network.topology, net.network.name);
    docs.routing = aw::io::write_routing_xml(net.network);
    docs.rules = net.network.routing.rule_count();
    return docs;
}

std::vector<ExpectedQuery> load_expected(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read reference verdicts '" + path + "'");
    std::vector<ExpectedQuery> table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        ExpectedQuery entry;
        if (!std::getline(fields, entry.answer, '\t') || !std::getline(fields, entry.source, '\t') ||
            !std::getline(fields, entry.group, '\t') || !std::getline(fields, entry.text) ||
            (entry.answer != "yes" && entry.answer != "no"))
            throw std::runtime_error("malformed line in '" + path + "': " + line);
        table.push_back(std::move(entry));
    }
    if (table.empty()) throw std::runtime_error("no reference verdicts in '" + path + "'");
    return table;
}

std::uint64_t failure_budget(const std::string& query_text) {
    const auto end = query_text.find_last_not_of(' ');
    const auto start = query_text.find_last_of(' ', end);
    return std::stoull(query_text.substr(start + 1, end - start));
}

std::string check_answer(const aw::Network& network, const aw::query::Query& query,
                         const aw::verify::VerifyResult& result, const std::string& expected,
                         const aw::WeightExpr* weights) {
    const std::string answer(aw::verify::to_string(result.answer));
    // Every query with a reference is answered conclusively by the library
    // as it stands, so an inconclusive answer there is a lost verdict.
    if (result.answer == aw::verify::Answer::Inconclusive)
        return expected.empty() ? "" : "inconclusive (expected " + expected + "): " + query.text;
    if (!expected.empty() && answer != expected)
        return "wrong verdict " + answer + " (expected " + expected + "): " + query.text;
    if (result.answer == aw::verify::Answer::Yes) {
        if (!result.trace) return "YES without witness: " + query.text;
        const auto report = aw::validate::check_result(network, query, result, weights);
        if (!report.ok()) return "witness fails replay: " + query.text + ": " + report.to_string();
    }
    return "";
}

std::string canonical_json(const aw::Network& network, const std::string& text,
                           const aw::verify::VerifyResult& result) {
    auto value = aw::io::result_to_json_value(network, text, result, false);
    value.as_object().erase("seconds");
    return aw::json::write(value, 0);
}

void absorb_stats(const aw::verify::VerifyResult& result, RunResult& trace) {
    for (const auto* phase : {&result.stats.over, &result.stats.under}) {
        if (!phase->ran) continue;
        trace.layers["pda.saturate"].seconds += phase->saturate_seconds;
        trace.layers["pda.accept"].seconds += phase->accept_seconds;
        trace.layers["pda.witness"].seconds += phase->witness_seconds;
        trace.counts["pda.rules_materialized"] += static_cast<double>(phase->pda_rules_materialized);
        trace.counts["pda.rules_total"] += static_cast<double>(phase->pda_rules_total);
        trace.counts["pda.iterations"] += static_cast<double>(phase->saturation_iterations);
        trace.counts["pda.relaxations"] += static_cast<double>(phase->worklist_relaxations);
    }
    for (const auto* layer : {"pda.saturate", "pda.accept", "pda.witness"}) ++trace.layers[layer].calls;
    trace.counts["pda.results"] += 1;
    if (result.stats.under.ran) trace.counts["verify.under"] += 1;
    if (result.answer == aw::verify::Answer::Inconclusive) trace.counts["verify.inconclusive"] += 1;
}

Answered answer_query(const aw::Network& network, const std::string& text,
                      const aw::verify::VerifyOptions& options, RunResult* trace) {
    Answered out;
    try {
        const auto start = Clock::now();
        out.query = aw::query::parse_query(text, network);
        const auto parsed = Clock::now();
        out.result = aw::verify::verify(network, out.query, options);
        const auto verified = Clock::now();
        out.json = aw::io::result_to_json(network, text, out.result);
        const auto encoded = Clock::now();
        out.seconds = std::chrono::duration<double>(encoded - start).count();
        out.encode_seconds = std::chrono::duration<double>(encoded - verified).count();
        out.ok = true;
        if (trace == nullptr) return out;
        const auto span = [&](const char* layer, Clock::time_point from, Clock::time_point to) {
            trace->span(layer, std::chrono::duration<double>(to - from).count());
        };
        span("query", start, encoded);
        span("query.parse", start, parsed);
        span("verify.engine", parsed, verified);
        span("io.encode", verified, encoded);
        absorb_stats(out.result, *trace);
        // Probes made after the answer, so the production path above keeps
        // its order and caches.  First an immediate repeat encode of the
        // same result: its gap to io.encode is the first-encode cost
        // (README.md, "Findings").  Then the layers verify() runs inside.
        auto probe = Clock::now();
        const auto again = aw::io::result_to_json(network, text, out.result);
        span("io.encode_repeat", probe, Clock::now());
        probe = Clock::now();
        const auto nfas = aw::verify::compile_query_nfas(network, out.query);
        span("nfa.compile", probe, Clock::now());
        aw::verify::TranslationOptions translation;
        translation.approximation = aw::verify::Approximation::Over;
        translation.weights = options.weights;
        translation.nfas = &nfas;
        translation.lazy = true;
        probe = Clock::now();
        const aw::verify::Translation lazy(network, out.query, translation);
        span("verify.translate", probe, Clock::now());
    } catch (const std::exception& error) {
        out.ok = false;
        out.error = text + ": " + error.what();
    }
    return out;
}

aw::Network load_network(const Documents& docs, RunResult* trace) {
    if (trace == nullptr) return aw::io::read_network_xml(docs.topology, docs.routing);
    aw::Network network;
    const auto load = Clock::now();
    network.topology = aw::io::read_topology_xml(docs.topology, &network.name);
    const auto topology = Clock::now();
    network.routing = aw::io::read_routing_xml(docs.routing, network.topology, network.labels);
    const auto routing = Clock::now();
    trace->span("load", std::chrono::duration<double>(routing - load).count());
    trace->span("io.topology", std::chrono::duration<double>(topology - load).count());
    trace->span("io.routing", std::chrono::duration<double>(routing - topology).count());
    trace->counts["io.rules"] += static_cast<double>(network.routing.rule_count());
    const auto start = Clock::now();
    const auto root = aw::xml::parse(docs.routing);
    trace->span("xml.parse", seconds_since(start));
    return network;
}

std::string expected_path(const Args& args, const std::string& scale) {
    return args.data_dir + "/expected/" + scale + ".tsv";
}

} // namespace perfbench
