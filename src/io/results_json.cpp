#include "io/results_json.hpp"

namespace aalwines::io {

namespace {

/// The operation sequence the router applied between two consecutive trace
/// entries (lowest-priority-group match, as in the feasibility check).
std::string ops_between(const Network& network, const TraceEntry& current,
                        const TraceEntry& next) {
    const auto* groups = network.routing.entry(current.link, current.header.back());
    if (groups == nullptr) return "?";
    for (const auto& group : *groups) {
        for (const auto& rule : group) {
            if (rule.out_link != next.link) continue;
            const auto rewritten = apply_ops(network.labels, current.header, rule.ops);
            if (rewritten && *rewritten == next.header)
                return describe_ops(network.labels, rule.ops);
        }
    }
    return "?";
}

json::Value phase_to_json(const verify::PhaseStats& phase) {
    json::Object object;
    object.emplace("pdaRules", phase.pda_rules);
    object.emplace("pdaStates", phase.pda_states);
    if (phase.pda_rules_expanded != 0) {
        object.emplace("pdaRulesExpanded", phase.pda_rules_expanded);
        object.emplace("pdaStatesExpanded", phase.pda_states_expanded);
    }
    object.emplace("pdaRulesTotal", phase.pda_rules_total);
    object.emplace("pdaRulesMaterialized", phase.pda_rules_materialized);
    object.emplace("pdaStatesMaterialized", phase.pda_states_materialized);
    object.emplace("saturationIterations", phase.saturation_iterations);
    object.emplace("automatonTransitions", phase.automaton_transitions);
    object.emplace("worklistRelaxations", phase.worklist_relaxations);
    object.emplace("peakWorklist", phase.peak_worklist);
    object.emplace("seconds", phase.seconds);
    // Wall-clock split of `seconds` by pipeline stage (dual/weighted
    // engines; zeros for moped/exact, which run their own pipelines).
    object.emplace("translateSeconds", phase.translate_seconds);
    object.emplace("saturateSeconds", phase.saturate_seconds);
    object.emplace("acceptSeconds", phase.accept_seconds);
    object.emplace("witnessSeconds", phase.witness_seconds);
    if (phase.truncated) object.emplace("truncated", true);
    return json::Value(std::move(object));
}

json::Value trace_to_json(const Network& network, const Trace& trace) {
    json::Array entries;
    for (std::size_t i = 0; i < trace.entries.size(); ++i) {
        const auto& entry = trace.entries[i];
        json::Object step;
        step.emplace("link", network.topology.describe_link(entry.link));
        step.emplace("header", display_header(network.labels, entry.header));
        if (i + 1 < trace.entries.size())
            step.emplace("ops", ops_between(network, entry, trace.entries[i + 1]));
        entries.push_back(json::Value(std::move(step)));
    }
    return json::Value(std::move(entries));
}

} // namespace

json::Value result_to_json_value(const Network& network, const std::string& query_text,
                                 const verify::VerifyResult& result,
                                 bool include_stats) {
    json::Object object;
    object.emplace("query", query_text);
    object.emplace("answer", std::string(to_string(result.answer)));
    object.emplace("seconds", result.stats.total_seconds);
    if (!result.weight.empty()) {
        json::Array weight;
        for (const auto w : result.weight) weight.push_back(json::Value(w));
        object.emplace("weight", json::Value(std::move(weight)));
    }
    if (result.trace) object.emplace("trace", trace_to_json(network, *result.trace));
    if (result.witnesses.size() > 1) {
        json::Array witnesses;
        for (const auto& trace : result.witnesses)
            witnesses.push_back(trace_to_json(network, trace));
        object.emplace("witnesses", json::Value(std::move(witnesses)));
    }
    if (!result.note.empty()) object.emplace("note", result.note);
    if (include_stats) {
        json::Object stats;
        // Legacy flat keys (over-approximation phase), kept for consumers of
        // earlier releases; the nested phase objects carry the full picture.
        stats.emplace("pdaRules", result.stats.over.pda_rules);
        stats.emplace("saturationIterations", result.stats.over.saturation_iterations);
        stats.emplace("automatonTransitions", result.stats.over.automaton_transitions);
        stats.emplace("usedUnderApproximation", result.stats.under.ran);
        if (result.stats.over.ran) stats.emplace("over", phase_to_json(result.stats.over));
        if (result.stats.under.ran)
            stats.emplace("under", phase_to_json(result.stats.under));
        stats.emplace("totalSeconds", result.stats.total_seconds);
        object.emplace("stats", json::Value(std::move(stats)));
    }
    return json::Value(std::move(object));
}

std::string result_to_json(const Network& network, const std::string& query_text,
                           const verify::VerifyResult& result, bool include_stats,
                           int indent) {
    return json::write(result_to_json_value(network, query_text, result, include_stats),
                       indent);
}

json::Value sweep_to_json_value(const Network& network, const verify::SweepSpec& spec,
                                const verify::SweepResult& sweep, bool include_stats) {
    json::Object object;
    object.emplace("template", spec.query_template);

    json::Array pairs;
    for (const auto& [src, dst] : spec.endpoint_pairs) {
        json::Array pair;
        pair.emplace_back(src);
        pair.emplace_back(dst);
        pairs.push_back(json::Value(std::move(pair)));
    }
    object.emplace("pairs", json::Value(std::move(pairs)));

    json::Array budgets;
    for (const auto k : spec.failure_budgets) budgets.push_back(json::Value(k));
    object.emplace("budgets", json::Value(std::move(budgets)));

    json::Array scenarios;
    for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
        const auto& scenario = spec.scenarios[s];
        scenarios.emplace_back(scenario.name.empty() ? "s" + std::to_string(s)
                                                     : scenario.name);
    }
    object.emplace("scenarios", json::Value(std::move(scenarios)));

    json::Array cells;
    for (const auto& cell : sweep.cells) {
        json::Object entry;
        entry.emplace("pair", cell.pair);
        entry.emplace("budget", cell.budget);
        if (cell.budget < spec.failure_budgets.size())
            entry.emplace("k", spec.failure_budgets[cell.budget]);
        entry.emplace("scenario", cell.scenario);
        if (!cell.error.empty()) {
            entry.emplace("query", cell.query_text);
            entry.emplace("error", cell.error);
            cells.push_back(json::Value(std::move(entry)));
            continue;
        }
        entry.emplace("answer", std::string(to_string(cell.result.answer)));
        entry.emplace("path", std::string(to_string(cell.path)));
        entry.emplace("seconds", cell.seconds);
        if (!cell.result.weight.empty()) {
            json::Array weight;
            for (const auto w : cell.result.weight) weight.push_back(json::Value(w));
            entry.emplace("weight", json::Value(std::move(weight)));
        }
        if (!cell.result.note.empty()) entry.emplace("note", cell.result.note);
        if (include_stats) {
            // The full per-query shape (trace and phase stats included),
            // keyed under "detail" so the compact fields stay flat.
            entry.emplace("detail", result_to_json_value(network, cell.query_text,
                                                         cell.result, true));
        }
        cells.push_back(json::Value(std::move(entry)));
    }
    object.emplace("cells", json::Value(std::move(cells)));

    json::Object stats;
    stats.emplace("cells", sweep.stats.cells);
    stats.emplace("coldSaturations", sweep.stats.cold_saturations);
    stats.emplace("reusedFrontiers", sweep.stats.reused_frontiers);
    stats.emplace("sharedSaturations", sweep.stats.shared_saturations);
    stats.emplace("nfaCompiles", sweep.stats.nfa_compiles);
    stats.emplace("errors", sweep.stats.errors);
    stats.emplace("seconds", sweep.stats.seconds);
    object.emplace("stats", json::Value(std::move(stats)));
    return json::Value(std::move(object));
}

} // namespace aalwines::io
