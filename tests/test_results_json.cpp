#include <gtest/gtest.h>

#include <algorithm>

#include "io/html_report.hpp"
#include "io/results_json.hpp"
#include "synthesis/dataplane.hpp"

namespace aalwines::io {
namespace {

class ResultsJson : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    verify::VerifyResult run(const std::string& text, verify::VerifyOptions options = {}) {
        return verify::verify(net, query::parse_query(text, net), options);
    }
};

TEST_F(ResultsJson, YesResultCarriesTraceWithOps) {
    const std::string text = "<ip> [.#v0] .* [v3#.] <ip> 0";
    const auto result = run(text);
    const auto value = json::parse(result_to_json(net, text, result));
    EXPECT_EQ(value.at("answer").as_string(), "yes");
    EXPECT_EQ(value.at("query").as_string(), text);
    EXPECT_GE(value.at("seconds").as_double(), 0.0);
    const auto& trace = value.at("trace").as_array();
    ASSERT_EQ(trace.size(), 4u);
    // Every non-final step reports the operations the router applied.
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        const auto& ops = trace[i].at("ops").as_string();
        EXPECT_NE(ops, "?") << i;
    }
    EXPECT_EQ(trace.back().find("ops"), nullptr);
    // First hop of σ0/σ1 pushes a bottom-of-stack label.
    EXPECT_NE(trace[0].at("ops").as_string().find("push"), std::string::npos);
}

TEST_F(ResultsJson, NoResultHasNoTrace) {
    const std::string text = "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1";
    const auto result = run(text);
    const auto value = json::parse(result_to_json(net, text, result));
    EXPECT_EQ(value.at("answer").as_string(), "no");
    EXPECT_EQ(value.find("trace"), nullptr);
    EXPECT_EQ(value.find("weight"), nullptr);
}

TEST_F(ResultsJson, WeightedResultCarriesWeightVector) {
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    verify::VerifyOptions options;
    options.engine = verify::EngineKind::Weighted;
    options.weights = &weights;
    const std::string text = "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1";
    const auto result = run(text, options);
    const auto value = json::parse(result_to_json(net, text, result));
    const auto& weight = value.at("weight").as_array();
    ASSERT_EQ(weight.size(), 2u);
    EXPECT_EQ(weight[0].as_int(), 5);
    EXPECT_EQ(weight[1].as_int(), 0);
}

TEST_F(ResultsJson, StatsOnRequest) {
    const std::string text = "<ip> [.#v0] .* [v3#.] <ip> 0";
    const auto result = run(text);
    const auto with = json::parse(result_to_json(net, text, result, true));
    EXPECT_NE(with.find("stats"), nullptr);
    EXPECT_GT(with.at("stats").at("over").at("pdaRulesTotal").as_int(), 0);
    EXPECT_FALSE(with.at("stats").at("usedUnderApproximation").as_bool());
    const auto without = json::parse(result_to_json(net, text, result, false));
    EXPECT_EQ(without.find("stats"), nullptr);
}


TEST_F(ResultsJson, HtmlReportRendersTopologyAndWitnesses) {
    verify::VerifyOptions options;
    options.max_witnesses = 4;
    std::vector<ReportEntry> entries;
    entries.push_back({"<ip> [.#v0] .* [v3#.] <ip> 0",
                       run("<ip> [.#v0] .* [v3#.] <ip> 0", options)});
    entries.push_back({"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
                       run("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1")});
    const auto html = write_html_report(net, entries);
    // Self-contained document with one SVG per query.
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_EQ(std::count(html.begin(), html.end(), '\0'), 0);
    auto count = [&](const std::string& needle) {
        std::size_t n = 0;
        for (auto pos = html.find(needle); pos != std::string::npos;
             pos = html.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("<svg"), 2u);
    EXPECT_EQ(count("</svg>"), 2u);
    // Both witnesses of φ0 are tabulated; the NO query has no table.
    EXPECT_EQ(count("<table>"), 2u);
    EXPECT_NE(html.find("answer yes"), std::string::npos);
    EXPECT_NE(html.find("answer no"), std::string::npos);
    // Query text is escaped (the <ip> atoms must not become tags).
    EXPECT_NE(html.find("&lt;ip&gt;"), std::string::npos);
    // All seven routers are labelled.
    for (const auto* name : {"v0", "v1", "v2", "v3", "v4", "src", "dst"})
        EXPECT_NE(html.find(">" + std::string(name) + "<"), std::string::npos) << name;
}

TEST_F(ResultsJson, HtmlReportWithoutCoordinatesUsesCircularLayout) {
    // figure1 has no coordinates: the layout must still place everything
    // inside the viewbox (no NaNs).
    const auto html = write_html_report(
        net, {{"<ip> .* <ip> 0", run("<ip> .* <ip> 0")}});
    EXPECT_EQ(html.find("nan"), std::string::npos);
    EXPECT_EQ(html.find("inf"), std::string::npos);
}

} // namespace
} // namespace aalwines::io
