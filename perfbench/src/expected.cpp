// Offline generation of the reference verdict tables in expected/.  The
// reference never comes from the dual engine under test:
//
//   moped        the Moped baseline decided the query within its time cap;
//   +exact       the exact scenario-enumerating engine agreed (run where it
//                is tractable: k <= 1 at default scale, k = 0 at paper scale);
//   exact        Moped ran out of time, the exact engine decided;
//   replay       neither decided in time, and the answer is YES proven by a
//                witness that replays through validate::check_result (a
//                trace the independent simulator executes is a proof of YES).
//
// Queries none of these settle are left out of the table.  Each engine runs
// in a forked child so the time cap can stop it.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <set>

#include "bench.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"

namespace perfbench {

namespace {

using aw::verify::Answer;
using aw::verify::EngineKind;

constexpr std::size_t k_default_battery = 1024;

/// Run one engine on the query in a child process; nullopt when it did not
/// finish within `cap_seconds` or ended inconclusive.
std::optional<Answer> decide(const aw::Network& network, const aw::query::Query& query,
                             EngineKind engine, int cap_seconds) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t child = ::fork();
    if (child < 0) throw std::runtime_error("fork failed");
    if (child == 0) {
        ::close(pipe_fds[0]);
        char verdict = 'i';
        try {
            const auto options = pinned_options(engine);
            const auto result = engine == EngineKind::Moped
                                    ? aw::verify::moped_verify(network, query, options)
                                    : aw::verify::exact_verify(network, query, options);
            verdict = result.answer == Answer::Yes ? 'y' : result.answer == Answer::No ? 'n' : 'i';
        } catch (...) {
        }
        [[maybe_unused]] const auto written = ::write(pipe_fds[1], &verdict, 1);
        ::_exit(0);
    }
    ::close(pipe_fds[1]);
    pollfd wait_for{pipe_fds[0], POLLIN, 0};
    char verdict = 'i';
    if (::poll(&wait_for, 1, cap_seconds * 1000) == 1 && ::read(pipe_fds[0], &verdict, 1) != 1)
        verdict = 'i';
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    ::close(pipe_fds[0]);
    if (verdict == 'y') return Answer::Yes;
    if (verdict == 'n') return Answer::No;
    return std::nullopt;
}

/// Shape of the i-th query of make_query_battery (see synthesis/queries.cpp).
std::string battery_group(std::size_t index, const std::string& text) {
    if (is_stress(text)) return "stress";
    static const char* const shapes[] = {"reach-prov", "reach-rand", "service", "waypoint",
                                         "transparency"};
    return shapes[index % 5];
}

} // namespace

int make_expected(const std::string& scale, const std::string& out) {
    const bool paper = scale == "paper";
    if (!paper && scale != "default") {
        std::cerr << "scale must be paper or default\n";
        return 2;
    }
    const auto net =
        aw::synthesis::make_nordunet_like(paper ? k_paper_chains : k_default_chains, k_synth_seed);
    // Candidate universe: the six Table-1 queries plus a seeded battery.  At
    // paper scale each (shape, k) bucket keeps two candidates and the stress
    // shape appears at every k; at default scale the first
    // k_default_battery distinct battery queries are kept, four times the
    // daemon's default result-cache capacity, so serve-mixed draws from more
    // distinct queries than the cache holds.
    std::vector<std::pair<std::string, std::string>> candidates; // (group, text)
    std::set<std::string> seen;
    for (const auto& text : aw::synthesis::make_table1_queries(net))
        if (seen.insert(text).second) candidates.emplace_back("table1", text);
    aw::synthesis::QueryBatteryOptions battery;
    battery.count = paper ? 200 : 4 * k_default_battery;
    battery.seed = paper ? 11 : 23;
    const auto queries = aw::synthesis::make_query_battery(net, battery);
    std::map<std::string, int> per_bucket;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto group = battery_group(i, queries[i]);
        if (paper && group != "stress" &&
            ++per_bucket[group + std::to_string(failure_budget(queries[i]))] > 2)
            continue;
        if (!paper && kept == k_default_battery) break;
        if (seen.insert(queries[i]).second) {
            candidates.emplace_back(group, queries[i]);
            ++kept;
        }
    }
    for (const char* k : {"1", "2"}) {
        const std::string stress = std::string(k_stress_prefix) + k;
        if (seen.insert(stress).second) candidates.emplace_back("stress", stress);
    }

    std::ofstream file(out);
    if (!file) {
        std::cerr << "cannot write '" << out << "'\n";
        return 1;
    }
    file << "# Reference verdicts for perfbench: answer<TAB>source<TAB>group<TAB>query\n"
         << "# network: make_nordunet_like(" << (paper ? k_paper_chains : k_default_chains)
         << ", " << k_synth_seed << "); regenerate with run.py --make-expected " << scale
         << "\n";
    const int cap_seconds = paper ? 60 : 30;
    for (const auto& [group, text] : candidates) {
        const auto query = aw::query::parse_query(text, net.network);
        const auto k = failure_budget(text);
        const auto moped = decide(net.network, query, EngineKind::Moped, cap_seconds);
        std::optional<Answer> exact;
        if (k <= (paper ? 0u : 1u)) exact = decide(net.network, query, EngineKind::Exact, cap_seconds);
        std::string source;
        std::optional<Answer> answer;
        if (moped && exact && *moped != *exact) {
            std::cerr << "moped and exact disagree, dropped: " << text << "\n";
            continue;
        }
        if (moped) {
            answer = moped;
            source = exact ? "moped+exact" : "moped";
        } else if (exact) {
            answer = exact;
            source = "exact";
        } else {
            const auto result =
                aw::verify::verify(net.network, query, pinned_options(EngineKind::Dual));
            if (result.answer == Answer::Yes &&
                check_answer(net.network, query, result, "yes").empty()) {
                answer = Answer::Yes;
                source = "replay";
            }
        }
        if (!answer) {
            std::cerr << "undecided, dropped: " << text << "\n";
            continue;
        }
        file << aw::verify::to_string(*answer) << '\t' << source << '\t' << group << '\t' << text
             << '\n';
        file.flush();
        std::cerr << aw::verify::to_string(*answer) << ' ' << source << ' ' << text << "\n";
    }
    return 0;
}

} // namespace perfbench
