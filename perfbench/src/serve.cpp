// serve-mixed: the default-scale network loaded into an in-process daemon
// (2 workers, loopback) by POST /networks, then 2 closed-loop clients send
// POST /networks/{id}/query.  Each client draws queries from a seeded Zipf
// distribution over the reference table, which holds four times as many
// distinct queries as the daemon's default result cache, so cache hits and
// misses both run all the time.
// Every served answer is compared byte for byte (minus wall-clock and cache
// flag) with the library's answer for the same query, whose verdict was
// checked against the reference and whose witness was replayed.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <thread>

#include "bench.hpp"
#include "json/json.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

constexpr std::size_t k_clients = 2;
constexpr std::size_t k_workers = 2;
/// The daemon's default result-cache capacity (ServiceConfig), pinned so a
/// changed default does not move the workload; the report echoes both.
constexpr std::size_t k_cache_capacity = 256;
/// Query popularity is an assumption: there is no recorded GUI, CI or
/// aalwines-client trace to fit.  A mild skew over ~1000 distinct queries
/// keeps about a third of the requests on the cache-hit path, so the
/// median request is a miss.
constexpr double k_zipf_exponent = 0.4;
/// Length of one window of the loop.  Between windows the clients stop and
/// one set-up is timed, so the set-ups sample the host over the whole run,
/// as the queries do.
constexpr double k_window_seconds = 1.0;
/// Windows at the start of the loop that warm it up (the result cache
/// fills); they run and are checked but not measured.
constexpr std::size_t k_warmup_windows = 2;
/// Recorded requests replayed through Service::handle in the traced run,
/// after replaying the k_warm_replay before them to fill the cache.
constexpr std::size_t k_replayed = 400;
constexpr std::size_t k_warm_replay = 4 * k_cache_capacity;

struct Reply {
    int status = 0;
    std::string body;
};

/// One HTTP/1.1 exchange on a fresh loopback connection (the daemon serves
/// one request per connection).  status 0 = the connection failed.
Reply http_exchange(std::uint16_t port, const std::string& method, const std::string& target,
                    const std::string& body) {
    Reply reply;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return reply;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    // Abortive close: thousands of short connections must not pile up in
    // TIME_WAIT and exhaust the ephemeral ports.
    const linger abort_on_close{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close, sizeof(abort_on_close));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
        ::close(fd);
        return reply;
    }
    const std::string request = method + " " + target + " HTTP/1.1\r\nHost: perfbench\r\n" +
                                "Content-Type: application/json\r\nContent-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
        const auto n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    std::string raw;
    char buffer[16384];
    for (;;) {
        const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        raw.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const auto header_end = raw.find("\r\n\r\n");
    if (sent < request.size() || raw.size() < 12 || header_end == std::string::npos) return reply;
    reply.status = std::atoi(raw.c_str() + 9);
    reply.body = raw.substr(header_end + 4);
    return reply;
}

std::string query_body(const std::string& text) {
    aw::json::Object body;
    body.emplace("query", text);
    body.emplace("engine", "dual");
    body.emplace("translation", "auto");
    body.emplace("solverThreads", "1");
    return aw::json::write(aw::json::Value(std::move(body)), 0);
}

/// Served answer in the byte-identity form of canonical_json.
std::string canonical_reply(const std::string& body, bool& cached) {
    auto value = aw::json::parse(body);
    auto& object = value.as_object();
    const auto* flag = value.find("cached");
    cached = flag != nullptr && flag->is_bool() && flag->as_bool();
    object.erase("cached");
    object.erase("seconds");
    return aw::json::write(value, 0);
}

struct Sent {
    Clock::time_point start;
    std::size_t query = 0;
    double ms = 0.0;
    bool cached = false;
};

struct ClientLog {
    std::vector<Sent> sent;
    std::vector<std::string> failures;
    std::size_t failed = 0, hits = 0, rejected = 0, inconclusive = 0;
};

/// One window of the closed loop: the requests sent in it, in start order.
struct Window {
    std::vector<Sent> sent;
    double seconds = 0.0;
};

struct LoopResult {
    std::vector<Window> windows;
    std::size_t hits = 0, rejected = 0, inconclusive = 0;
    double seconds = 0.0;

    [[nodiscard]] std::vector<Sent> sent() const {
        std::vector<Sent> all;
        for (const auto& window : windows) all.insert(all.end(), window.sent.begin(), window.sent.end());
        return all;
    }
};

/// The closed loop: `k_clients` threads, each waiting for its reply before
/// drawing the next query, in windows of k_window_seconds until `seconds`
/// have passed.  The clients stop at the end of each window, so
/// `between_windows` (when set) runs on an idle daemon; each client's draw
/// continues across windows as one seeded sequence.
LoopResult client_loop(std::uint16_t port, const std::string& target,
                       const std::vector<std::string>& bodies,
                       const std::vector<std::string>& expected_json,
                       const std::vector<std::size_t>& by_rank, std::uint64_t seed,
                       double seconds, RunResult& run,
                       const std::function<void()>& between_windows = {}) {
    std::vector<double> weights;
    for (std::size_t rank = 0; rank < by_rank.size(); ++rank)
        weights.push_back(1.0 / std::pow(static_cast<double>(rank + 1), k_zipf_exponent));
    std::vector<std::mt19937_64> rngs;
    std::vector<std::discrete_distribution<std::size_t>> draws;
    for (std::size_t c = 0; c < k_clients; ++c) {
        rngs.emplace_back(seed * 1000003 + c);
        draws.emplace_back(weights.begin(), weights.end());
    }
    std::vector<ClientLog> logs(k_clients);
    LoopResult loop;
    const auto window = [&](Clock::time_point deadline) {
        std::vector<std::thread> clients;
        std::vector<std::size_t> first;
        for (const auto& log : logs) first.push_back(log.sent.size());
        const auto start = Clock::now();
        for (std::size_t c = 0; c < k_clients; ++c) {
            clients.emplace_back([&, c] {
                auto& log = logs[c];
                while (Clock::now() < deadline) {
                    const auto query = by_rank[draws[c](rngs[c])];
                    const auto sent_at = Clock::now();
                    const auto reply = http_exchange(port, "POST", target, bodies[query]);
                    const double ms = 1e3 * seconds_since(sent_at);
                    log.sent.push_back({sent_at, query, ms});
                    const auto fail = [&](const std::string& what) {
                        ++log.failed;
                        if (log.failures.size() < 4) log.failures.push_back(what);
                    };
                    if (reply.status < 200 || reply.status > 299) {
                        if (reply.status == 503) ++log.rejected;
                        fail("HTTP " + std::to_string(reply.status) + ": " + reply.body.substr(0, 200));
                        continue;
                    }
                    try {
                        bool cached = false;
                        const auto canonical = canonical_reply(reply.body, cached);
                        log.sent.back().cached = cached;
                        if (cached) ++log.hits;
                        if (canonical.find("\"answer\":\"inconclusive\"") != std::string::npos)
                            ++log.inconclusive;
                        if (canonical != expected_json[query])
                            fail("served answer differs from the library's: " + canonical.substr(0, 200));
                    } catch (const std::exception& error) {
                        fail(std::string("undecodable reply: ") + error.what());
                    }
                }
            });
        }
        for (auto& client : clients) client.join();
        Window done;
        done.seconds = seconds_since(start);
        for (std::size_t c = 0; c < k_clients; ++c)
            done.sent.insert(done.sent.end(), logs[c].sent.begin() + static_cast<std::ptrdiff_t>(first[c]),
                             logs[c].sent.end());
        std::sort(done.sent.begin(), done.sent.end(),
                  [](const Sent& a, const Sent& b) { return a.start < b.start; });
        loop.windows.push_back(std::move(done));
    };
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    const auto window_length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(k_window_seconds));
    for (auto now = start; now < end; now = Clock::now()) {
        window(std::min(end, now + window_length));
        if (between_windows && Clock::now() < end) between_windows();
    }
    loop.seconds = seconds_since(start);
    for (auto& log : logs) {
        loop.hits += log.hits;
        loop.rejected += log.rejected;
        loop.inconclusive += log.inconclusive;
        run.attempted += log.sent.size();
        run.failed += log.failed;
        for (auto& failure : log.failures)
            if (run.failures.size() < 8) run.failures.push_back(std::move(failure));
    }
    return loop;
}

double mean_ms(const std::vector<Sent>& sent) {
    double total = 0.0;
    for (const auto& request : sent) total += request.ms;
    return sent.empty() ? 0.0 : total / static_cast<double>(sent.size());
}

aw::server::ServiceConfig service_config() {
    aw::server::ServiceConfig config;
    config.cache_capacity = k_cache_capacity;
    config.max_jobs = 1;
    return config;
}

} // namespace

RunResult run_serve_mixed(const Args& args) {
    RunResult run;
    const auto table = load_expected(expected_path(args, "default"));
    const auto docs = make_documents(k_default_chains);
    aw::json::Object load;
    load.emplace("topologyXml", docs.topology);
    load.emplace("routingXml", docs.routing);
    const auto load_body = aw::json::write(aw::json::Value(std::move(load)), 0);

    aw::server::Service service(service_config());
    aw::server::ServerConfig server_config;
    server_config.bind_address = "127.0.0.1";
    server_config.port = 0;
    server_config.workers = k_workers;
    server_config.queue_capacity = 64;
    aw::server::Server daemon(service, server_config);
    daemon.start();
    struct StopOnExit {
        aw::server::Server& daemon;
        ~StopOnExit() { daemon.stop(); }
    } stop_on_exit{daemon};

    // Set-up: the documents to a ready workspace through POST /networks.
    // The first one serves the loop; one more runs (and is deleted again)
    // between every two windows of the untraced loop, so the set-ups sample
    // the host over the whole run.
    std::vector<double> setups;
    const auto set_up = [&] {
        const auto start = Clock::now();
        const auto reply = http_exchange(daemon.port(), "POST", "/networks", load_body);
        setups.push_back(seconds_since(start));
        if (reply.status != 201) throw std::runtime_error("POST /networks failed: " + reply.body);
        return aw::json::parse(reply.body).find("id")->as_string();
    };
    const auto id = set_up();
    const std::string target = "/networks/" + id + "/query";

    // The library's answers, checked against the references: the yardstick
    // for every served reply.  In the traced run this pass also times the
    // request layers of one cold query each (parse, NFAs, translation,
    // engine, encode).
    const auto network = load_network(docs, args.trace ? &run : nullptr);
    std::vector<std::string> bodies, expected_json;
    for (const auto& entry : table) {
        const auto answered = answer_query(network, entry.text, pinned_options(aw::verify::EngineKind::Dual),
                                           args.trace ? &run : nullptr);
        ++run.attempted;
        const auto problem = answered.ok ? check_answer(network, answered.query, answered.result,
                                                        entry.answer)
                                         : answered.error;
        if (!problem.empty()) run.fail(problem);
        bodies.push_back(query_body(entry.text));
        expected_json.push_back(answered.ok ? canonical_json(network, entry.text, answered.result)
                                            : "");
    }
    // The popularity order is part of the workload, fixed across seeds; the
    // seed drives the draw sequence.
    std::vector<std::size_t> by_rank(table.size());
    for (std::size_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
    std::shuffle(by_rank.begin(), by_rank.end(), std::mt19937_64(k_synth_seed));

    run.config.emplace_back("network", "nordunet-like chains=1000 synth_seed=" +
                                           std::to_string(k_synth_seed) +
                                           " rules=" + std::to_string(docs.rules));
    run.config.emplace_back("daemon", "workers=" + std::to_string(k_workers) + " cache_capacity=" +
                                          std::to_string(k_cache_capacity) + " (default " +
                                          std::to_string(aw::server::ServiceConfig{}.cache_capacity) +
                                          ") queue_capacity=64");
    run.config.emplace_back("clients", std::to_string(k_clients) + " closed-loop, zipf exponent " +
                                           std::to_string(k_zipf_exponent) + " over " +
                                           std::to_string(table.size()) + " distinct queries");

    if (!args.trace) {
        const auto loop = client_loop(daemon.port(), target, bodies, expected_json, by_rank,
                                      args.seed, args.seconds, run, [&] {
                                          const auto spare = set_up();
                                          (void)http_exchange(daemon.port(), "DELETE",
                                                              "/networks/" + spare, "");
                                      });
        run.metrics["setup_s"] = quantile(setups, 0.5);
        // Medians over the whole run: every request of the measured windows.
        std::vector<double> latencies;
        double seconds = 0.0;
        const auto measured_from = loop.windows.size() > k_warmup_windows ? k_warmup_windows : 0;
        for (std::size_t i = measured_from; i < loop.windows.size(); ++i) {
            for (const auto& sent : loop.windows[i].sent) latencies.push_back(sent.ms);
            seconds += loop.windows[i].seconds;
        }
        run.metrics["query_p50_ms"] = run.metrics["served_p50_ms"] = quantile(latencies, 0.5);
        run.metrics["query_p90_ms"] = quantile(latencies, 0.9);
        run.metrics["served_p99_ms"] = quantile(latencies, 0.99);
        run.metrics["queries_per_s"] = run.metrics["served_qps"] =
            static_cast<double>(latencies.size()) / seconds;
        run.metrics["inconclusive_share"] =
            static_cast<double>(loop.inconclusive) / static_cast<double>(loop.sent().size());
        return run;
    }

    // Traced: an untraced half, then a half whose request sequence is
    // recorded; the recorded tail is then replayed in-process through
    // Service::handle on a fresh service.
    const auto plain = client_loop(daemon.port(), target, bodies, expected_json, by_rank,
                                   args.seed, args.seconds / 2, run);
    // The traced half draws the same sequence against a second workspace
    // of the same network, whose cache starts as empty as the first one's.
    const auto second = http_exchange(daemon.port(), "POST", "/networks", load_body);
    if (second.status != 201) throw std::runtime_error("POST /networks failed: " + second.body);
    const auto second_target =
        "/networks/" + aw::json::parse(second.body).find("id")->as_string() + "/query";
    const auto before = aw::telemetry::snapshot();
    const auto traced = client_loop(daemon.port(), second_target, bodies, expected_json, by_rank,
                                    args.seed, args.seconds / 2, run);
    const auto after = aw::telemetry::snapshot();
    const auto traced_sent = traced.sent();
    run.metrics["telemetry.overhead_share"] = mean_ms(traced_sent) / mean_ms(plain.sent()) - 1.0;
    run.metrics["server.cache_hit_ratio"] =
        static_cast<double>(traced.hits) / static_cast<double>(traced_sent.size());
    run.metrics["server.cache_evictions"] = static_cast<double>(
        after.counter(aw::telemetry::Counter::server_cache_evictions) -
        before.counter(aw::telemetry::Counter::server_cache_evictions));
    run.metrics["server.rejected"] = static_cast<double>(plain.rejected + traced.rejected);
    std::vector<double> latencies;
    for (const auto& sent : traced_sent) latencies.push_back(sent.ms);
    run.metrics["served_p50_ms"] = quantile(latencies, 0.5);
    run.metrics["served_p99_ms"] = quantile(latencies, 0.99);
    run.metrics["served_qps"] = static_cast<double>(latencies.size()) / traced.seconds;
    run.metrics["inconclusive_share"] =
        static_cast<double>(traced.inconclusive) / static_cast<double>(latencies.size());

    aw::server::Service replay(service_config());
    aw::server::http::Request load_request;
    load_request.method = "POST";
    load_request.target = "/networks";
    load_request.body = load_body;
    const auto loaded = replay.handle(load_request);
    if (loaded.status != 201) throw std::runtime_error("in-process load failed: " + loaded.body);
    aw::server::http::Request request;
    request.method = "POST";
    request.target = "/networks/" + aw::json::parse(loaded.body).find("id")->as_string() + "/query";
    // Transport: round trip minus Service::handle, over the requests that
    // were cache hits both on the socket and in the replay, where the two
    // did the same work.
    const auto first = traced_sent.size() > k_replayed ? traced_sent.size() - k_replayed : 0;
    const auto warm_from = first > k_warm_replay ? first - k_warm_replay : 0;
    double transport_ms = 0.0;
    std::size_t both_hits = 0;
    for (std::size_t i = warm_from; i < traced_sent.size(); ++i) {
        request.body = bodies[traced_sent[i].query];
        if (i < first) {
            (void)replay.handle(request);
            continue;
        }
        auto start = Clock::now();
        const auto decoded = aw::json::parse(request.body);
        run.span("json.decode", seconds_since(start));
        start = Clock::now();
        const auto response = replay.handle(request);
        const double handle_seconds = seconds_since(start);
        run.span("server.handle", handle_seconds);
        if (response.status != 200) {
            run.fail("in-process replay: HTTP " + std::to_string(response.status));
            continue;
        }
        bool cached = false;
        (void)canonical_reply(response.body, cached);
        if (cached && traced_sent[i].cached) {
            transport_ms += traced_sent[i].ms - 1e3 * handle_seconds;
            ++both_hits;
        }
    }
    run.metrics["server.transport_ms"] =
        both_hits > 0 ? transport_ms / static_cast<double>(both_hits) : 0.0;
    return run;
}

} // namespace perfbench
