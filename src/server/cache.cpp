#include "server/cache.hpp"

#include <chrono>

#include "telemetry/telemetry.hpp"

namespace aalwines::server {

std::string cache_key(std::uint64_t sequence, std::uint64_t generation,
                      const std::string& query_text,
                      const std::string& engine, const std::string& weight,
                      std::size_t witnesses, std::size_t max_iterations, bool trace) {
    // '\x1f' (ASCII unit separator) cannot appear in query or weight text.
    std::string key = cache_scope(sequence);
    key += std::to_string(generation);
    key += '\x1f';
    key += engine;
    key += '\x1f';
    key += weight;
    key += '\x1f';
    key += std::to_string(witnesses);
    key += '\x1f';
    key += std::to_string(max_iterations);
    key += '\x1f';
    key += trace ? '1' : '0';
    key += '\x1f';
    key += query_text;
    return key;
}

std::string cache_scope(std::uint64_t sequence) {
    return std::to_string(sequence) + '\x1f';
}

std::shared_ptr<const verify::VerifyResult> ResultCache::find(const std::string& key) {
    if (_capacity == 0) return nullptr;
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const verify::VerifyResult> result;
    {
        const util::MutexLock lock(_mutex);
        const auto it = _index.find(key);
        if (it != _index.end()) {
            _order.splice(_order.begin(), _order, it->second);
            result = it->second->result;
        }
    }
    telemetry::count(result != nullptr ? telemetry::Counter::server_cache_hits
                                       : telemetry::Counter::server_cache_misses);
    telemetry::observe_duration(
        telemetry::Histogram::cache_lookup,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    return result;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const verify::VerifyResult> result) {
    if (_capacity == 0) return;
    const util::MutexLock lock(_mutex);
    if (const auto it = _index.find(key); it != _index.end()) {
        it->second->result = std::move(result);
        _order.splice(_order.begin(), _order, it->second);
        return;
    }
    _order.push_front({key, std::move(result)});
    _index.emplace(key, _order.begin());
    evict_locked();
}

std::size_t ResultCache::invalidate(const std::string& prefix) {
    if (_capacity == 0) return 0;
    std::size_t dropped = 0;
    {
        const util::MutexLock lock(_mutex);
        for (auto it = _order.begin(); it != _order.end();) {
            if (it->key.compare(0, prefix.size(), prefix) != 0) {
                ++it;
                continue;
            }
            _index.erase(it->key);
            it = _order.erase(it);
            ++dropped;
        }
    }
    if (dropped > 0) telemetry::count(telemetry::Counter::server_cache_evictions, dropped);
    return dropped;
}

void ResultCache::evict_locked() {
    std::size_t dropped = 0;
    while (_order.size() > _capacity) {
        _index.erase(_order.back().key);
        _order.pop_back();
        ++dropped;
    }
    if (dropped > 0)
        telemetry::count(telemetry::Counter::server_cache_evictions, dropped);
    // Under the mutex: the size is settled, so concurrent inserts cannot
    // publish a high-water mark the cache never actually reached.
    telemetry::gauge_max(telemetry::Gauge::cache_entries_high_water, _order.size());
}

std::size_t ResultCache::size() const {
    const util::MutexLock lock(_mutex);
    return _order.size();
}

} // namespace aalwines::server
