#pragma once
// Content stamps and the per-snapshot memo of derived data.
//
// A network snapshot is a plain value (topology, labels, routing table),
// but some data derived from it is too costly to recompute per query — the
// verification layer's translation index walks every forwarding rule.  The
// memo keeps one such value on the Network it was derived from, keyed by
// the content stamps of the parts it reads, so a network mutated after the
// value was built never serves it stale.

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/mutex.hpp"

namespace aalwines {

/// Identity of a model value's content.  Every mutation draws a fresh stamp
/// from one process-wide counter, so two values share a stamp only when one
/// was copied from the other with no mutation since — i.e. when their
/// contents are equal.  The default stamp 0 belongs to the empty value.  A
/// moved-from value (emptied) is restamped, never left with its old stamp.
class ContentStamp {
public:
    ContentStamp() = default;
    ContentStamp(const ContentStamp&) = default;
    ContentStamp& operator=(const ContentStamp&) = default;
    ContentStamp(ContentStamp&& other) noexcept : _value(other._value) { other.bump(); }
    ContentStamp& operator=(ContentStamp&& other) noexcept {
        _value = other._value;
        if (&other != this) other.bump();
        return *this;
    }
    ~ContentStamp() = default;

    /// Record a mutation.
    void bump() noexcept {
        static std::atomic<std::uint64_t> counter{0};
        _value = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return _value; }

private:
    std::uint64_t _value = 0;
};

/// One memoized value derived from a network snapshot.  Type-erased so the
/// model layer does not depend on its consumers; the consumer names the
/// type on every access.  Copies carry the value and its key along (a copy
/// has equal content until it is mutated, which restamps it), each copy
/// with a lock of its own.
class SnapshotMemo {
public:
    /// The content stamps a memoized value was derived from.
    struct Key {
        std::uint64_t routing = 0;
        std::uint64_t topology = 0;
        bool operator==(const Key&) const = default;
    };

    SnapshotMemo() = default;
    SnapshotMemo(const SnapshotMemo& other) { assign(other); }
    SnapshotMemo& operator=(const SnapshotMemo& other) {
        if (&other != this) assign(other);
        return *this;
    }
    ~SnapshotMemo() = default;

    /// The value stored under `key`, or nullptr (none yet, or stale).
    template <typename T>
    [[nodiscard]] std::shared_ptr<const T> find(const Key& key) const {
        const util::MutexLock lock(_mutex);
        if (_value == nullptr || !(_key == key)) return nullptr;
        return std::static_pointer_cast<const T>(_value);
    }

    /// The value stored under `key`, else `build()`'s result, stored under
    /// `key`.  The build runs under the memo's lock: concurrent first
    /// callers wait for one build instead of racing several.
    template <typename T, typename Build>
    [[nodiscard]] std::shared_ptr<const T> get_or_build(const Key& key, Build&& build) const {
        const util::MutexLock lock(_mutex);
        if (_value == nullptr || !(_key == key)) {
            std::shared_ptr<const T> built = build();
            _value = built;
            _key = key;
            return built;
        }
        return std::static_pointer_cast<const T>(_value);
    }

    /// Store `value` under `key`, replacing what was there.
    template <typename T>
    void store(const Key& key, std::shared_ptr<const T> value) const {
        const util::MutexLock lock(_mutex);
        _value = std::move(value);
        _key = key;
    }

private:
    void assign(const SnapshotMemo& other) {
        std::shared_ptr<const void> value;
        Key key;
        {
            const util::MutexLock lock(other._mutex);
            value = other._value;
            key = other._key;
        }
        const util::MutexLock lock(_mutex);
        _value = std::move(value);
        _key = key;
    }

    mutable util::Mutex _mutex;
    mutable Key _key GUARDED_BY(_mutex);
    mutable std::shared_ptr<const void> _value GUARDED_BY(_mutex);
};

} // namespace aalwines
