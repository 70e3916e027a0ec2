// Content-addressed result cache for simulation-required queries.
//
// The key is the canonical bytes of what the answer depends on — the
// machine's round-trip MachineSpec JSON plus the query's canonical
// JSON (protocol.hpp) — so two requests that mean the same sweep
// point always address the same entry, however they were spelled on
// the wire.
//
// Machine JSON is interned by content: intern() hands out one shared
// copy per distinct byte string, released when the last entry or
// caller handle holding it goes.  Equal bytes give the same copy, so
// an entry is keyed by (interned machine, query bytes) and the index
// hashes and compares only the query bytes plus the machine copy's
// address — a lookup never touches the ~1.4 KB spec, and each entry
// stores its query bytes once, viewed (not copied) by the index.
//
// Concurrency contract (what makes `serve.cache_hits` a deterministic
// function of the query stream): lookups are *single-flight*.  The
// first thread to miss installs an in-flight entry and computes
// outside the cache lock; concurrent threads asking for the same key
// block on the entry and count as hits — they did not simulate.  So
// for any stream with D duplicate simulation-required queries, hits
// == D no matter how the stream is sharded across client threads.
//
// Eviction is strict LRU over *completed* entries, bounded by
// `capacity`; in-flight entries are never evicted (a waiter holds a
// reference).  tests/serve_test.cpp pins the eviction order contract
// at capacities 1, 2 and a non-divisor of the key population.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <condition_variable>

namespace p8::serve {

/// 64-bit FNV-1a over `bytes` (offset basis 14695981039346656037,
/// prime 1099511628211).
std::uint64_t fnv1a64(const std::string& bytes);

/// The canonical cache-key bytes: machine JSON + '\n' + query JSON.
std::string cache_key(const std::string& machine_json,
                      const std::string& query_json);

class ResultCache {
 public:
  /// An interned machine JSON: every handle to equal bytes points at
  /// the same copy.
  using Machine = std::shared_ptr<const std::string>;

  /// `capacity` >= 1: the maximum number of completed entries.
  explicit ResultCache(std::size_t capacity);

  struct Outcome {
    double value = 0.0;
    /// True when this call was served from the cache (including
    /// single-flight waits on a concurrent computation); false when
    /// this call ran `compute` itself.
    bool cached = false;
  };

  /// The shared copy of `machine_json`, made on first sight.
  Machine intern(const std::string& machine_json);

  /// Returns the cached value for (machine, query_json), or runs
  /// `compute`, memoizes its result and returns it.  `machine` must
  /// come from this cache's intern().  `compute` runs outside the
  /// cache lock; concurrent callers with the same key block until it
  /// finishes and then read the memoized value.  If `compute` throws,
  /// the in-flight entry is removed (waiters see the failure rethrown
  /// as std::runtime_error) and the next caller retries.
  Outcome get_or_compute(const Machine& machine, const std::string& query_json,
                         const std::function<double()>& compute);

  /// intern(machine_json), then the handle lookup above.
  Outcome get_or_compute(const std::string& machine_json,
                         const std::string& query_json,
                         const std::function<double()>& compute);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Distinct machine JSONs interned and still held by an entry or a
  /// caller's handle.
  std::size_t machines() const;

  /// The resident keys, most-recently-used first — the LRU contract
  /// the black-box tests pin.  Keys are full cache_key() byte strings.
  std::vector<std::string> keys_mru_order() const;

  /// Fault-injection seam for the --perturb gate twin: every value is
  /// *stored* as computed + skew, while the computing caller returns
  /// the true value — so with a non-zero skew, a cache hit is no
  /// longer byte-identical to a fresh run and the serving gate's
  /// identity check must fail.  0 (the default) is a no-op.
  void set_debug_value_skew(double skew);

 private:
  /// The intern table, shared with every handle's deleter so a handle
  /// may outlive the cache.
  struct Interned;

  struct Entry {
    Machine machine;
    std::string query;
    double value = 0.0;
    bool ready = false;
  };
  using LruList = std::list<Entry>;

  /// An index key: the machine copy's address and a view of query
  /// bytes (an entry's own, or the caller's for a lookup).
  struct KeyView {
    const std::string* machine;
    std::string_view query;
    bool operator==(const KeyView& o) const {
      return machine == o.machine && query == o.query;
    }
  };
  struct KeyHash {
    std::size_t operator()(const KeyView& k) const;
  };
  static KeyView key_of(const Entry& e) { return {e.machine.get(), e.query}; }

  void evict_excess_locked();

  const std::size_t capacity_;
  const std::shared_ptr<Interned> interned_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  /// Front = most recently used.  In-flight entries live in the list
  /// too (at the front) but are skipped by eviction.
  LruList lru_;
  std::unordered_map<KeyView, LruList::iterator, KeyHash> index_;
  Stats stats_;
  double debug_value_skew_ = 0.0;
};

}  // namespace p8::serve
