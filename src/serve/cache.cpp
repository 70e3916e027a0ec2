#include "serve/cache.hpp"

#include <stdexcept>
#include <utility>

#include "common/error.hpp"

namespace p8::serve {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string cache_key(const std::string& machine_json,
                      const std::string& query_json) {
  return machine_json + '\n' + query_json;
}

/// Each live copy, by content.  A copy's deleter erases its own slot,
/// so the table holds exactly the copies some handle still owns.
struct ResultCache::Interned {
  std::mutex mutex;
  std::unordered_map<std::string_view, std::weak_ptr<const std::string>>
      copies;
};

std::size_t ResultCache::KeyHash::operator()(const KeyView& k) const {
  // Interning makes the copy's address unique per content, so it
  // stands in for the machine bytes.
  const std::size_t h = std::hash<std::string_view>{}(k.query);
  return h ^ (reinterpret_cast<std::uintptr_t>(k.machine) +
              0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity), interned_(std::make_shared<Interned>()) {
  P8_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
}

ResultCache::Machine ResultCache::intern(const std::string& machine_json) {
  std::lock_guard<std::mutex> lock(interned_->mutex);
  auto& copies = interned_->copies;
  const auto it = copies.find(machine_json);
  if (it != copies.end()) {
    if (Machine live = it->second.lock()) return live;
    // The last handle is being dropped and its deleter waits on this
    // lock; it will find the new copy in the slot and leave it be.
    copies.erase(it);
  }
  Machine copy(new std::string(machine_json),
               [interned = interned_](const std::string* s) {
                 {
                   std::lock_guard<std::mutex> lock(interned->mutex);
                   const auto slot = interned->copies.find(*s);
                   if (slot != interned->copies.end() &&
                       slot->first.data() == s->data())
                     interned->copies.erase(slot);
                 }
                 delete s;
               });
  copies.emplace(std::string_view(*copy), copy);
  return copy;
}

ResultCache::Outcome ResultCache::get_or_compute(
    const std::string& machine_json, const std::string& query_json,
    const std::function<double()>& compute) {
  return get_or_compute(intern(machine_json), query_json, compute);
}

ResultCache::Outcome ResultCache::get_or_compute(
    const Machine& machine, const std::string& query_json,
    const std::function<double()>& compute) {
  const KeyView key{machine.get(), query_json};
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = index_.find(key);
    if (it == index_.end()) break;
    LruList::iterator entry = it->second;
    if (entry->ready) {
      // Completed entry: touch it to the MRU position and return.
      lru_.splice(lru_.begin(), lru_, entry);
      ++stats_.hits;
      return Outcome{entry->value, true};
    }
    // In flight: wait for the computing thread.  It either completes
    // the entry (we hit) or removes it on failure (we rethrow — the
    // wait *observed* the failure, it did not consume a cached value,
    // so it counts as neither hit nor miss; a later retry recomputes).
    ready_cv_.wait(lock, [&] {
      auto now = index_.find(key);
      return now == index_.end() || now->second->ready;
    });
    auto now = index_.find(key);
    if (now == index_.end())
      throw std::runtime_error("serve cache: concurrent computation failed");
    lru_.splice(lru_.begin(), lru_, now->second);
    ++stats_.hits;
    return Outcome{now->second->value, true};
  }

  // Miss: install the in-flight placeholder and compute unlocked.  The
  // index keys it by a view of its own query bytes; list nodes never
  // move, and only this thread removes an in-flight entry.
  ++stats_.misses;
  lru_.push_front(Entry{machine, query_json, 0.0, false});
  const LruList::iterator mine = lru_.begin();
  index_.emplace(key_of(*mine), mine);
  lock.unlock();

  double value = 0.0;
  try {
    value = compute();
  } catch (...) {
    lock.lock();
    index_.erase(key_of(*mine));
    lru_.erase(mine);
    ready_cv_.notify_all();
    throw;
  }

  lock.lock();
  mine->value = value + debug_value_skew_;
  mine->ready = true;
  lru_.splice(lru_.begin(), lru_, mine);
  evict_excess_locked();
  ready_cv_.notify_all();
  return Outcome{value, false};
}

void ResultCache::evict_excess_locked() {
  std::size_t resident = lru_.size();
  auto it = lru_.end();
  while (resident > capacity_ && it != lru_.begin()) {
    --it;
    if (!it->ready) continue;  // never evict an in-flight entry
    index_.erase(key_of(*it));
    it = lru_.erase(it);
    --resident;
    ++stats_.evictions;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t ResultCache::machines() const {
  std::lock_guard<std::mutex> lock(interned_->mutex);
  return interned_->copies.size();
}

std::vector<std::string> ResultCache::keys_mru_order() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& e : lru_) keys.push_back(cache_key(*e.machine, e.query));
  return keys;
}

void ResultCache::set_debug_value_skew(double skew) {
  std::lock_guard<std::mutex> lock(mutex_);
  debug_value_skew_ = skew;
}

}  // namespace p8::serve
