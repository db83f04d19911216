#include "netsim/spf_cache.hpp"

#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"

namespace ibgp::netsim {

SpfCache::SpfCache(const PhysicalGraph& base) : base_(base) {}

std::shared_ptr<const ShortestPaths> SpfCache::get(std::span<const Cost> effective) {
  if (effective.size() != base_.link_count()) {
    throw std::invalid_argument("SpfCache: effective cost vector size mismatch");
  }
  std::vector<Cost> key(effective.begin(), effective.end());

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.hits;
    it->second.last_use = ++use_tick_;
    if (hits_ != nullptr) hits_->increment();
    return it->second.spf;
  }
  ++stats_.misses;
  ++stats_.inserts;
  if (misses_ != nullptr) misses_->increment();
  if (inserts_ != nullptr) inserts_->increment();

  // Derive the epoch from whichever of the pinned base and the most
  // recently used epoch differs from the key in fewer links: only the
  // roots a changed link touches re-run Dijkstra (see ShortestPaths).  The
  // very first key has no parent and is built from scratch.  The span
  // times the whole derivation (null sink when no registry is attached).
  std::shared_ptr<const ShortestPaths> spf;
  {
    const obs::Span recompute_span(recompute_ns_);
    const auto differing = [&key](const std::vector<Cost>& other) {
      return std::transform_reduce(key.begin(), key.end(), other.begin(), std::size_t{0},
                                   std::plus<>{}, std::not_equal_to<>{});
    };
    auto parent = cache_.end();  // the pinned base, then possibly the MRU
    auto mru = cache_.end();
    for (auto entry = cache_.begin(); entry != cache_.end(); ++entry) {
      if (entry->second.pinned) parent = entry;
      if (mru == cache_.end() || entry->second.last_use > mru->second.last_use) mru = entry;
    }
    if (parent == cache_.end()) {
      spf = std::make_shared<const ShortestPaths>(base_, key);
    } else {
      if (differing(mru->first) < differing(parent->first)) parent = mru;
      spf = std::make_shared<const ShortestPaths>(base_, key, parent->second.spf.get(),
                                                  parent->first);
    }
  }
  if (capacity_ != 0 && cache_.size() >= capacity_) evict_lru_locked();
  Entry entry;
  entry.spf = spf;
  entry.last_use = ++use_tick_;
  entry.pinned = cache_.empty();  // first key ever inserted = base epoch
  cache_.emplace(std::move(key), std::move(entry));
  return spf;
}

void SpfCache::evict_lru_locked() {
  auto victim = cache_.end();
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->second.pinned) continue;
    if (victim == cache_.end() || it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == cache_.end()) return;  // only the pinned base left
  cache_.erase(victim);
  ++stats_.evictions;
  if (evictions_ != nullptr) evictions_->increment();
}

std::size_t SpfCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void SpfCache::set_capacity(std::size_t max_epochs) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = max_epochs;
  if (capacity_ == 0) return;
  while (cache_.size() > capacity_) {
    const std::size_t before = cache_.size();
    evict_lru_locked();
    if (cache_.size() == before) break;  // nothing evictable remains
  }
}

SpfCacheStats SpfCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SpfCache::attach_metrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry == nullptr) {
    hits_ = misses_ = inserts_ = evictions_ = nullptr;
    recompute_ns_ = nullptr;
    return;
  }
  hits_ = &registry->counter("spf.hits", obs::MetricClass::kVolatile);
  misses_ = &registry->counter("spf.misses", obs::MetricClass::kVolatile);
  inserts_ = &registry->counter("spf.inserts", obs::MetricClass::kVolatile);
  evictions_ = &registry->counter("spf.evictions", obs::MetricClass::kVolatile);
  recompute_ns_ = &obs::span_histogram(*registry, "spf.recompute_ns");
}

}  // namespace ibgp::netsim
