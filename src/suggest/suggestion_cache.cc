#include "suggest/suggestion_cache.h"

#include <algorithm>
#include <functional>
#include <list>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"

namespace pqsda {

namespace {

// Serializes the context (query, timestamp-offset) pairs verbatim. An
// earlier revision stored an FNV-1a hash of this instead; two colliding
// contexts then shared one cache entry and one session could be served
// another session's suggestions. Offsets are taken relative to the request
// timestamp so time-shifted but otherwise identical requests still share an
// entry (the decay of Eq. 7 only sees relative age). Context queries are
// length-prefixed so their bytes cannot be confused with the separators.
std::string SerializeContext(const SuggestionRequest& request) {
  std::string out;
  for (const auto& [q, ts] : request.context) {
    out += std::to_string(q.size());
    out += ':';
    out += q;
    out += '\x1e';
    out += std::to_string(static_cast<int64_t>(ts - request.timestamp));
    out += '\x1e';
  }
  return out;
}

// The metrics one cache counts into. Both caches run the same LruShard and
// differ only in names: the negative cache has no mismatch counter of its
// own (its mismatches count as plain misses) and counts insertions.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& invalidations;
  obs::Counter* mismatch_misses;
  obs::Counter* insertions;
  obs::Gauge& size;
};

const CacheMetrics& PositiveMetrics() {
  static const CacheMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return CacheMetrics{
        reg.GetCounter("pqsda.cache.hits_total"),
        reg.GetCounter("pqsda.cache.misses_total"),
        reg.GetCounter("pqsda.cache.evictions_total"),
        reg.GetCounter("pqsda.cache.stale_invalidations_total"),
        &reg.GetCounter("pqsda.cache.mismatch_misses_total"),
        /*insertions=*/nullptr,
        reg.GetGauge("pqsda.cache.size")};
  }();
  return m;
}

const CacheMetrics& NegativeMetrics() {
  static const CacheMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return CacheMetrics{
        reg.GetCounter("pqsda.cache.negative_hits_total"),
        reg.GetCounter("pqsda.cache.negative_misses_total"),
        reg.GetCounter("pqsda.cache.negative_evictions_total"),
        reg.GetCounter("pqsda.cache.negative_invalidations_total"),
        /*mismatch_misses=*/nullptr,
        &reg.GetCounter("pqsda.cache.negative_insertions_total"),
        reg.GetGauge("pqsda.cache.negative_size")};
  }();
  return m;
}

}  // namespace

// Entries live in a list ordered by recency (front = most recently used);
// the index maps each resident key to its list node. The key string is
// stored once, in the node: the index holds a view of it plus the hash
// CacheKey already carries, so a probe neither rehashes nor copies the key.
class LruShard {
 public:
  using CacheKey = SuggestionCache::CacheKey;
  using ValidationVector = SuggestionCache::ValidationVector;
  using Validator = SuggestionCache::Validator;

  LruShard(size_t capacity, const CacheMetrics& metrics)
      : capacity_(std::max<size_t>(capacity, 1)), metrics_(metrics) {}

  // Grades the entry's components with `validator` (an entry without
  // components, or a call without a validator, grades kValid). Only kValid
  // hits: the entry moves to the front and its list is copied into `out`
  // when non-null.
  bool Lookup(const CacheKey& key, const Validator& validator,
              std::vector<Suggestion>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(KeyRef{key.hash, key.full});
    if (it == index_.end()) {
      metrics_.misses.Increment();
      return false;
    }
    const auto node = it->second;
    const CacheValidity validity = validator && !node->components.empty()
                                       ? validator(node->components)
                                       : CacheValidity::kValid;
    switch (validity) {
      case CacheValidity::kValid:
        break;
      case CacheValidity::kStale:
        // Some component the entry read has been rebuilt since. Erase it
        // now — keeping it would re-grade it on every probe and the entry
        // can never become valid again (generations only move forward). For
        // a negative entry an ingested record may have made the query known.
        index_.erase(it);
        order_.erase(node);
        metrics_.size.Add(-1.0);
        metrics_.invalidations.Increment();
        metrics_.misses.Increment();
        return false;
      case CacheValidity::kMismatch:
        // The entry was built against a *newer* generation than the
        // caller's pinned snapshot — the caller raced a swap on the
        // outgoing side. Miss without erasing: the entry is exactly what
        // post-swap readers want.
        if (metrics_.mismatch_misses != nullptr) {
          metrics_.mismatch_misses->Increment();
        }
        metrics_.misses.Increment();
        return false;
    }
    order_.splice(order_.begin(), order_, node);
    if (out != nullptr) *out = node->value;
    metrics_.hits.Increment();
    return true;
  }

  void Insert(const CacheKey& key, std::vector<Suggestion> value,
              ValidationVector components) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(KeyRef{key.hash, key.full});
    if (it != index_.end()) {
      it->second->value = std::move(value);
      it->second->components = std::move(components);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(Node{key, std::move(value), std::move(components)});
    index_.emplace(RefOf(order_.front()), order_.begin());
    if (metrics_.insertions != nullptr) metrics_.insertions->Increment();
    if (order_.size() > capacity_) {
      index_.erase(RefOf(order_.back()));
      order_.pop_back();
      metrics_.evictions.Increment();
    } else {
      metrics_.size.Add(1.0);
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.size.Add(-static_cast<double>(order_.size()));
    index_.clear();
    order_.clear();
  }

 private:
  struct Node {
    CacheKey key;
    std::vector<Suggestion> value;
    /// Empty when the entry's generation lives inside the key string (the
    /// whole-generation path); otherwise the per-component generations the
    /// entry was built against, graded by validating Lookups.
    ValidationVector components;
  };
  // Equality compares the full serialization, so keys that collide in the
  // hash are distinct entries, never aliases.
  struct KeyRef {
    uint64_t hash;
    std::string_view full;
    bool operator==(const KeyRef& other) const {
      return hash == other.hash && full == other.full;
    }
  };
  struct KeyRefHash {
    size_t operator()(const KeyRef& ref) const {
      return static_cast<size_t>(ref.hash);
    }
  };
  static KeyRef RefOf(const Node& node) {
    return KeyRef{node.key.hash, node.key.full};
  }

  const size_t capacity_;
  const CacheMetrics& metrics_;
  mutable std::mutex mu_;
  std::list<Node> order_;
  std::unordered_map<KeyRef, std::list<Node>::iterator, KeyRefHash> index_;
};

SuggestionCache::SuggestionCache(SuggestionCacheOptions options) {
  const size_t capacity = std::max<size_t>(options.capacity, 1);
  const size_t shards = std::min(std::max<size_t>(options.shards, 1), capacity);
  const size_t per_shard_capacity = (capacity + shards - 1) / shards;
  capacity_ = per_shard_capacity * shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<LruShard>(per_shard_capacity, PositiveMetrics()));
  }
  obs::MetricsRegistry::Default()
      .GetGauge("pqsda.cache.capacity")
      .Set(static_cast<double>(capacity_));
}

SuggestionCache::~SuggestionCache() = default;

SuggestionCache::CacheKey::CacheKey(std::string full_key)
    : hash(std::hash<std::string>{}(full_key)), full(std::move(full_key)) {}

SuggestionCache::CacheKey SuggestionCache::KeyOf(
    const SuggestionRequest& request, size_t k, uint64_t generation) {
  std::string key = request.query;
  key += '\x1f';
  key += SerializeContext(request);
  key += '\x1f';
  key += std::to_string(request.user);
  key += '\x1f';
  key += std::to_string(k);
  key += '\x1f';
  key += std::to_string(generation);
  return CacheKey(std::move(key));
}

LruShard& SuggestionCache::ShardOf(const CacheKey& key) const {
  // The hash only routes to a shard; inside the shard the index compares
  // full keys, so hash collisions cost a probe, never a wrong answer.
  return *shards_[key.hash % shards_.size()];
}

bool SuggestionCache::Lookup(const CacheKey& key,
                             std::vector<Suggestion>* out) const {
  return Lookup(key, out, Validator());
}

bool SuggestionCache::Lookup(const CacheKey& key, std::vector<Suggestion>* out,
                             const Validator& validator) const {
  return ShardOf(key).Lookup(key, validator, out);
}

void SuggestionCache::Insert(const CacheKey& key,
                             std::vector<Suggestion> value) {
  Insert(key, std::move(value), ValidationVector());
}

void SuggestionCache::Insert(const CacheKey& key, std::vector<Suggestion> value,
                             ValidationVector components) {
  ShardOf(key).Insert(key, std::move(value), std::move(components));
}

size_t SuggestionCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

void SuggestionCache::Clear() {
  for (const auto& shard : shards_) shard->Clear();
}

NegativeSuggestionCache::NegativeSuggestionCache(size_t capacity)
    : shard_(std::make_unique<LruShard>(capacity, NegativeMetrics())) {}

NegativeSuggestionCache::~NegativeSuggestionCache() { shard_->Clear(); }

bool NegativeSuggestionCache::Lookup(const CacheKey& key,
                                     const Validator& validator) const {
  return shard_->Lookup(key, validator, /*out=*/nullptr);
}

void NegativeSuggestionCache::Insert(const CacheKey& key,
                                     ValidationVector components) {
  shard_->Insert(key, /*value=*/{}, std::move(components));
}

size_t NegativeSuggestionCache::size() const { return shard_->size(); }

void NegativeSuggestionCache::Clear() { shard_->Clear(); }

}  // namespace pqsda
