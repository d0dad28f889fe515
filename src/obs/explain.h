#ifndef PQSDA_OBS_EXPLAIN_H_
#define PQSDA_OBS_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pqsda::obs {

/// Per-chain rank slots of ExplainCandidate::chain_rank, in the order the
/// diversifier mixes the bipartites (BipartiteKind::kUrl/kSession/kTerm).
inline constexpr size_t kExplainChainCount = 3;
inline constexpr const char* kExplainChainNames[kExplainChainCount] = {
    "url", "session", "term"};

/// One returned candidate with every score term that composed its final
/// position: the Eq. 15 regularized relevance, its Algorithm 1 selection
/// round and marginal hitting time (with its rank under each single-chain
/// hitting-time ordering at that round), and — when the §V-B rerank ran —
/// the UPM preference score and the Borda points awarded by each source
/// list. `final_rank` is the position in the served list; fields that did
/// not apply to the request's rung stay at their zero/SIZE_MAX defaults.
struct ExplainCandidate {
  std::string query;
  size_t final_rank = SIZE_MAX;
  /// The served Suggestion::score.
  double score = 0.0;
  /// F* of the Eq. 15 solve (or the walk score on the walk-only rung).
  double relevance = 0.0;
  /// Algorithm 1 round this candidate was picked in; round 0 is the Eq. 15
  /// argmax first pick (no hitting-time sweep ran for it).
  size_t selection_round = 0;
  /// Marginal diversity gain: the merged-chain hitting time to the
  /// already-selected set at the moment this candidate won its round.
  double hitting_time = 0.0;
  /// Rank (0-based, among the untaken candidate pool) under each
  /// single-chain hitting-time ordering at the selection round; SIZE_MAX
  /// when not computed (first pick, degraded rungs, explain-off).
  size_t chain_rank[kExplainChainCount] = {SIZE_MAX, SIZE_MAX, SIZE_MAX};
  /// Eq. 31 topic-match preference of the requesting user (0 when the
  /// rerank did not run).
  double upm_preference = 0.0;
  /// Borda points from the diversification list and from the
  /// preference-ranking list (already multiplied by the preference weight).
  /// Their sum recomposes the served order; tests enforce it.
  double borda_diversification = 0.0;
  double borda_preference = 0.0;
};

/// The full decision record of one request: what was served, off which
/// pinned snapshot generation, at which degradation rung, and the
/// per-candidate decomposition above. Collected only when a request is
/// sampled into explain or asks for it — the request path otherwise pays
/// one thread-local read per recording site.
struct ExplainRecord {
  uint64_t request_id = 0;
  std::string query;
  uint32_t user = UINT32_MAX;
  size_t k = 0;
  /// Snapshot generation the request pinned at admission — the `replay`
  /// target.
  uint64_t generation = 0;
  /// DegradationRung numeric value chosen at admission.
  size_t rung = 0;
  bool cache_hit = false;
  /// True when the walk-only rung served (relevance is the walk score and
  /// no selection/personalization terms exist).
  bool walk_only = false;
  /// True when the §V-B rerank actually ran for a known user.
  bool personalized = false;
  /// Borda multiplicity of the preference list (meaningful when
  /// personalized).
  size_t preference_weight = 0;
  bool ok = true;
  std::string status;  // "" when ok
  int64_t total_us = 0;
  /// (stage name, wall µs) of every stage that ran — the same instrument
  /// and names as the request log, /tracez and /profilez.
  std::vector<std::pair<std::string, int64_t>> stage_us;
  /// FNV-1a 64 over the served list (query bytes + score bit patterns);
  /// matches the request log's fingerprint and replay's equality check.
  uint64_t fingerprint = 0;
  /// Served candidates ordered by final_rank. Empty on cache hits (the
  /// pipeline never ran) and on errors.
  std::vector<ExplainCandidate> candidates;

  std::string ToJson() const;
  /// Human-readable table for the CLI's `explain` command.
  std::string Render() const;
};

/// Incremental FNV-1a 64 over strings and double bit patterns — the result
/// fingerprint shared by the request log, ExplainRecord and replay
/// verification. Bitwise: two lists fingerprint equal iff every query string
/// and every score's bit pattern match.
class Fingerprint64 {
 public:
  void Mix(std::string_view s);
  void Mix(uint64_t v);
  void MixDouble(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

/// Renders a fingerprint the way the log stores it (16 hex digits) and
/// parses it back. Parse returns false on malformed input.
std::string FingerprintToHex(uint64_t fingerprint);
bool FingerprintFromHex(std::string_view hex, uint64_t* fingerprint);

/// The explain record under collection on this thread, or null. The
/// diversifier and personalizer write their score terms through this — one
/// thread-local load when no record is installed, so the seams cost nothing
/// on unsampled requests (the bench gate enforces it).
ExplainRecord* CurrentExplain();

/// Installs `record` as the thread's explain sink for the scope's lifetime;
/// nests (the previous sink is restored on destruction) so replay can
/// collect inside a serving thread.
class ExplainScope {
 public:
  explicit ExplainScope(ExplainRecord* record);
  ~ExplainScope();

  ExplainScope(const ExplainScope&) = delete;
  ExplainScope& operator=(const ExplainScope&) = delete;

 private:
  ExplainRecord* prev_;
};

/// Bounded ring of the most recent ExplainRecords, keyed by request id —
/// the /explainz store. Records are immutable once added (shared_ptr const),
/// so a scrape renders them without blocking the serving path beyond the
/// ring mutex.
class ExplainStore {
 public:
  explicit ExplainStore(size_t capacity = 64);

  void Add(std::shared_ptr<const ExplainRecord> record);
  /// Null when the id is unknown (never stored, or already evicted).
  std::shared_ptr<const ExplainRecord> Find(uint64_t request_id) const;
  /// (request_id, query) of the stored records, newest first — the
  /// /explainz index listing.
  std::vector<std::pair<uint64_t, std::string>> Index() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const ExplainRecord>> ring_;  // newest at back
};

}  // namespace pqsda::obs

#endif  // PQSDA_OBS_EXPLAIN_H_
