#include "redrive.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/thread_pool.h"
#include "graph/compact_builder.h"
#include "graph/shard_partition.h"
#include "log/sessionizer.h"
#include "measure.h"
#include "solver/regularization.h"
#include "suggest/hitting_time_suggester.h"
#include "suggest/pqsda_diversifier.h"
#include "topic/corpus.h"
#include "topic/upm.h"

namespace perfbench {

using pqsda::BipartiteKind;
using pqsda::StringId;
using pqsda::Suggestion;

pqsda::StatusOr<std::vector<Suggestion>> RedriveRequest(
    const pqsda::IndexSnapshot& snap, const pqsda::SuggestionRequest& request,
    size_t k, SpanBuffer& buffer, uint64_t request_id, uint32_t parent,
    RedriveCounts* counts) {
  const pqsda::MultiBipartite& mb = *snap.mb;
  const pqsda::PqsdaDiversifierOptions& options = snap.diversifier->options();
  pqsda::ThreadPool* pool = &pqsda::ThreadPool::Shared();

  const StringId input = mb.QueryId(request.query);
  if (input == pqsda::kInvalidStringId) {
    return pqsda::Status::InvalidArgument("input query not in the log");
  }
  std::vector<std::pair<StringId, int64_t>> context_ids;
  std::vector<StringId> context_only;
  for (const auto& [q, ts] : request.context) {
    const StringId id = mb.QueryId(q);
    if (id == pqsda::kInvalidStringId) continue;
    context_ids.emplace_back(id, ts);
    context_only.push_back(id);
  }

  pqsda::StatusOr<pqsda::CompactRepresentation> rep_or =
      pqsda::Status::Internal("unset");
  pqsda::CompactBuildStats build_stats;
  {
    ScopedSpan span(buffer, SpanName::kCompactBuild, request_id, parent);
    rep_or = pqsda::CompactBuilder(mb).Build(input, context_only,
                                             options.compact, &build_stats);
  }
  if (!rep_or.ok()) return rep_or.status();
  const pqsda::CompactRepresentation& rep = *rep_or;
  counts->walk_steps = build_stats.walk_steps;
  counts->compact_size = rep.size();

  static thread_local std::vector<double> f0;
  {
    ScopedSpan span(buffer, SpanName::kF0, request_id, parent);
    pqsda::BuildF0Into(rep, input, request.timestamp, context_ids,
                       options.regularization.decay_lambda, f0);
  }
  std::vector<double> f;
  {
    ScopedSpan span(buffer, SpanName::kSolve, request_id, parent);
    static thread_local pqsda::SolverWorkspace workspace;
    pqsda::SolverResult result;
    auto f_or = pqsda::SolveRegularization(rep, f0, options.regularization,
                                           &result, &workspace, pool);
    counts->solve_iterations = result.iterations;
    if (!f_or.ok()) return f_or.status();
    f = std::move(f_or).value();
  }

  // Algorithm 1, as the diversifier runs it: the first candidate by F*, the
  // rest by largest merged-chain hitting time to the selected set, within
  // the top `candidate_pool` queries by F*.
  std::vector<uint32_t> selected;
  {
    ScopedSpan select(buffer, SpanName::kSelect, request_id, parent);
    const std::vector<bool> excluded =
        pqsda::ExcludedCandidates(rep, input, context_only);
    std::vector<std::pair<double, uint32_t>> by_relevance;
    for (uint32_t i = 0; i < rep.size(); ++i) {
      if (!excluded[i]) by_relevance.emplace_back(f[i], i);
    }
    const size_t pool_size =
        std::min(options.candidate_pool, by_relevance.size());
    std::partial_sort(by_relevance.begin(), by_relevance.begin() + pool_size,
                      by_relevance.end(), std::greater<>());
    by_relevance.resize(pool_size);
    if (!by_relevance.empty()) {
      selected.push_back(by_relevance[0].second);
      std::vector<bool> taken(rep.size(), false);
      taken[selected[0]] = true;
      pqsda::MergedChain merged;
      {
        ScopedSpan span(buffer, SpanName::kChainBuild, request_id,
                        select.index());
        const std::vector<const pqsda::CsrMatrix*> chains = {
            &rep.P(BipartiteKind::kUrl), &rep.P(BipartiteKind::kSession),
            &rep.P(BipartiteKind::kTerm)};
        merged = pqsda::BuildMergedChain(
            chains, std::vector<double>(options.chain_weights.begin(),
                                        options.chain_weights.end()));
      }
      static thread_local pqsda::HittingTimeWorkspace ws;
      const size_t want = std::min(k, by_relevance.size());
      while (selected.size() < want) {
        {
          ScopedSpan span(buffer, SpanName::kSweep, request_id,
                          select.index());
          pqsda::MergedChainHittingTimeInto(
              merged, selected, options.hitting_iterations, pool, ws);
        }
        ++counts->rounds;
        double best = -1.0;
        uint32_t best_q = UINT32_MAX;
        for (const auto& [rel, q] : by_relevance) {
          (void)rel;
          if (!taken[q] && ws.h[q] > best) {
            best = ws.h[q];
            best_q = q;
          }
        }
        if (best_q == UINT32_MAX) break;
        selected.push_back(best_q);
        taken[best_q] = true;
      }
      std::sort(selected.begin(), selected.end(),
                [&f](uint32_t a, uint32_t b) { return f[a] > f[b]; });
    }
  }
  std::vector<Suggestion> list;
  list.reserve(selected.size());
  for (size_t rank = 0; rank < selected.size(); ++rank) {
    list.push_back(Suggestion{mb.QueryString(rep.queries[selected[rank]]),
                              static_cast<double>(selected.size() - rank)});
  }
  if (snap.personalizer != nullptr && request.user != pqsda::kNoUser) {
    ScopedSpan span(buffer, SpanName::kRerank, request_id, parent);
    list = snap.personalizer->Rerank(request.user, list);
  }
  return list;
}

pqsda::StatusOr<std::vector<Suggestion>> ReServe(
    const pqsda::IndexSnapshot& snap, const pqsda::SuggestionRequest& request,
    size_t k) {
  auto out = snap.diversifier->DiversifyWith(request, k,
                                             snap.diversifier->options());
  if (!out.ok()) return out.status();
  if (snap.personalizer != nullptr && request.user != pqsda::kNoUser) {
    return snap.personalizer->Rerank(request.user, out->candidates);
  }
  return std::move(out->candidates);
}

namespace {

double MillisSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

}  // namespace

RebuildSplit TimeRebuildConstituents(const pqsda::IndexSnapshot& snap,
                                     const pqsda::PqsdaEngineConfig& config) {
  RebuildSplit split;
  // snap.records is already in the canonical (user, time, query) order.
  int64_t t = NowNs();
  const std::vector<pqsda::Session> sessions =
      pqsda::Sessionize(snap.records, config.sessionizer);
  split.sessionize_ms = MillisSince(t);

  t = NowNs();
  const pqsda::MultiBipartite mb =
      pqsda::MultiBipartite::Build(snap.records, sessions, config.weighting);
  split.multi_bipartite_ms = MillisSince(t);

  t = NowNs();
  const pqsda::QueryLogCorpus corpus =
      pqsda::QueryLogCorpus::Build(snap.records, sessions);
  split.corpus_ms = MillisSince(t);

  // The engine's cache-validation partition: strict ownership, no hot rows.
  pqsda::ShardPartitionOptions partition_options;
  partition_options.shards = pqsda::kCacheValidationComponents;
  partition_options.hot_row_min_degree = 0;
  t = NowNs();
  const pqsda::ShardPartition partition =
      pqsda::BuildShardPartition(mb, partition_options);
  split.shard_partition_ms = MillisSince(t);
  split.fingerprints_match =
      partition.shard.size() == snap.validation.shard.size();
  for (size_t s = 0; split.fingerprints_match && s < partition.shard.size();
       ++s) {
    split.fingerprints_match = partition.shard[s].content_fingerprint ==
                               snap.validation.shard[s].content_fingerprint;
  }

  if (config.personalize) {
    t = NowNs();
    pqsda::UpmModel upm(config.upm);
    upm.Train(corpus);
    split.upm_train_ms = MillisSince(t);
  }
  return split;
}

}  // namespace perfbench
