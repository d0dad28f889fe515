#include "core/personalizer.h"

#include <cstdint>
#include <unordered_map>

#include "obs/explain.h"
#include "obs/stage_profiler.h"
#include "rank/borda.h"

namespace pqsda {

double Personalizer::PreferenceScore(UserId user,
                                     const std::string& query) const {
  size_t doc = corpus_->DocumentOf(user);
  if (doc == SIZE_MAX) return 0.0;
  return upm_->PreferenceScore(doc, corpus_->WordIds(query));
}

std::vector<Suggestion> Personalizer::Rerank(
    UserId user, const std::vector<Suggestion>& list) const {
  obs::StageScope stage(obs::ProfileStage::kPersonalization);
  size_t doc = corpus_->DocumentOf(user);
  if (doc == SIZE_MAX || list.empty()) return list;
  std::vector<std::string> items;
  std::vector<double> prefs;
  items.reserve(list.size());
  for (const Suggestion& s : list) {
    items.push_back(s.query);
    prefs.push_back(upm_->PreferenceScore(doc, corpus_->WordIds(s.query)));
  }
  std::vector<Suggestion> preference_ranking = RankByScore(items, prefs);

  // Explain seam: record each candidate's Eq. 31 preference score and the
  // Borda points both source lists award it. One thread-local load on
  // unsampled requests.
  if (obs::ExplainRecord* er = obs::CurrentExplain();
      er != nullptr && !er->candidates.empty()) {
    er->personalized = true;
    er->preference_weight = preference_weight_;
    const size_t n = list.size();
    std::unordered_map<std::string, size_t> div_rank, pref_rank;
    div_rank.reserve(n);
    pref_rank.reserve(n);
    for (size_t i = 0; i < n; ++i) div_rank[list[i].query] = i;
    for (size_t i = 0; i < n; ++i) pref_rank[preference_ranking[i].query] = i;
    std::unordered_map<std::string, double> pref_score;
    pref_score.reserve(n);
    for (size_t i = 0; i < n; ++i) pref_score[items[i]] = prefs[i];
    for (obs::ExplainCandidate& c : er->candidates) {
      auto dit = div_rank.find(c.query);
      auto pit = pref_rank.find(c.query);
      if (dit == div_rank.end() || pit == pref_rank.end()) continue;
      c.upm_preference = pref_score[c.query];
      // BordaAggregate awards n - rank points per list; the preference list
      // appears preference_weight_ times.
      c.borda_diversification = static_cast<double>(n - dit->second);
      c.borda_preference = static_cast<double>(preference_weight_) *
                           static_cast<double>(n - pit->second);
    }
  }

  std::vector<std::vector<Suggestion>> lists = {list};
  for (size_t i = 0; i < preference_weight_; ++i) {
    lists.push_back(preference_ranking);
  }
  return BordaAggregate(lists);
}

}  // namespace pqsda
