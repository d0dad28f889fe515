#include "obs/explain.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace pqsda::obs {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

constexpr const char* kRungNames[4] = {"full", "truncated_solve", "walk_only",
                                       "cache_only"};

thread_local ExplainRecord* tls_explain = nullptr;

}  // namespace

void Fingerprint64::Mix(std::string_view s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= kFnvPrime;
  }
  // Length terminator so ("ab","c") never collides with ("a","bc").
  Mix(static_cast<uint64_t>(s.size()));
}

void Fingerprint64::Mix(uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (v >> (b * 8)) & 0xff;
    h_ *= kFnvPrime;
  }
}

void Fingerprint64::MixDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(bits);
}

std::string FingerprintToHex(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return buf;
}

bool FingerprintFromHex(std::string_view hex, uint64_t* fingerprint) {
  if (hex.empty() || hex.size() > 16) return false;
  uint64_t v = 0;
  for (char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *fingerprint = v;
  return true;
}

ExplainRecord* CurrentExplain() { return tls_explain; }

ExplainScope::ExplainScope(ExplainRecord* record) : prev_(tls_explain) {
  tls_explain = record;
}

ExplainScope::~ExplainScope() { tls_explain = prev_; }

std::string ExplainRecord::ToJson() const {
  std::string out = "{\"request_id\":" + std::to_string(request_id);
  out += ",\"query\":\"" + JsonEscape(query) + "\"";
  out += ",\"user\":" + std::to_string(user);
  out += ",\"k\":" + std::to_string(k);
  out += ",\"generation\":" + std::to_string(generation);
  out += ",\"rung\":" + std::to_string(rung);
  out += ",\"rung_name\":\"";
  out += rung < 4 ? kRungNames[rung] : "unknown";
  out += "\"";
  out += ",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"walk_only\":";
  out += walk_only ? "true" : "false";
  out += ",\"personalized\":";
  out += personalized ? "true" : "false";
  if (personalized) {
    out += ",\"preference_weight\":" + std::to_string(preference_weight);
  }
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (!ok) out += ",\"status\":\"" + JsonEscape(status) + "\"";
  out += ",\"total_us\":" + std::to_string(total_us);
  if (!stage_us.empty()) {
    out += ",\"stage_us\":{";
    for (size_t i = 0; i < stage_us.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(stage_us[i].first) +
             "\":" + std::to_string(stage_us[i].second);
    }
    out += "}";
  }
  out += ",\"fingerprint\":\"" + FingerprintToHex(fingerprint) + "\"";
  out += ",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const ExplainCandidate& c = candidates[i];
    if (i > 0) out += ",";
    out += "{\"query\":\"" + JsonEscape(c.query) + "\"";
    out += ",\"final_rank\":" + std::to_string(c.final_rank);
    out += ",\"score\":" + Num(c.score);
    out += ",\"relevance\":" + Num(c.relevance);
    if (!walk_only) {
      out += ",\"selection_round\":" + std::to_string(c.selection_round);
      out += ",\"hitting_time\":" + Num(c.hitting_time);
      if (c.chain_rank[0] != SIZE_MAX) {
        out += ",\"chain_rank\":{";
        for (size_t x = 0; x < kExplainChainCount; ++x) {
          if (x > 0) out += ",";
          out += "\"" + std::string(kExplainChainNames[x]) +
                 "\":" + std::to_string(c.chain_rank[x]);
        }
        out += "}";
      }
    }
    if (personalized) {
      out += ",\"upm_preference\":" + Num(c.upm_preference);
      out += ",\"borda\":{\"diversification\":" + Num(c.borda_diversification);
      out += ",\"preference\":" + Num(c.borda_preference);
      out += ",\"total\":" + Num(c.borda_diversification + c.borda_preference);
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string ExplainRecord::Render() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "request %llu \"%s\" | generation %llu | rung %zu (%s) | "
                "%s%s| %lld us | fingerprint %s\n",
                static_cast<unsigned long long>(request_id), query.c_str(),
                static_cast<unsigned long long>(generation), rung,
                rung < 4 ? kRungNames[rung] : "?",
                cache_hit ? "cache hit " : "",
                personalized ? "personalized " : "",
                static_cast<long long>(total_us),
                FingerprintToHex(fingerprint).c_str());
  out += buf;
  if (!ok) {
    out += "  status: " + status + "\n";
    return out;
  }
  if (candidates.empty()) {
    out += cache_hit
               ? "  (cache hit: the pipeline did not run; replay the request "
                 "or re-ask with explain to decompose)\n"
               : "  (no candidates)\n";
    return out;
  }
  for (const ExplainCandidate& c : candidates) {
    std::snprintf(buf, sizeof(buf), "  %2zu. %-28s F*=%-11.6g",
                  c.final_rank + 1, c.query.c_str(), c.relevance);
    out += buf;
    if (!walk_only) {
      std::snprintf(buf, sizeof(buf), " round=%zu h=%-10.5g",
                    c.selection_round, c.hitting_time);
      out += buf;
      if (c.chain_rank[0] != SIZE_MAX) {
        std::snprintf(buf, sizeof(buf), " chains[U/S/T]=%zu/%zu/%zu",
                      c.chain_rank[0], c.chain_rank[1], c.chain_rank[2]);
        out += buf;
      }
    }
    if (personalized) {
      std::snprintf(buf, sizeof(buf),
                    " upm=%-9.4g borda=%.4g+%.4g=%.5g", c.upm_preference,
                    c.borda_diversification, c.borda_preference,
                    c.borda_diversification + c.borda_preference);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

ExplainStore::ExplainStore(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void ExplainStore::Add(std::shared_ptr<const ExplainRecord> record) {
  if (record == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(record));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::shared_ptr<const ExplainRecord> ExplainStore::Find(
    uint64_t request_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Newest first: a reused id (never in practice — ids are monotonic)
  // resolves to the most recent record.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if ((*it)->request_id == request_id) return *it;
  }
  return nullptr;
}

std::vector<std::pair<uint64_t, std::string>> ExplainStore::Index() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, std::string>> out;
  out.reserve(ring_.size());
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    out.emplace_back((*it)->request_id, (*it)->query);
  }
  return out;
}

size_t ExplainStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

}  // namespace pqsda::obs
