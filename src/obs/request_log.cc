#include "obs/request_log.h"

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "obs/explain.h"
#include "obs/metrics.h"

namespace pqsda::obs {

namespace {

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

Counter& DroppedCounter() {
  static Counter& c = MetricsRegistry::Default().GetCounter(
      "pqsda.reqlog.dropped_total");
  return c;
}

Counter& WrittenCounter() {
  static Counter& c = MetricsRegistry::Default().GetCounter(
      "pqsda.reqlog.written_total");
  return c;
}

Counter& RotationsCounter() {
  static Counter& c = MetricsRegistry::Default().GetCounter(
      "pqsda.reqlog.rotations_total");
  return c;
}

}  // namespace

StatusOr<std::unique_ptr<RequestLog>> RequestLog::Open(
    RequestLogOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("request log path is empty");
  }
  std::FILE* file = std::fopen(options.path.c_str(), "a");
  if (file == nullptr) {
    return Status::IoError("cannot open request log " + options.path);
  }
  // Appending to a pre-existing file: its current size counts against the
  // rotation limit, or the file could grow without bound across restarts.
  size_t initial_bytes = 0;
  if (std::fseek(file, 0, SEEK_END) == 0) {
    const long pos = std::ftell(file);
    if (pos > 0) initial_bytes = static_cast<size_t>(pos);
  }
  return std::unique_ptr<RequestLog>(
      new RequestLog(std::move(options), file, initial_bytes));
}

RequestLog::RequestLog(RequestLogOptions options, std::FILE* file,
                       size_t initial_bytes)
    : options_(std::move(options)), file_(file),
      active_bytes_(initial_bytes) {
  writer_ = std::thread([this] { WriterLoop(); });
}

RequestLog::~RequestLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  writer_.join();
  if (file_ != nullptr) std::fclose(file_);
}

bool RequestLog::Log(RequestLogEntry entry) {
  if (!Admit(entry.total_us)) return false;
  Enqueue(std::move(entry));
  return true;
}

bool RequestLog::Admit(int64_t total_us) {
  seen_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t n = seq_.fetch_add(1, std::memory_order_relaxed);
  const bool slow = total_us >= options_.slow_us;
  const bool sampled =
      options_.sample_every > 0 && n % options_.sample_every == 0;
  if (!slow && !sampled) return false;
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RequestLog::Enqueue(RequestLogEntry entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= options_.queue_capacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter().Increment();
      return;
    }
    queue_.push_back(std::move(entry));
  }
  cv_.notify_one();
}

void RequestLog::WriterLoop() {
  for (;;) {
    RequestLogEntry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and everything written
      entry = std::move(queue_.front());
      queue_.pop_front();
      writing_ = true;
    }
    {
      std::lock_guard<std::mutex> file_lock(file_mu_);
      if (file_ != nullptr) {
        const std::string line = ToJson(entry);
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fputc('\n', file_);
        active_bytes_ += line.size() + 1;
        written_.fetch_add(1, std::memory_order_relaxed);
        WrittenCounter().Increment();
        if (options_.rotate_bytes > 0 &&
            active_bytes_ >= options_.rotate_bytes) {
          Rotate();
        }
      } else {
        // A failed rotation reopen left the log without a file: the entry
        // was accepted and cannot be written, so it is dropped — the
        // contract written + dropped == accepted survives the failure.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        DroppedCounter().Increment();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      writing_ = false;
      if (queue_.empty()) drained_.notify_all();
    }
  }
}

void RequestLog::Rotate() {
  std::fclose(file_);
  file_ = nullptr;
  if (options_.max_rotated_files == 0) {
    std::remove(options_.path.c_str());
  } else {
    // Shift the chain from the oldest end: path.N-1 -> path.N (clobbering
    // the previous path.N), ..., path -> path.1.
    const std::string oldest =
        options_.path + "." + std::to_string(options_.max_rotated_files);
    std::remove(oldest.c_str());
    for (size_t i = options_.max_rotated_files; i > 1; --i) {
      const std::string from = options_.path + "." + std::to_string(i - 1);
      const std::string to = options_.path + "." + std::to_string(i);
      std::rename(from.c_str(), to.c_str());
    }
    std::rename(options_.path.c_str(), (options_.path + ".1").c_str());
  }
  file_ = std::fopen(options_.path.c_str(), "a");
  active_bytes_ = 0;
  rotations_.fetch_add(1, std::memory_order_relaxed);
  RotationsCounter().Increment();
}

void RequestLog::Flush() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return queue_.empty() && !writing_; });
  }
  std::lock_guard<std::mutex> file_lock(file_mu_);
  if (file_ != nullptr) std::fflush(file_);
}

std::string RequestLog::ToJson(const RequestLogEntry& entry) {
  std::string out = "{\"request_id\":" + std::to_string(entry.request_id);
  out += ",\"user\":" + std::to_string(entry.user);
  out += ",\"query\":\"" + JsonEscape(entry.query) + "\"";
  out += ",\"k\":" + std::to_string(entry.k);
  out += ",\"timestamp\":" + std::to_string(entry.timestamp);
  if (!entry.context.empty()) {
    out += ",\"context\":[";
    for (size_t i = 0; i < entry.context.size(); ++i) {
      if (i > 0) out += ",";
      out += "[\"" + JsonEscape(entry.context[i].first) +
             "\"," + std::to_string(entry.context[i].second) + "]";
    }
    out += "]";
  }
  out += ",\"generation\":" + std::to_string(entry.generation);
  out += ",\"rung\":" + std::to_string(entry.rung);
  out += ",\"total_us\":" + std::to_string(entry.total_us);
  out += ",\"cache_hit\":";
  out += entry.cache_hit ? "true" : "false";
  out += ",\"ok\":";
  out += entry.ok ? "true" : "false";
  if (!entry.ok) {
    out += ",\"status\":\"" + JsonEscape(entry.status) + "\"";
  }
  if (entry.ok) {
    out += ",\"fingerprint\":\"" + FingerprintToHex(entry.fingerprint) + "\"";
  }
  if (!entry.stage_us.empty()) {
    out += ",\"stage_us\":{";
    for (size_t i = 0; i < entry.stage_us.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(entry.stage_us[i].first) +
             "\":" + std::to_string(entry.stage_us[i].second);
    }
    out += "}";
  }
  if (!entry.suggestions.empty()) {
    out += ",\"suggestions\":[";
    for (size_t i = 0; i < entry.suggestions.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(entry.suggestions[i]) + "\"";
    }
    out += "]";
  }
  out += "}";
  return out;
}

namespace {

// Minimal cursor parser for the log's own JSONL schema (the reverse of
// ToJson/JsonEscape). It understands exactly the JSON subset the writer
// emits — objects, arrays, strings with escapes, integers, booleans — and
// skips unknown values so a newer writer stays readable.
struct JsonCursor {
  const char* p;
  const char* end;

  bool AtEnd() const { return p >= end; }
  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return p < end && *p == c;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p >= end) return false;
      char e = *p++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (end - p < 4) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The writer only emits \u00XX for control bytes; anything else
          // would need UTF-8 encoding the log never produces.
          if (code > 0xff) return false;
          out->push_back(static_cast<char>(code));
          break;
        }
        default: return false;
      }
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }

  bool ParseInt(int64_t* out) {
    SkipWs();
    const char* start = p;
    if (p < end && *p == '-') ++p;
    if (p >= end || !std::isdigit(static_cast<unsigned char>(*p))) {
      return false;
    }
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    *out = std::strtoll(std::string(start, p).c_str(), nullptr, 10);
    return true;
  }

  bool ParseUint(uint64_t* out) {
    SkipWs();
    const char* start = p;
    if (p >= end || !std::isdigit(static_cast<unsigned char>(*p))) {
      return false;
    }
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    *out = std::strtoull(std::string(start, p).c_str(), nullptr, 10);
    return true;
  }

  bool ParseBool(bool* out) {
    SkipWs();
    if (end - p >= 4 && std::memcmp(p, "true", 4) == 0) {
      p += 4;
      *out = true;
      return true;
    }
    if (end - p >= 5 && std::memcmp(p, "false", 5) == 0) {
      p += 5;
      *out = false;
      return true;
    }
    return false;
  }

  // Skips one value of any shape (forward compatibility with unknown keys).
  bool SkipValue() {
    SkipWs();
    if (p >= end) return false;
    if (*p == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (*p == '{' || *p == '[') {
      const char open = *p;
      const char close = open == '{' ? '}' : ']';
      ++p;
      SkipWs();
      if (Consume(close)) return true;
      for (;;) {
        if (open == '{') {
          std::string key;
          if (!ParseString(&key) || !Consume(':')) return false;
        }
        if (!SkipValue()) return false;
        if (Consume(close)) return true;
        if (!Consume(',')) return false;
      }
    }
    // number / true / false / null
    while (p < end && *p != ',' && *p != '}' && *p != ']' && *p != ' ') ++p;
    return true;
  }
};

}  // namespace

StatusOr<RequestLogEntry> ParseRequestLogEntry(const std::string& line) {
  JsonCursor cur{line.data(), line.data() + line.size()};
  RequestLogEntry entry;
  auto malformed = [&line]() {
    return Status::InvalidArgument("malformed request-log line: " + line);
  };
  if (!cur.Consume('{')) return malformed();
  if (!cur.Consume('}')) {
    for (;;) {
      std::string key;
      if (!cur.ParseString(&key) || !cur.Consume(':')) return malformed();
      bool parsed = true;
      if (key == "request_id") {
        parsed = cur.ParseUint(&entry.request_id);
      } else if (key == "user") {
        uint64_t user = 0;
        parsed = cur.ParseUint(&user);
        entry.user = static_cast<uint32_t>(user);
      } else if (key == "query") {
        parsed = cur.ParseString(&entry.query);
      } else if (key == "k") {
        uint64_t k = 0;
        parsed = cur.ParseUint(&k);
        entry.k = static_cast<size_t>(k);
      } else if (key == "timestamp") {
        parsed = cur.ParseInt(&entry.timestamp);
      } else if (key == "context") {
        parsed = cur.Consume('[');
        if (parsed && !cur.Consume(']')) {
          for (;;) {
            std::string q;
            int64_t ts = 0;
            if (!cur.Consume('[') || !cur.ParseString(&q) ||
                !cur.Consume(',') || !cur.ParseInt(&ts) ||
                !cur.Consume(']')) {
              parsed = false;
              break;
            }
            entry.context.emplace_back(std::move(q), ts);
            if (cur.Consume(']')) break;
            if (!cur.Consume(',')) {
              parsed = false;
              break;
            }
          }
        }
      } else if (key == "generation") {
        parsed = cur.ParseUint(&entry.generation);
      } else if (key == "rung") {
        uint64_t rung = 0;
        parsed = cur.ParseUint(&rung);
        entry.rung = static_cast<size_t>(rung);
      } else if (key == "total_us") {
        parsed = cur.ParseInt(&entry.total_us);
      } else if (key == "cache_hit") {
        parsed = cur.ParseBool(&entry.cache_hit);
      } else if (key == "ok") {
        parsed = cur.ParseBool(&entry.ok);
      } else if (key == "status") {
        parsed = cur.ParseString(&entry.status);
      } else if (key == "fingerprint") {
        std::string hex;
        parsed = cur.ParseString(&hex) &&
                 FingerprintFromHex(hex, &entry.fingerprint);
      } else if (key == "stage_us") {
        parsed = cur.Consume('{');
        if (parsed && !cur.Consume('}')) {
          for (;;) {
            std::string stage;
            int64_t us = 0;
            if (!cur.ParseString(&stage) || !cur.Consume(':') ||
                !cur.ParseInt(&us)) {
              parsed = false;
              break;
            }
            entry.stage_us.emplace_back(std::move(stage), us);
            if (cur.Consume('}')) break;
            if (!cur.Consume(',')) {
              parsed = false;
              break;
            }
          }
        }
      } else if (key == "suggestions") {
        parsed = cur.Consume('[');
        if (parsed && !cur.Consume(']')) {
          for (;;) {
            std::string q;
            if (!cur.ParseString(&q)) {
              parsed = false;
              break;
            }
            entry.suggestions.push_back(std::move(q));
            if (cur.Consume(']')) break;
            if (!cur.Consume(',')) {
              parsed = false;
              break;
            }
          }
        }
      } else {
        parsed = cur.SkipValue();
      }
      if (!parsed) return malformed();
      if (cur.Consume('}')) break;
      if (!cur.Consume(',')) return malformed();
    }
  }
  cur.SkipWs();
  if (!cur.AtEnd()) return malformed();
  return entry;
}

StatusOr<std::vector<RequestLogEntry>> ReadRequestLog(const std::string& path,
                                                      size_t max_entries) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open request log: " + path);
  }
  std::vector<RequestLogEntry> entries;
  std::string line;
  char buf[4096];
  auto consume_line = [&] {
    if (line.empty()) return;
    StatusOr<RequestLogEntry> parsed = ParseRequestLogEntry(line);
    line.clear();
    if (parsed.ok()) entries.push_back(std::move(*parsed));
  };
  while (std::fgets(buf, sizeof(buf), file) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      consume_line();
    }
  }
  consume_line();  // last line without trailing newline
  std::fclose(file);
  if (max_entries > 0 && entries.size() > max_entries) {
    entries.erase(entries.begin(),
                  entries.end() - static_cast<ptrdiff_t>(max_entries));
  }
  return entries;
}

}  // namespace pqsda::obs
