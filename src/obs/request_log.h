#ifndef PQSDA_OBS_REQUEST_LOG_H_
#define PQSDA_OBS_REQUEST_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pqsda::obs {

/// Sizing and sampling policy of the structured request log.
struct RequestLogOptions {
  /// JSONL output path (appended; one object per line).
  std::string path;
  /// Head-based sampling: log every Nth request (1 = all, 0 = none except
  /// slow ones). The decision is made on arrival order, before anything is
  /// known about the request beyond its position in the stream, so the
  /// sample is unbiased by outcome.
  uint64_t sample_every = 32;
  /// Requests at or above this latency are always logged, regardless of the
  /// sampling decision — the slow tail is exactly what the log is for.
  int64_t slow_us = 100'000;
  /// Bounded hand-off queue to the writer thread. When serving outruns the
  /// disk, whole entries are dropped (never partially written) and counted
  /// in dropped() and `pqsda.reqlog.dropped_total` — the log degrades
  /// observably instead of back-pressuring the request path. 0 means the
  /// queue is always full: every accepted entry is counted as dropped,
  /// which keeps the accounting contract exercisable without disk I/O.
  size_t queue_capacity = 4096;
  /// Size-based rotation: once the active file reaches this many bytes the
  /// writer closes it and shifts path -> path.1 -> ... -> path.N (oldest
  /// dropped). 0 disables rotation. Rotation happens on the writer thread
  /// between whole lines, so no entry is ever split across files and the
  /// written/dropped accounting is untouched.
  size_t rotate_bytes = 0;
  /// How many rotated files to keep (path.1 .. path.N); 0 with rotation
  /// enabled discards the full file instead of renaming it.
  size_t max_rotated_files = 3;
};

/// One serving request as recorded in the log. `stage_us` carries the wall
/// time of every stage the request ran, under its ProfileStageName;
/// `suggestions` holds the returned queries, best first.
///
/// The entry carries everything needed to re-execute the request
/// deterministically (`suggest_cli replay` / PqsdaEngine::Replay): the full
/// input (query, timestamp, context, user, k), the snapshot `generation` the
/// request pinned, the degradation `rung` it was served at, and the result
/// `fingerprint` (FNV-1a 64 over the served queries + score bit patterns,
/// see obs::Fingerprint64) that replay must reproduce bitwise.
struct RequestLogEntry {
  uint64_t request_id = 0;
  uint32_t user = 0;
  std::string query;
  size_t k = 0;
  /// Request timestamp and session context (Definition 2), verbatim from
  /// the SuggestionRequest — replay inputs.
  int64_t timestamp = 0;
  std::vector<std::pair<std::string, int64_t>> context;
  /// Index generation pinned at admission.
  uint64_t generation = 0;
  /// DegradationRung numeric value chosen at admission.
  size_t rung = 0;
  int64_t total_us = 0;
  bool cache_hit = false;
  bool ok = true;
  std::string status;  // "" when ok
  /// Result fingerprint; 0 for failed requests.
  uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, int64_t>> stage_us;
  std::vector<std::string> suggestions;
};

/// Parses one JSONL line as rendered by RequestLog::ToJson back into an
/// entry (the reader half of the log schema, used by replay and the
/// round-trip test). Unknown keys are skipped, so newer writers stay
/// readable; malformed lines return InvalidArgument.
StatusOr<RequestLogEntry> ParseRequestLogEntry(const std::string& line);

/// Reads a JSONL request log back, newest `max_entries` parseable entries in
/// file order (0 = all). Malformed lines are skipped — a log truncated by a
/// crash or mid-rotation still yields its good prefix. IoError when the file
/// can't be opened; an empty file yields an empty vector. Used by the
/// post-swap cache warmup and by tests that hand-write logs via
/// RequestLog::ToJson.
StatusOr<std::vector<RequestLogEntry>> ReadRequestLog(const std::string& path,
                                                      size_t max_entries);

/// Sampled structured JSONL request logging with an asynchronous writer:
/// Log() classifies the entry (sampled / slow / skipped), enqueues accepted
/// entries onto a bounded queue, and a background thread renders + appends
/// them. The request path never touches the filesystem.
///
/// Accounting contract (verified by telemetry_test): after Flush(),
///   written() + dropped() == accepted()
/// where accepted() counts entries that passed the sampling/slow policy.
/// seen() additionally counts the requests the policy skipped.
class RequestLog {
 public:
  /// Opens `options.path` for append. IoError when the file can't be opened.
  static StatusOr<std::unique_ptr<RequestLog>> Open(RequestLogOptions options);

  ~RequestLog();  // drains the queue, then joins the writer

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  /// Applies the sampling policy and enqueues the entry if it is selected.
  /// Returns true when the entry was accepted (queued or dropped-on-full),
  /// false when the policy skipped it.
  bool Log(RequestLogEntry entry);
  /// Log in two steps, so a caller builds an entry only for the requests
  /// the policy selects: Admit applies the policy to a request of
  /// `total_us`, and an admitted entry must then be handed to Enqueue.
  bool Admit(int64_t total_us);
  void Enqueue(RequestLogEntry entry);

  /// Blocks until every accepted entry has been written (or counted as
  /// dropped) and the file is flushed.
  void Flush();

  uint64_t seen() const { return seen_.load(std::memory_order_relaxed); }
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t written() const { return written_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Completed size-based rotations (see RequestLogOptions::rotate_bytes).
  uint64_t rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }

  const RequestLogOptions& options() const { return options_; }

  /// The JSONL rendering of one entry (no trailing newline); exposed so
  /// tests can assert the schema.
  static std::string ToJson(const RequestLogEntry& entry);

 private:
  explicit RequestLog(RequestLogOptions options, std::FILE* file,
                      size_t initial_bytes);

  void WriterLoop();
  /// Writer-thread only: closes the active file, shifts the rotated chain,
  /// reopens a fresh active file. On reopen failure file_ goes null and
  /// subsequent entries are counted as dropped (the accounting contract
  /// holds; the log degrades observably, like a full queue).
  void Rotate();

  RequestLogOptions options_;
  /// Guards file_ against Flush observing a mid-rotation swap; held by the
  /// writer around each write+rotate and by Flush around fflush.
  std::mutex file_mu_;
  std::FILE* file_;
  size_t active_bytes_ = 0;  // writer-thread only

  std::atomic<uint64_t> seq_{0};  // arrival order, drives head sampling
  std::atomic<uint64_t> seen_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> rotations_{0};

  std::mutex mu_;
  std::condition_variable cv_;        // writer wakeup
  std::condition_variable drained_;   // Flush/destructor wakeup
  std::deque<RequestLogEntry> queue_;
  bool writing_ = false;  // writer holds an entry outside the queue
  bool stop_ = false;
  std::thread writer_;
};

}  // namespace pqsda::obs

#endif  // PQSDA_OBS_REQUEST_LOG_H_
