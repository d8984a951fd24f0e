// The Proteus query server: N remote callers, one shared engine.
//
// A thin serving shell over QueryEngine (docs/SERVING.md). The engine's
// reentrancy does the heavy lifting — every admitted query is a plain
// Execute() call with per-query CallOptions, so concurrent clients share the
// compiled-query cache, scan caches, tiered compiler, and the one
// process-wide TaskScheduler (queries interleave at morsel granularity
// instead of queueing whole-query). The server adds the parts a shared
// engine needs to face a network:
//
//   - a length-prefixed frame protocol over TCP loopback (src/serve/
//     protocol.h): query text in, rows + telemetry out, errors as status
//     frames — never a silently dropped query;
//   - admission control (src/serve/admission.h): bounded in-flight and
//     queue, overload answered with an explicit kRejected frame;
//   - cooperative cancellation: a kCancel frame flips the query's cancel
//     flag, execution stops at its next morsel boundary and answers with a
//     kCancelled frame carrying telemetry (cancelled = true).
//
// Threading: one accept thread; one reader thread per connection; one
// worker thread per in-flight query (the worker parks in the admission
// queue, not the reader — so cancels and new queries keep flowing while a
// query waits for a slot; the reader joins finished workers before it
// starts the next, so a long-lived connection does not accumulate them).
// Responses to one connection serialize on its write mutex; responses to
// different queries may arrive in any order, keyed by query_id.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/core/query_engine.h"
#include "src/serve/admission.h"
#include "src/serve/protocol.h"

namespace proteus::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// port() after Start()).
  uint16_t port = 0;
  AdmissionGate::Options admission;
};

class QueryServer {
 public:
  /// The engine must outlive the server. The server never mutates engine
  /// configuration — it only calls Execute() with per-query CallOptions.
  QueryServer(QueryEngine* engine, ServerOptions opts = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// Graceful shutdown: stops accepting, cancels every in-flight query
  /// (cooperatively — each stops at its next morsel boundary), wakes the
  /// admission queue with kClosed, and joins every thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  const AdmissionGate& admission() const { return gate_; }

  /// Query worker threads the server holds across all connections: running
  /// ones plus finished ones not yet joined. A connection's reader joins its
  /// finished workers before it starts the next one, so this stays near the
  /// number of queries in flight however long a connection lives.
  size_t worker_threads() const EXCLUDES(sessions_mu_);

 private:
  struct Session {
    int fd = -1;
    std::thread reader;
    Mutex write_mu;  ///< one response frame at a time per connection
    Mutex mu;        ///< guards cancels, workers and finished
    std::unordered_map<uint64_t, std::shared_ptr<std::atomic<bool>>> cancels
        GUARDED_BY(mu);
    /// Worker threads by spawn number (query ids may be reused once a query
    /// finishes, so they cannot key the threads).
    std::unordered_map<uint64_t, std::thread> workers GUARDED_BY(mu);
    uint64_t next_worker GUARDED_BY(mu) = 0;
    /// Spawn numbers of workers whose query is done, awaiting their join.
    std::vector<uint64_t> finished GUARDED_BY(mu);
  };

  void AcceptLoop();
  void SessionLoop(Session* s);
  /// Joins `s`'s finished workers (they have returned or are returning).
  static void ReapFinished(Session* s);
  void RunQuery(Session* s, uint64_t query_id, std::string text);
  static void SendFrame(Session* s, const Frame& f);

  QueryEngine* engine_;
  ServerOptions opts_;
  AdmissionGate gate_;
  /// Atomic because Stop() tears it down while the accept thread reads it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  mutable Mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_ GUARDED_BY(sessions_mu_);
};

}  // namespace proteus::serve
