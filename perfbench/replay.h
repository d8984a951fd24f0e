// Traced replay: runs one query through each layer's public functions, in
// the order QueryEngine::Execute runs them, on the engine's own catalog,
// plug-in registry, scheduler and compiled-query cache — with a
// benchmark-side span around every call:
//
//   query
//   ├─ parser     ParseQuery + Normalize + ToAlgebra
//   ├─ optimizer  Optimizer::Optimize
//   ├─ plugins    PluginRegistry::GetOrOpen per scanned dataset
//   │   └─ plugins.open   (only when the call opened: index + stats)
//   ├─ jit        CompiledQueryCache::GetOrCompile
//   │   └─ jit.compile    jit::CompilePlan (only on a miss)
//   └─ engine     JitExecutor::ExecuteParallel / Execute, or
//                 InterpExecutor::Execute when codegen is Unimplemented
//
// Timing the layers from outside is the point: the engine's own telemetry
// folds the cold plug-in open into its compile field, because code
// generation is what first touches a cold plug-in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/query_engine.h"

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;  ///< since the log's origin
  double end_ms = 0;
  int parent = -1;      ///< index into the log; -1 for a query root
  uint64_t qid = 0;
  std::string arg;      ///< query text, or the dataset a plugins.open span opened
};

/// In-memory span log of the replay, written as Chrome-trace JSON at exit.
class SpanLog {
 public:
  SpanLog();
  double NowMs() const;
  int Begin(std::string name, uint64_t qid, int parent);
  void End(int idx);
  void SetArg(int idx, std::string arg);
  /// Records a span whose bounds were taken with NowMs().
  int Add(std::string name, uint64_t qid, int parent, double start_ms, double end_ms,
          std::string arg);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name over spans [first, end): duration minus the
  /// part covered by child spans.
  std::map<std::string, double> SelfMs(size_t first) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

enum class Route { kJitMorsel, kJitWhole, kInterp };
const char* RouteName(Route r);
/// The route the engine reports through per-query telemetry.
Route RouteOf(const proteus::QueryTelemetry& tel);

struct ReplayOutcome {
  proteus::Result<proteus::QueryResult> result{proteus::Status::Internal("not run")};
  Route route = Route::kInterp;
  std::map<std::string, double> self_ms;  ///< per span name, this query
  double total_ms = 0;                    ///< the query span
  double open_ms = 0;                     ///< Σ plugins.open
  double compile_ms = 0;                  ///< jit.compile (0 on a hit)
  double engine_ms = 0;
  int opens = 0;
  uint64_t opened_bytes = 0;
  bool compiled = false;
  uint64_t rows_scanned = 0;  ///< records of every scanned dataset
};

/// Replays `text` as query `qid`. `bytes` maps dataset name to raw bytes on
/// disk (for the open throughput).
ReplayOutcome ReplayQuery(proteus::QueryEngine& engine, const std::string& text, uint64_t qid,
                          const std::map<std::string, uint64_t>& bytes, SpanLog* log);

/// The cache key the engine uses for `text` under the current catalog
/// state. Lets the traced run put the cache back into the state a measured
/// query found it in.
proteus::Result<proteus::jit::QueryCacheKey> CacheKeyOf(proteus::QueryEngine& engine,
                                                        const std::string& text);

}  // namespace perfbench
