// ShardCoordinator: partitioned scale-out execution over the Split() API.
//
// The plug-in Split() range API (PR 1) was designed so scan ranges can live
// on different machines; the coordinator is the next scaling rung after
// intra-node morsel parallelism. It decomposes an optimized physical plan's
// driver scan into the *global* morsel sequence (the same deterministic
// decomposition the single-node morsel executor uses), deals contiguous
// morsel slices to N ShardExecutors, and folds the per-morsel partials they
// ship back — through the serialized PartialResult wire format — in shard
// order, i.e. in global morsel order. Because every shard count folds the
// exact same per-morsel partials in the exact same order, query results are
// cell-identical (float bits included) for every num_shards by construction.
//
// Single-node today: shards run as threads against a LoopbackTransport. The
// boundary is already a real serialization boundary, so a socket transport
// plus remote executors is a drop-in, not a rewrite.
#pragma once

#include "src/engine/interp.h"
#include "src/shard/transport.h"

namespace proteus {

/// How a sharded query ran (surfaced as QueryTelemetry).
struct ShardExecStats {
  int shards_used = 0;          ///< executors that received a morsel slice
  uint64_t bytes_exchanged = 0; ///< serialized partial bytes through the transport
  int threads_per_shard = 1;    ///< morsel workers inside each shard
  uint64_t morsels = 0;         ///< global morsel count across all shards
  int jit_shards = 0;           ///< shards that ran generated (JIT) pipelines
  /// Compiled-query cache activity of this run (deltas of the shared
  /// cache's counters across the shard fan-out). Every ShardExecutor gets
  /// the coordinator's ExecContext — one cache for all shards — so for a
  /// cacheable plan jit_compiles is exactly 1 on a cold run (the other
  /// shards single-flight onto that compile: jit_cache_hits == shards - 1)
  /// and 0 on a warm one (jit_cache_hits == shards).
  uint64_t jit_compiles = 0;
  uint64_t jit_cache_hits = 0;
  double compile_ms = 0;  ///< wall ms shards spent compiling this run
  /// Tiered execution across the fan-out (zeros when tiered is off): shards
  /// that ran the tiered controller, summed interpreter/generated morsel
  /// counts, the highest tier any shard ran, and the slowest shard's swap /
  /// first-chunk latencies. Shards swap independently, so mixed states
  /// (one shard swapped, another finished on the interpreter) are normal.
  int tiered_shards = 0;
  uint64_t morsels_interpreted = 0;
  uint64_t morsels_jit = 0;
  int compile_tier = 0;
  double swap_ms = 0;
  double first_morsel_ms = 0;
  /// Every shard that ran generated code ran IR-verified modules
  /// (src/jit/ir_verifier.h). False when no shard ran JIT or when
  /// verification is off (EngineOptions::verify_ir).
  bool ir_verified = false;
  /// Work-stealing counters summed over every shard's private morsel pool
  /// (each ShardExecutor owns its scheduler, so these are per-run numbers).
  uint64_t tasks_dealt = 0;
  uint64_t steals = 0;
};

class ShardCoordinator {
 public:
  /// `base` supplies catalog/plug-ins/stats/caches (its scheduler is not
  /// used — each shard owns one). `num_shards` caps the fan-out; fewer run
  /// when the plan yields fewer morsels. `threads_per_shard` sizes each
  /// shard's morsel pool (shards × workers compose). With `use_jit`, shards
  /// run morsel-parameterized JIT pipelines where the plan supports them
  /// (stats->jit_shards reports how many did) — partials are bit-identical
  /// either way.
  ShardCoordinator(ExecContext base, int num_shards, int threads_per_shard,
                   bool use_jit = false);

  /// Executes `plan` (root = Reduce) across shards and merges their partial
  /// results deterministically in shard order.
  Result<QueryResult> Run(const OpPtr& plan, ShardTransport* transport,
                          ShardExecStats* stats);

 private:
  ExecContext base_;
  int num_shards_;
  int threads_per_shard_;
  bool use_jit_;
};

}  // namespace proteus
