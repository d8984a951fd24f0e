// The on-demand query engine (paper §5.1 "An Engine per Query").
//
// The JitExecutor traverses a physical plan once, post-order, and emits
// LLVM IR — scans become loops, selections become branches, pipelined
// operators fuse into their parent's loop body, and blocking operators
// (radix-join build, nest) split the emission into consecutive pipelines.
// Field values live in virtual buffers (allocas) that LLVM's mem2reg
// promotes to CPU registers. The module is then optimized, compiled to
// machine code and linked on the process-wide jit::JitSession
// (src/jit/jit_session.h) within milliseconds, and run: one shared ORC
// session, one JITDylib per module (freed with the module), and a tier that
// only picks the pass pipeline and the target machine — tier 1's machine
// sized to the records the plan scans (Tier1CodegenLevel).
//
// Morsel-parallelizable plans compile to *range-parameterized* pipelines:
// proteus_build(ctx) runs shared join builds once, then the scheduler
// drives proteus_pipeline(ctx, sink, morsel_begin, morsel_end) — one call
// per morsel of the plug-in Split() decomposition, each feeding a private
// partial sink (partial_sink.h) — and the partials merge in global morsel
// order through the same fold the interpreter uses. Results are therefore
// cell-identical for every thread count and across engines; num_threads is
// purely a performance knob even with codegen on. A Nest compiles only
// directly under the root Reduce — the one place the front end puts it — and
// plans with a Nest anywhere else run on the interpreter.
//
// Compiled code is position-independent (src/jit/query_cache.h): data
// pointers, relation sizes, and plug-in addresses live in a per-execution
// parameter table, not the instruction stream, so a module compiled once can
// be cached by plan signature and re-run — across executions, threads, and
// shards — after a cheap re-bind. When ExecContext::jit_cache is set, the
// executor looks modules up there before compiling (concurrent lookups of
// one signature single-flight), and last_cache_hit()/last_compile_ms()
// report how the plan was served.
//
// Outer joins compile too (morsel mode): probe pipelines set per-morsel
// matched-build bitmaps through their partial sink, and one generated
// proteus_drain<k> function per outer chain join runs once after all probe
// morsels report, emitting the unmatched build rows (probe side bound to
// SQL null) through the ops above the join into trailing partial slots —
// the interpreter's exact drain frame. Outer unnests emit a null-element
// branch, and set-monoid roots emit through the collection sink whose kSet
// Aggregator deduplicates per morsel before the morsel-order merge. Join
// keys read from JSON carry a generated presence check so null keys never
// match, mirroring the interpreter's null-key rule on both build and probe
// sides.
//
// Join tables come in two bucket layouts — shared (one clustered array) and
// radix-partitioned (per-partition sub-tables with partition-local
// directories) — selected per join by the optimizer's skew-aware strategy
// pass (see docs/JOINS.md). Both produce identical probe chain orders, so
// the choice is invisible to results; it is baked into the compiled module
// and therefore part of the query-cache key. Non-equi joins compile to a
// nested loop over the frozen build rows (the interpreter's exact match
// enumeration). Group-bys fold each grouped row into a typed group table
// (one upsert call per row, inline accumulator arithmetic) whose keys
// compare by the interpreter's Value::Equals rules — float keys and the
// null key included — and each distinct group is boxed into the morsel's
// GroupTable partial once per morsel.
//
// Plans using features still outside the generated fast path (non-integer
// equi-join keys, outer joins off the pipeline chain, a Nest that is not the
// root Reduce's child, collection or boolean monoids inside Nest, deep paths
// inside array elements) return
// Unimplemented — every violation in the plan is reported, semicolon-joined
// — and the QueryEngine facade transparently falls back to the
// (morsel-parallel) interpreter — recording the failed attempt's compile
// time honestly. tests/test_jit_equiv.cpp is the differential harness
// asserting JIT ≡ interpreter, cell for cell, on everything the JIT
// accepts.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/algebra/algebra.h"
#include "src/engine/interp.h"
#include "src/engine/result.h"
#include "src/jit/query_cache.h"

namespace proteus {

namespace jit {

/// Cache key of `plan` under the engine state in `ctx` — exactly the key
/// JitExecutor uses for its compiled-query-cache lookups, exposed so the
/// tiered controller can probe (TryGet), read hit counts, and Promote behind
/// the same key.
QueryCacheKey MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan, CodegenMode mode);

/// Scanned records below which tier 1 compiles on a CodeGenOpt::None target
/// machine (FastISel, fast register allocator) instead of CodeGenOpt::Default:
/// the compile is cheaper, the code it makes a little slower, and only a
/// small scan gives back less than the compile saves.
///
/// Measured on a 4-vCPU Xeon VM (LLVM 14, Release, 4 worker threads), warm
/// morsel pipelines over a 64 Ki-record JSON file, medians of 31 alternating
/// runs: a filtered count/sum/max compiles in 2.2-2.5 ms at None against
/// 5.4-6.2 ms at Default, and runs in 1.09 ms against 0.96 ms (+12%); a
/// 365-group GROUP BY compiles in 2.2 against 5.0-5.3 ms and runs within
/// 1-3%. At 256 Ki records the scan runs 3.99 against 3.55 ms. So None saves
/// about 3.3 ms per compile and costs about 0.12 ms per 64 Ki records on
/// every run: at this cutoff the saving covers about 28 runs of the plan.
/// Above it the per-run cost grows with the records while the saving stays
/// flat, and a cached module is rerun many times.
constexpr uint64_t kTier1FastCodegenRecords = uint64_t{1} << 16;

/// Tier 1's codegen level for a plan whose scan sources hold
/// `scanned_records` records in total: kNone below kTier1FastCodegenRecords,
/// else kDefault. A pure function of the records, which change only with
/// the catalog epoch — part of the cache key — so a cached module's level
/// is always the one a fresh compile would pick.
CodegenLevel Tier1CodegenLevel(uint64_t scanned_records);

/// Compiles `plan` to a ready CompiledModule without consulting any cache,
/// on the shared jit::JitSession. `tier` selects the pass pipeline: 1 = the
/// fixed lean function-pass list, codegen'd at Tier1CodegenLevel of the
/// records the plan scans (what every foreground path and the tiered
/// controller's first compile use); 2 = O3 on a CodeGenOpt::Aggressive
/// machine — the background recompile the tiered controller requests once a
/// signature proves hot. `level`, when set, pins the codegen level instead
/// (it must belong to `tier`), so tests can run one plan at every level.
/// Collects the plan's pipeline chain itself; returns Unimplemented for plans
/// outside the generated fast path and for any mode but kMorsel.
Result<std::shared_ptr<const CompiledModule>> CompilePlan(
    const ExecContext& ctx, const OpPtr& plan, CodegenMode mode, int tier,
    std::optional<CodegenLevel> level = std::nullopt);

}  // namespace jit

class JitExecutor {
 public:
  explicit JitExecutor(ExecContext ctx) : ctx_(ctx) {}

  /// ExecuteParallel without stats.
  Result<QueryResult> Execute(const OpPtr& plan);

  /// Morsel-parallel execution: compiles the plan's pipelines with a
  /// (morsel_begin, morsel_end) range parameter, runs shared join builds
  /// once, drives the pipeline function over the plug-in Split() morsel
  /// decomposition via ctx.scheduler (per-morsel partial sinks), and merges
  /// the partials in global morsel order through FinalizePlanPartials — the
  /// same decomposition and fold the interpreter uses, so results are
  /// cell-identical (float bits included) for every thread count, to the
  /// interpreter, and across engines. Used for all thread counts (1
  /// included): one morsel frame means the thread count can never change the
  /// fold shape. Returns Unimplemented for plans (or features) outside the
  /// generated fast path; callers fall back to the interpreter.
  Result<QueryResult> ExecuteParallel(const OpPtr& plan, InterpExecutor::ExecStats* stats);

  /// Shard-side execution: runs only morsels [morsel_begin, morsel_end) of
  /// the global decomposition and returns their per-morsel partial sinks —
  /// the JIT counterpart of InterpExecutor::ExecutePartials, producing
  /// bit-identical partials, so shards can mix engines freely.
  Result<PlanPartials> ExecutePartials(const OpPtr& plan, uint64_t morsel_begin,
                                       uint64_t morsel_end);

  /// Tiered hot-swap entry: like ExecutePartials, but runs a module the
  /// background compiler already produced — no cache lookup and no compile
  /// on this thread, which is what makes the swap a morsel-boundary O(bind)
  /// operation. The module must have been compiled in morsel mode for an
  /// identical plan signature.
  Result<PlanPartials> ExecutePartialsPrecompiled(
      const OpPtr& plan, std::shared_ptr<const jit::CompiledModule> module,
      uint64_t morsel_begin, uint64_t morsel_end);

  /// Milliseconds spent generating + compiling IR for the last query. 0 when
  /// the compiled-query cache (ExecContext::jit_cache) served the plan — a
  /// cache hit performs no IR generation or compilation at all, only
  /// parameter binding.
  double last_compile_ms() const { return last_compile_ms_; }
  /// Whether the last query was served by the compiled-query cache.
  bool last_cache_hit() const { return last_cache_hit_; }
  /// The LLVM IR of the last query (before optimization), for inspection.
  /// A reference into the retained module — no per-execution copy, so warm
  /// runs (and shard executors) don't pay O(IR size) per query.
  const std::string& last_ir() const;
  /// The module the last execution ran (null before any run). Surfaces the
  /// served tier to telemetry.
  std::shared_ptr<const jit::CompiledModule> last_module() const { return last_module_; }

 private:
  /// Resolves the plan to a ready CompiledModule: through the shared
  /// signature-keyed cache when ExecContext::jit_cache is set (concurrent
  /// misses single-flight — one thread compiles, the rest wait and share),
  /// else by compiling directly.
  Result<std::shared_ptr<const jit::CompiledModule>> GetOrCompileModule(
      const OpPtr& plan, const MorselPipeline& pipe);
  /// `premodule`, when set, skips module resolution entirely (the tiered
  /// swap path: the background thread compiled it already).
  Result<PlanPartials> RunMorselPipelines(const OpPtr& plan, uint64_t morsel_begin,
                                          uint64_t morsel_end, bool whole_plan,
                                          InterpExecutor::ExecStats* stats,
                                          std::shared_ptr<const jit::CompiledModule> premodule);

  ExecContext ctx_;
  double last_compile_ms_ = 0;
  bool last_cache_hit_ = false;
  /// The last module run, kept alive so last_ir() can reference its IR.
  std::shared_ptr<const jit::CompiledModule> last_module_;
};

}  // namespace proteus
