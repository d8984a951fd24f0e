// Compiled-query cache: hit/miss/evict unit behavior, single-flight under
// concurrency, engine-level telemetry (repeat executions of one plan must
// hit; structurally different plans must miss), epoch invalidation after
// catalog / caching-manager mutation, shard sharing (N shards -> exactly one
// compile), and cell-identity of cached vs freshly compiled executions
// across num_threads and num_shards in {1, 2, 4}. The JitSession suite pins
// the machine-code lifecycle on the process-wide JIT session: live modules
// follow the cache, handles outlive engines, engines compile concurrently,
// and tier 2 really codegens on the aggressive target machine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/jit/jit_engine.h"
#include "src/jit/jit_session.h"
#include "src/jit/query_cache.h"
#include "src/jit/tiered_compiler.h"
#include "src/optimizer/optimizer.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row corpus splits into enough ranges for every
// shard count in {1, 2, 4} to actually fan out.
constexpr uint64_t kMorselRows = 16;

jit::QueryCacheKey Key(const std::string& sig, jit::CodegenMode mode = jit::CodegenMode::kMorsel,
                       uint64_t catalog_epoch = 0, uint64_t cache_epoch = 0) {
  return jit::QueryCacheKey{sig, mode, /*join_strategies=*/"", catalog_epoch, cache_epoch};
}

jit::CompiledQueryCache::CompileFn DummyCompile(std::atomic<int>* count) {
  return [count]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
    count->fetch_add(1);
    return std::make_shared<const jit::CompiledModule>();
  };
}

// ---------------------------------------------------------------------------
// Unit tests against the cache itself
// ---------------------------------------------------------------------------

TEST(CompiledQueryCacheUnit, HitMissAndLruEviction) {
  jit::CompiledQueryCache cache(/*capacity=*/2);
  std::atomic<int> compiles{0};
  bool hit = true;

  auto a = cache.GetOrCompile(Key("a"), DummyCompile(&compiles), &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(hit);
  auto b = cache.GetOrCompile(Key("b"), DummyCompile(&compiles), &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(compiles.load(), 2);

  // Hit returns the same module without compiling.
  auto a2 = cache.GetOrCompile(Key("a"), DummyCompile(&compiles), &hit);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(a2->get(), a->get());
  EXPECT_EQ(compiles.load(), 2);

  // Capacity 2: inserting "c" evicts the least recently used entry — "b",
  // because the hit above refreshed "a".
  ASSERT_TRUE(cache.GetOrCompile(Key("c"), DummyCompile(&compiles), &hit).ok());
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrCompile(Key("a"), DummyCompile(&compiles), &hit).ok());
  EXPECT_TRUE(hit) << "recently used entry must survive the eviction";
  ASSERT_TRUE(cache.GetOrCompile(Key("b"), DummyCompile(&compiles), &hit).ok());
  EXPECT_FALSE(hit) << "LRU entry must have been evicted";

  auto stats = cache.stats();
  EXPECT_EQ(stats.compiles, 4u);  // a, b, c, b-again
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(CompiledQueryCacheUnit, ModeAndEpochsPartitionTheKeySpace) {
  jit::CompiledQueryCache cache(8);
  std::atomic<int> compiles{0};
  bool hit = false;
  // Same signature, four distinct keys: mode, catalog epoch, cache epoch.
  ASSERT_TRUE(cache.GetOrCompile(Key("s"), DummyCompile(&compiles), &hit).ok());
  ASSERT_TRUE(cache
                  .GetOrCompile(Key("s", jit::CodegenMode::kWholeRelation),
                                DummyCompile(&compiles), &hit)
                  .ok());
  ASSERT_TRUE(
      cache.GetOrCompile(Key("s", jit::CodegenMode::kMorsel, 1), DummyCompile(&compiles), &hit)
          .ok());
  ASSERT_TRUE(cache
                  .GetOrCompile(Key("s", jit::CodegenMode::kMorsel, 0, 1),
                                DummyCompile(&compiles), &hit)
                  .ok());
  EXPECT_EQ(compiles.load(), 4);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(CompiledQueryCacheUnit, FailedCompilesAreNotCached) {
  jit::CompiledQueryCache cache(4);
  std::atomic<int> attempts{0};
  bool hit = true;
  auto fail = [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
    attempts.fetch_add(1);
    return Status::Unimplemented("outside the generated fast path");
  };
  auto r1 = cache.GetOrCompile(Key("f"), fail, &hit);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);
  // The failure was not pinned: a later lookup retries (and can succeed).
  auto r2 = cache.GetOrCompile(Key("f"), fail, &hit);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(attempts.load(), 2);
  std::atomic<int> compiles{0};
  ASSERT_TRUE(cache.GetOrCompile(Key("f"), DummyCompile(&compiles), &hit).ok());
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(cache.stats().compiles, 1u);
}

// Fixed-seed concurrent-lookup single-flight: many threads ask for one key
// at once; exactly one compiles (the compile fn sleeps so the others really
// do arrive mid-flight), everyone shares the same module. TSan-clean.
TEST(CompiledQueryCacheUnit, SingleFlightConcurrentLookups) {
  constexpr int kThreads = 8;
  jit::CompiledQueryCache cache(4);
  std::atomic<int> compiles{0};
  std::atomic<int> hits{0};
  std::atomic<int> failures{0};
  std::vector<std::shared_ptr<const jit::CompiledModule>> modules(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        bool hit = false;
        auto r = cache.GetOrCompile(
            Key("concurrent"),
            [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
              compiles.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::milliseconds(25));
              return std::make_shared<const jit::CompiledModule>();
            },
            &hit);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        modules[i] = *r;
        if (hit) hits.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(compiles.load(), 1) << "concurrent misses must single-flight";
  EXPECT_EQ(hits.load(), kThreads - 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(modules[i].get(), modules[0].get()) << "thread " << i;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

// ---------------------------------------------------------------------------
// Engine-level behavior
// ---------------------------------------------------------------------------

QueryEngine MakeEngine(int threads = 1, int shards = 0, size_t cache_capacity = 32,
                       bool enable_caching = false) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.morsel_rows = kMorselRows;
  opts.jit_cache_capacity = cache_capacity;
  opts.cache_policy.enabled = enable_caching;
  // Keep the optimizer's input stable across executions: cold-access stats
  // collected by the first run can legally change the second run's join
  // order — a *different* plan signature, which would be a correct miss but
  // make hit/miss assertions about "the same plan" meaningless.
  opts.collect_stats_on_cold_access = false;
  return QueryEngine(std::move(opts));
}

/// Runs `q`, expecting success; `tel` (optional) receives its telemetry.
QueryResult MustRun(QueryEngine* e, const std::string& q, QueryTelemetry* tel = nullptr) {
  testutil::QueryRun run = testutil::RunQuery(e, q);
  EXPECT_TRUE(run.result.ok()) << q << "\n" << run.result.status().ToString();
  if (tel != nullptr) *tel = run.tel;
  return run.result.ok() ? std::move(*run.result) : QueryResult{};
}

/// Cell-for-cell equality: same columns, same row order, exact values
/// (float bits included — Value::Equals compares doubles exactly).
void ExpectIdentical(const QueryResult& a, const QueryResult& b, const std::string& ctx) {
  ASSERT_EQ(a.columns, b.columns) << ctx;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << ctx;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << ctx << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_TRUE(a.rows[r][c].Equals(b.rows[r][c]))
          << ctx << " row " << r << " col " << c << ": " << a.rows[r][c].ToString()
          << " vs " << b.rows[r][c].ToString();
    }
  }
}

const char* kAggQuery =
    "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_bincol "
    "WHERE l_orderkey < 30";
const char* kGroupQuery =
    "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_json "
    "GROUP BY l_linenumber";
const char* kJoinQuery =
    "SELECT count(*), max(o.o_totalprice) FROM orders_bincol o JOIN lineitem_bincol l "
    "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 30";
const char* kUnnestQuery =
    "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l WHERE l.l_quantity > 10.0";

// Telemetry regression: re-executing one plan must report a cache hit with
// zero compile cost and an unchanged compile counter; a structurally
// different plan must miss.
TEST(QueryCacheEngine, RepeatExecutionHitsAndDifferentPlanMisses) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  ASSERT_NE(engine.jit_cache(), nullptr);

  QueryTelemetry tel;
  QueryResult first = MustRun(&engine, kAggQuery, &tel);
  ASSERT_TRUE(tel.used_jit);
  EXPECT_FALSE(tel.jit_cache_hit);
  EXPECT_GT(tel.compile_ms, 0.0);
  const uint64_t compiles_after_first = engine.jit_cache()->stats().compiles;
  EXPECT_EQ(compiles_after_first, 1u);

  testutil::QueryRun second = testutil::RunQuery(&engine, kAggQuery);
  ASSERT_TRUE(second.result.ok()) << second.result.status().ToString();
  ASSERT_TRUE(second.tel.used_jit);
  EXPECT_TRUE(second.tel.jit_cache_hit);
  EXPECT_EQ(second.tel.compile_ms, 0.0)
      << "a warm execution must perform zero IR generation/compilation";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_after_first)
      << "compile counter must not move on a warm run";
  ExpectIdentical(first, *second.result, "cached vs fresh execution");
  EXPECT_FALSE(second.ir.empty()) << "hits still expose the module's IR";

  // Different signature -> miss (and the old entry stays warm).
  MustRun(&engine, kGroupQuery, &tel);
  EXPECT_FALSE(tel.jit_cache_hit);
  EXPECT_GT(tel.compile_ms, 0.0);
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_after_first + 1);
  MustRun(&engine, kAggQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit);
}

// Cached re-executions are cell-identical to a fresh compile, for every
// plan shape the generated fast path covers, across num_threads {1, 2, 4}.
TEST(QueryCacheEngine, CachedVsFreshCellIdenticalAcrossThreads) {
  for (const char* query : {kAggQuery, kGroupQuery, kJoinQuery, kUnnestQuery}) {
    // Reference: cache disabled — every execution compiles fresh.
    QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0);
    testutil::RegisterAll(&fresh);
    ASSERT_EQ(fresh.jit_cache(), nullptr);
    QueryTelemetry tel;
    QueryResult reference = MustRun(&fresh, query, &tel);
    ASSERT_TRUE(tel.used_jit) << query;

    for (int threads : {1, 2, 4}) {
      QueryEngine engine = MakeEngine(threads);
      testutil::RegisterAll(&engine);
      QueryResult cold = MustRun(&engine, query, &tel);
      EXPECT_FALSE(tel.jit_cache_hit);
      QueryResult warm = MustRun(&engine, query, &tel);
      EXPECT_TRUE(tel.jit_cache_hit) << query;
      std::string ctx = std::string(query) + " threads=" + std::to_string(threads);
      ExpectIdentical(reference, cold, ctx + " cold");
      ExpectIdentical(reference, warm, ctx + " warm");
    }
  }
}

// The per-shard recompile is fixed: every ShardExecutor shares the engine's
// cache, so N shards of one plan trigger exactly one compile (cold) and
// zero (warm) — ShardExecStats deltas surface through the cache stats here.
TEST(QueryCacheEngine, ShardsShareOneCompile) {
  // JSON driver: its byte-balanced Split() honors the small morsel_rows, so
  // every shard count actually fans out (bincol morsels snap to 1024-row
  // blocks, which would collapse this corpus to a single shard).
  const char* query =
      "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_json "
      "WHERE l_orderkey < 30";
  QueryEngine reference_engine = MakeEngine();
  testutil::RegisterAll(&reference_engine);
  QueryResult reference = MustRun(&reference_engine, query);

  for (int shards : {1, 2, 4}) {
    QueryEngine engine = MakeEngine(/*threads=*/1, shards);
    testutil::RegisterAll(&engine);
    QueryTelemetry tel;
    QueryResult cold = MustRun(&engine, query, &tel);
    ASSERT_EQ(tel.shards_used, shards);
    ASSERT_TRUE(tel.used_jit);
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u)
        << shards << " shards must trigger exactly one compile";
    EXPECT_FALSE(tel.jit_cache_hit);

    QueryResult warm = MustRun(&engine, query, &tel);
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);
    EXPECT_TRUE(tel.jit_cache_hit) << "warm sharded run must be served entirely from the cache";
    EXPECT_EQ(tel.compile_ms, 0.0);

    std::string ctx = "shards=" + std::to_string(shards);
    ExpectIdentical(reference, cold, ctx + " cold");
    ExpectIdentical(reference, warm, ctx + " warm");
  }
}

// Epoch invalidation: catalog mutations retire compiled modules.
TEST(QueryCacheEngine, CatalogMutationInvalidates) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  QueryResult before = MustRun(&engine, kAggQuery);
  QueryTelemetry tel;
  MustRun(&engine, kAggQuery, &tel);
  ASSERT_TRUE(tel.jit_cache_hit);
  ASSERT_EQ(engine.jit_cache()->stats().compiles, 1u);

  // Registering any dataset bumps the catalog epoch: the module was built
  // against schema-derived constants of the old catalog generation.
  DatasetInfo extra;
  extra.name = "spam_extra";
  extra.format = DataFormat::kJSON;
  extra.path = testutil::Corpus::Get().dir + "/spam.json";
  extra.type = datagen::SpamJSONSchema();
  ASSERT_TRUE(engine.RegisterDataset(extra).ok());

  QueryResult after = MustRun(&engine, kAggQuery, &tel);
  EXPECT_FALSE(tel.jit_cache_hit) << "catalog mutation must invalidate";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 2u);
  ExpectIdentical(before, after, "recompiled after catalog mutation");

  // InvalidateDataset (drop-and-rebuild update story) also retires modules —
  // the plug-in is evicted, so data pointers and structural indexes change.
  MustRun(&engine, kAggQuery, &tel);
  ASSERT_TRUE(tel.jit_cache_hit);
  engine.InvalidateDataset("lineitem_bincol");
  QueryResult reloaded = MustRun(&engine, kAggQuery, &tel);
  EXPECT_FALSE(tel.jit_cache_hit) << "dataset invalidation must invalidate";
  ExpectIdentical(before, reloaded, "recompiled after dataset invalidation");
}

// Epoch invalidation: CachingManager mutations retire compiled modules, and
// plans rewritten onto cache scans hit on re-execution (their cache-block
// pointers are bound per run, not baked).
TEST(QueryCacheEngine, CachingManagerMutationInvalidates) {
  // Reference: the same caching pipeline with the compiled-query cache
  // disabled, so every run compiles fresh. (A non-caching engine is not a
  // valid bit-level reference here: CacheScan morsels split differently from
  // raw JSON scans, so partial sums fold in a different order.)
  QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0,
                                 /*enable_caching=*/true);
  testutil::RegisterAll(&fresh);
  QueryTelemetry tel;
  QueryResult reference = MustRun(&fresh, kGroupQuery, &tel);
  ASSERT_TRUE(tel.used_cache);

  QueryEngine engine = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/32,
                                  /*enable_caching=*/true);
  testutil::RegisterAll(&engine);
  // First run: builds the scan cache (Install bumps the cache epoch), then
  // compiles the rewritten plan.
  QueryResult cold = MustRun(&engine, kGroupQuery, &tel);
  ASSERT_TRUE(tel.used_cache);
  ASSERT_TRUE(tel.used_jit);
  EXPECT_FALSE(tel.jit_cache_hit);
  const uint64_t compiles_cold = engine.jit_cache()->stats().compiles;

  // Second run: same rewrite, no new installs -> warm.
  QueryResult warm = MustRun(&engine, kGroupQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit) << "cache-scan plans must be reusable across executions";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_cold);
  ExpectIdentical(reference, cold, "caching engine cold");
  ExpectIdentical(reference, warm, "caching engine warm");

  // Mutating the caching manager retires the module; the rebuilt cache gets
  // a new block id, so the re-run compiles a fresh (re-rewritten) plan.
  engine.caches().InvalidateDataset("lineitem_json");
  QueryResult rebuilt = MustRun(&engine, kGroupQuery, &tel);
  EXPECT_FALSE(tel.jit_cache_hit) << "caching-manager mutation must invalidate";
  EXPECT_GT(engine.jit_cache()->stats().compiles, compiles_cold);
  ExpectIdentical(reference, rebuilt, "caching engine rebuilt");
}

// ---------------------------------------------------------------------------
// Machine-code lifecycle on the process-wide JIT session
// ---------------------------------------------------------------------------

/// A distinct plan signature per `n`: the literal is part of the signature.
std::string DriftQuery(int n) {
  return "SELECT count(*), sum(l_extendedprice) FROM lineitem_bincol WHERE l_orderkey < " +
         std::to_string(n);
}

OpPtr ScanReducePlan(QueryEngine& engine) {
  OpPtr scan = Operator::Scan("lineitem_json", "l");
  OpPtr plan = Operator::Reduce(
      scan, {{Monoid::kCount, nullptr, "n"},
             {Monoid::kMax, Expr::Proj(Expr::Var("l"), "l_quantity"), "m"}});
  EXPECT_TRUE(Optimizer(engine.catalog()).TypeCheckPlan(plan).ok());
  return plan;
}

// Generated modules carry the host layout, so the pass pipeline optimizes
// under the layout codegen uses.
TEST(JitSession, ModulesCarryTheHostDataLayoutAndTriple) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  testutil::QueryRun run = testutil::RunQuery(&engine, kAggQuery);
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  ASSERT_TRUE(run.tel.used_jit);
  const std::string& ir = run.ir;
  EXPECT_NE(ir.find("target datalayout = \""), std::string::npos) << ir;
  EXPECT_NE(ir.find("target triple = \"" + jit::JitSession::Get().target_triple() + "\""),
            std::string::npos)
      << ir;
}

// Eviction frees machine code: past a small cache's capacity, the session
// holds exactly the cache's live entries, and nothing once the engine is gone.
TEST(JitSession, LiveModulesFollowTheCache) {
  jit::JitSession& session = jit::JitSession::Get();
  const int64_t baseline = session.live_modules();
  {
    QueryEngine engine = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/2);
    testutil::RegisterAll(&engine);
    for (int n = 10; n < 16; ++n) MustRun(&engine, DriftQuery(n));
    ASSERT_EQ(engine.jit_cache()->stats().compiles, 6u);
    EXPECT_EQ(engine.jit_cache()->stats().evictions, 4u);
    EXPECT_EQ(session.live_modules() - baseline,
              static_cast<int64_t>(engine.jit_cache()->size()));
  }
  EXPECT_EQ(session.live_modules(), baseline);
}

// A module is independent of the engine that compiled it: held past that
// engine's destruction, it still runs (bound to another engine's data) and
// then tears down cleanly.
TEST(JitSession, ModuleOutlivesItsEngine) {
  jit::JitSession& session = jit::JitSession::Get();
  const int64_t baseline = session.live_modules();
  std::shared_ptr<const jit::CompiledModule> held;
  QueryResult reference;
  OpPtr plan;
  {
    QueryEngine engine = MakeEngine();
    testutil::RegisterAll(&engine);
    plan = ScanReducePlan(engine);
    const ExecContext ctx = testutil::ContextOf(&engine);
    JitExecutor executor(ctx);
    auto r = executor.ExecuteParallel(plan, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(executor.last_cache_hit());
    reference = std::move(*r);
    held = engine.jit_cache()->TryGet(jit::MakeQueryCacheKey(ctx, plan, jit::CodegenMode::kMorsel));
    ASSERT_NE(held, nullptr);
    ASSERT_EQ(held, executor.last_module());
  }
  EXPECT_EQ(session.live_modules() - baseline, 1) << "the held module is the only one left";
  {
    QueryEngine engine = MakeEngine();
    testutil::RegisterAll(&engine);
    const ExecContext ctx = testutil::ContextOf(&engine);
    ASSERT_TRUE(engine.jit_cache()->Promote(
        jit::MakeQueryCacheKey(ctx, plan, jit::CodegenMode::kMorsel), held));
    JitExecutor executor(ctx);
    auto r = executor.ExecuteParallel(plan, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(executor.last_cache_hit());
    EXPECT_EQ(executor.last_module(), held) << "the outliving module must be what ran";
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 0u);
    ExpectIdentical(reference, *r, "module run after its engine's destruction");
  }
  EXPECT_EQ(session.live_modules() - baseline, 1);
  held.reset();
  EXPECT_EQ(session.live_modules(), baseline);
}

// Two engines compile different signatures at the same time through the
// one session: every result matches the interpreter's, cell for cell.
TEST(JitSession, ConcurrentEnginesCompileDifferentSignatures) {
  constexpr int kQueriesPerEngine = 6;
  std::vector<QueryResult> reference;
  {
    QueryEngine interp = MakeEngine();
    interp.set_mode(ExecMode::kInterp);
    testutil::RegisterAll(&interp);
    for (int i = 0; i < 2 * kQueriesPerEngine; ++i) {
      reference.push_back(MustRun(&interp, DriftQuery(10 + i)));
    }
  }
  const int64_t baseline = jit::JitSession::Get().live_modules();
  std::vector<QueryResult> got(reference.size());
  std::vector<int> jit_runs(2, 0);
  auto drive = [&](int engine_id) {
    QueryEngine engine = MakeEngine();
    testutil::RegisterAll(&engine);
    for (int q = 0; q < kQueriesPerEngine; ++q) {
      const int i = 2 * q + engine_id;  // the engines never share a signature
      QueryTelemetry tel;
      CallOptions call;
      call.telemetry = &tel;
      auto r = engine.Execute(DriftQuery(10 + i), call);
      if (r.ok()) got[i] = std::move(*r);
      if (tel.used_jit && !tel.jit_cache_hit) ++jit_runs[engine_id];
    }
  };
  std::thread a(drive, 0);
  std::thread b(drive, 1);
  a.join();
  b.join();
  EXPECT_EQ(jit_runs[0], kQueriesPerEngine);
  EXPECT_EQ(jit_runs[1], kQueriesPerEngine);
  for (size_t i = 0; i < reference.size(); ++i) {
    ExpectIdentical(reference[i], got[i], DriftQuery(10 + static_cast<int>(i)));
  }
  EXPECT_EQ(jit::JitSession::Get().live_modules(), baseline);
}

/// Registers `name`: a binary-column dataset of `rows` records (k = i).
void RegisterCounted(QueryEngine* engine, const std::string& name, int64_t rows) {
  const TypePtr type = Type::BagOfRecords({{"k", Type::Int64()}, {"v", Type::Float64()}});
  const std::string path = testutil::Corpus::Get().dir + "/" + name + ".bincol";
  if (!std::filesystem::exists(path)) {
    RowTable table(type->elem());
    for (int64_t i = 0; i < rows; ++i) {
      table.Append({Value::Int(i), Value::Float(0.5 * static_cast<double>(i % 7))});
    }
    ASSERT_TRUE(WriteBinaryColumnDir(path, table).ok()) << path;
  }
  DatasetInfo info;
  info.name = name;
  info.format = DataFormat::kBinaryColumn;
  info.path = path;
  info.type = type;
  ASSERT_TRUE(engine->RegisterDataset(info).ok()) << name;
}

// Tier 1 sizes codegen to the work: a plan whose scan sources hold fewer
// than kTier1FastCodegenRecords records in total compiles on the
// CodeGenOpt::None machine, a larger one on the Default machine.
TEST(JitSession, TierOneCodegenLevelFollowsScannedRecords) {
  EXPECT_EQ(jit::Tier1CodegenLevel(0), jit::CodegenLevel::kNone);
  EXPECT_EQ(jit::Tier1CodegenLevel(jit::kTier1FastCodegenRecords - 1), jit::CodegenLevel::kNone);
  EXPECT_EQ(jit::Tier1CodegenLevel(jit::kTier1FastCodegenRecords), jit::CodegenLevel::kDefault);

  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  const auto half = static_cast<int64_t>(jit::kTier1FastCodegenRecords / 2);
  RegisterCounted(&engine, "counted_half", half + 1);
  RegisterCounted(&engine, "counted_over", half * 2 + 1);
  jit::JitSession& session = jit::JitSession::Get();
  auto level_of = [&](const std::string& q) {
    const uint64_t none_before = session.codegens(jit::CodegenLevel::kNone);
    const uint64_t default_before = session.codegens(jit::CodegenLevel::kDefault);
    MustRun(&engine, q);
    const uint64_t none = session.codegens(jit::CodegenLevel::kNone) - none_before;
    const uint64_t dflt = session.codegens(jit::CodegenLevel::kDefault) - default_before;
    EXPECT_EQ(none + dflt, 1u) << q << ": one tier-1 codegen";
    auto module = engine.jit_cache()->TryGet(jit::MakeQueryCacheKey(
        testutil::ContextOf(&engine), testutil::PhysicalPlan(&engine, q),
        jit::CodegenMode::kMorsel));
    EXPECT_NE(module, nullptr) << q;
    if (module == nullptr) return jit::CodegenLevel::kAggressive;
    EXPECT_EQ(module->level, none == 1 ? jit::CodegenLevel::kNone : jit::CodegenLevel::kDefault)
        << q << ": the level recorded is the machine the module ran on";
    return module->level;
  };
  EXPECT_EQ(level_of(kAggQuery), jit::CodegenLevel::kNone);
  EXPECT_EQ(level_of("SELECT count(*), sum(v) FROM counted_half"), jit::CodegenLevel::kNone);
  EXPECT_EQ(level_of("SELECT count(*), sum(v) FROM counted_over"), jit::CodegenLevel::kDefault);
  // Every scan source counts: two half-cutoff scans add up past it.
  EXPECT_EQ(level_of("SELECT count(*) FROM counted_half a JOIN counted_half b ON a.k = b.k"),
            jit::CodegenLevel::kDefault);
}

// Tier 2 differs from tier 1 only in (pass pipeline, target machine): the
// promoted module is codegen'd on the CodeGenOpt::Aggressive machine, and
// serves cell-identical results behind the same key.
TEST(JitSession, TierTwoPromotionUsesTheAggressiveTargetMachine) {
  jit::JitSession& session = jit::JitSession::Get();
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = 2;
  opts.morsel_rows = kMorselRows;
  opts.collect_stats_on_cold_access = false;
  opts.tiered = true;
  opts.tiered_opts.tier2_hit_threshold = 2;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);

  const uint64_t aggressive_before = session.codegens(jit::CodegenLevel::kAggressive);
  QueryResult cold = MustRun(&engine, kAggQuery);
  engine.tiered_compiler()->Drain();
  EXPECT_EQ(session.codegens(jit::CodegenLevel::kAggressive), aggressive_before)
      << "tier 1 must not codegen on the aggressive target machine";

  MustRun(&engine, kAggQuery);
  MustRun(&engine, kAggQuery);
  engine.tiered_compiler()->Drain();
  ASSERT_GE(engine.jit_cache()->stats().promotions, 1u);
  EXPECT_EQ(session.codegens(jit::CodegenLevel::kAggressive), aggressive_before + 1)
      << "the tier-2 recompile must codegen on the aggressive target machine";

  auto module = engine.jit_cache()->TryGet(jit::MakeQueryCacheKey(
      testutil::ContextOf(&engine), testutil::PhysicalPlan(&engine, kAggQuery),
      jit::CodegenMode::kMorsel));
  ASSERT_NE(module, nullptr);
  EXPECT_EQ(module->level, jit::CodegenLevel::kAggressive) << "tier 2 stays aggressive";

  QueryTelemetry tel;
  QueryResult promoted = MustRun(&engine, kAggQuery, &tel);
  EXPECT_EQ(tel.compile_tier, 2);
  EXPECT_TRUE(tel.jit_cache_hit);
  ExpectIdentical(cold, promoted, "tier-1 vs tier-2 module");
}

}  // namespace
}  // namespace proteus
