// Shared fixture: generates a small TPC-H-like corpus in every format once
// per test binary and registers it with fresh engines on demand.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <type_traits>

#include "src/calculus/calculus.h"
#include "src/core/query_engine.h"
#include "src/datagen/spam.h"
#include "src/datagen/tpch.h"
#include "src/jit/jit_engine.h"
#include "src/optimizer/optimizer.h"
#include "src/parser/parser.h"
#include "src/storage/bincol_format.h"
#include "src/storage/binrow_format.h"
#include "src/storage/text_writers.h"

namespace proteus {
namespace testutil {

struct Corpus {
  std::string dir;
  RowTable lineitem;
  RowTable orders;
  RowTable denorm;
  RowTable spam;
  uint64_t num_orders = 60;

  static const Corpus& Get() {
    static Corpus c = Build();
    return c;
  }

 private:
  static Corpus Build() {
    Corpus c;
    // Per-process directory: test binaries run concurrently under `ctest -j`,
    // and a shared corpus dir would be rewritten by one binary while another
    // reads it mid-write.
    c.dir = ::testing::TempDir() + "/proteus_corpus_" + std::to_string(::getpid());
    std::filesystem::create_directories(c.dir);
    c.lineitem = datagen::GenLineitem(c.num_orders, 101);
    c.orders = datagen::GenOrders(c.num_orders, 102);
    c.denorm = datagen::Denormalize(c.orders, c.lineitem);
    c.spam = datagen::GenSpamJSON(80, 103);

    auto check = [](const Status& s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    };
    check(WriteBinaryColumnDir(c.dir + "/lineitem.bincol", c.lineitem));
    check(WriteBinaryColumnDir(c.dir + "/orders.bincol", c.orders));
    check(WriteBinaryRowFile(c.dir + "/lineitem.binrow", c.lineitem));
    check(WriteCSVFile(c.dir + "/lineitem.csv", c.lineitem));
    check(WriteCSVFile(c.dir + "/orders.csv", c.orders));
    check(WriteJSONFile(c.dir + "/lineitem.json", c.lineitem));
    check(WriteJSONFile(c.dir + "/orders.json", c.orders));
    JSONWriteOptions shuffled;
    shuffled.shuffle_field_order = true;
    check(WriteJSONFile(c.dir + "/lineitem_shuffled.json", c.lineitem, shuffled));
    check(WriteJSONFile(c.dir + "/denorm.json", c.denorm));
    check(WriteJSONFile(c.dir + "/spam.json", c.spam));
    return c;
  }
};

/// Registers the full corpus under canonical names:
/// lineitem_{bincol,binrow,csv,json,json_shuffled}, orders_{bincol,csv,json},
/// orders_denorm (JSON), spam (JSON).
inline void RegisterAll(QueryEngine* engine) {
  const Corpus& c = Corpus::Get();
  auto reg = [&](const std::string& name, DataFormat fmt, const std::string& path,
                 TypePtr type) {
    DatasetInfo info;
    info.name = name;
    info.format = fmt;
    info.path = path;
    info.type = std::move(type);
    ASSERT_TRUE(engine->RegisterDataset(info).ok()) << name;
  };
  reg("lineitem_bincol", DataFormat::kBinaryColumn, c.dir + "/lineitem.bincol",
      datagen::LineitemSchema());
  reg("orders_bincol", DataFormat::kBinaryColumn, c.dir + "/orders.bincol",
      datagen::OrdersSchema());
  reg("lineitem_binrow", DataFormat::kBinaryRow, c.dir + "/lineitem.binrow",
      datagen::LineitemSchema());
  reg("lineitem_csv", DataFormat::kCSV, c.dir + "/lineitem.csv", datagen::LineitemSchema());
  reg("orders_csv", DataFormat::kCSV, c.dir + "/orders.csv", datagen::OrdersSchema());
  reg("lineitem_json", DataFormat::kJSON, c.dir + "/lineitem.json",
      datagen::LineitemSchema());
  reg("lineitem_json_shuffled", DataFormat::kJSON, c.dir + "/lineitem_shuffled.json",
      datagen::LineitemSchema());
  reg("orders_json", DataFormat::kJSON, c.dir + "/orders.json", datagen::OrdersSchema());
  reg("orders_denorm", DataFormat::kJSON, c.dir + "/denorm.json",
      datagen::OrdersDenormSchema());
  reg("spam", DataFormat::kJSON, c.dir + "/spam.json", datagen::SpamJSONSchema());
}

/// Skewed join-key corpora for the partitioned-join tests, written once per
/// process alongside the main corpus:
///   zipf_orders     — 512 rows, o_orderkey Zipf(1.0) over [1, 64]: heavy
///                     duplication (rows/ndv ≈ 8) that trips the optimizer's
///                     skew test once stats are warm.
///   heavy_orders    — 512 rows, 448 of them o_orderkey = 7 and the rest
///                     distinct: the single-heavy-hitter shape.
///   nullkey_orders  — 64 rows with o_orderkey absent entirely: an all-null
///                     build side (only outer joins keep its rows).
///   skew_lineitem   — 384 probe rows, l_orderkey uniform over [1, 80] (some
///                     keys miss the build domain).
/// All use the TPC-H-like orders/lineitem schemas, deterministic seeds.
struct SkewCorpus {
  std::string dir;

  static const SkewCorpus& Get() {
    static SkewCorpus c = Build();
    return c;
  }

 private:
  static SkewCorpus Build() {
    SkewCorpus c;
    c.dir = Corpus::Get().dir;
    std::mt19937_64 rng(7);
    auto order_row = [](std::ofstream& f, int64_t key, int64_t i, double price) {
      f << "{\"o_orderkey\":" << key << ",\"o_custkey\":" << i % 13
        << ",\"o_totalprice\":" << price << ",\"o_shippriority\":" << i % 3
        << ",\"o_comment\":\"skew\"}\n";
    };
    {
      // Zipf over [1, 64]: P(k) ∝ 1/k, sampled by inverse CDF.
      std::vector<double> cdf(64);
      double sum = 0;
      for (int k = 0; k < 64; ++k) cdf[k] = (sum += 1.0 / (k + 1));
      std::uniform_real_distribution<double> u(0.0, sum);
      std::ofstream f(c.dir + "/zipf_orders.json");
      for (int64_t i = 0; i < 512; ++i) {
        double x = u(rng);
        int64_t key = 1;
        while (key < 64 && cdf[key - 1] < x) ++key;
        order_row(f, key, i, 100.25 + static_cast<double>(i % 97));
      }
    }
    {
      std::ofstream f(c.dir + "/heavy_orders.json");
      for (int64_t i = 0; i < 512; ++i) {
        int64_t key = i % 8 != 0 ? 7 : 100 + i;
        order_row(f, key, i, 50.5 + static_cast<double>(i % 31));
      }
    }
    {
      std::ofstream f(c.dir + "/nullkey_orders.json");
      for (int64_t i = 0; i < 64; ++i) {
        f << "{\"o_custkey\":" << i % 13 << ",\"o_totalprice\":" << 10.5 + i
          << ",\"o_shippriority\":" << i % 3 << ",\"o_comment\":\"nokey\"}\n";
      }
    }
    {
      std::uniform_int_distribution<int64_t> key(1, 80);
      std::ofstream f(c.dir + "/skew_lineitem.json");
      for (int64_t i = 0; i < 384; ++i) {
        f << "{\"l_orderkey\":" << key(rng) << ",\"l_linenumber\":" << i % 7
          << ",\"l_quantity\":" << 1.5 + i % 49 << ",\"l_extendedprice\":"
          << 900.75 + i << ",\"l_discount\":0.04,\"l_tax\":0.03,"
             "\"l_shipmode\":\"TRUCK\",\"l_comment\":\"probe\"}\n";
      }
    }
    return c;
  }
};

/// Registers the skewed corpora (JSON) under zipf_orders / heavy_orders /
/// nullkey_orders / skew_lineitem.
inline void RegisterSkewCorpus(QueryEngine* engine) {
  const SkewCorpus& c = SkewCorpus::Get();
  auto reg = [&](const std::string& name, const std::string& file, TypePtr type) {
    DatasetInfo info;
    info.name = name;
    info.format = DataFormat::kJSON;
    info.path = c.dir + "/" + file;
    info.type = std::move(type);
    ASSERT_TRUE(engine->RegisterDataset(info).ok()) << name;
  };
  reg("zipf_orders", "zipf_orders.json", datagen::OrdersSchema());
  reg("heavy_orders", "heavy_orders.json", datagen::OrdersSchema());
  reg("nullkey_orders", "nullkey_orders.json", datagen::OrdersSchema());
  reg("skew_lineitem", "skew_lineitem.json", datagen::LineitemSchema());
}

/// Group-by edge cases for the typed Nest fold, one 1460-row table written
/// as binary columns, CSV and JSON (nest_bincol / nest_csv / nest_json):
///   day  — int, 365 distinct values first seen in a scattered order, so
///          every group spans many morsels
///   fk   — float key cycling -0.0, 1.5, 0.0, NaN, -2.25, 0.0, -0.0, NaN,
///          3.0 (±0 must share a group keyed by the first seen; every NaN
///          is its own group). JSON has no NaN: its copy writes 4.5.
///   s    — string, 23 distinct values of varied length (keys and min/max)
///   v    — float value
///   flag — bool
struct NestCorpus {
  std::string dir;

  static const NestCorpus& Get() {
    static NestCorpus c = Build();
    return c;
  }

  static TypePtr Schema() {
    return Type::BagOfRecords({{"day", Type::Int64()},
                               {"fk", Type::Float64()},
                               {"s", Type::String()},
                               {"v", Type::Float64()},
                               {"flag", Type::Bool()}});
  }

 private:
  static NestCorpus Build() {
    NestCorpus c;
    c.dir = Corpus::Get().dir;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double keys[] = {-0.0, 1.5, 0.0, nan, -2.25, 0.0, -0.0, nan, 3.0};
    RowTable table(Schema()->elem());
    RowTable json_table(Schema()->elem());
    for (int64_t i = 0; i < 1460; ++i) {
      const double fk = keys[i % 9];
      std::string s = "s" + std::string(static_cast<size_t>(i % 5), 'x') +
                      std::to_string((i * 11) % 23);
      std::vector<Value> row{Value::Int((i * 7) % 365), Value::Float(fk), Value::Str(s),
                             Value::Float(0.25 * static_cast<double>(i % 97) - 3.5),
                             Value::Boolean(i % 3 == 0)};
      table.Append(row);
      row[1] = Value::Float(std::isnan(fk) ? 4.5 : fk);
      json_table.Append(std::move(row));
    }
    auto check = [](const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); };
    check(WriteBinaryColumnDir(c.dir + "/nest.bincol", table));
    check(WriteCSVFile(c.dir + "/nest.csv", table));
    check(WriteJSONFile(c.dir + "/nest.json", json_table));
    return c;
  }
};

inline void RegisterNestCorpus(QueryEngine* engine) {
  const NestCorpus& c = NestCorpus::Get();
  auto reg = [&](const std::string& name, DataFormat fmt, const std::string& file) {
    DatasetInfo info;
    info.name = name;
    info.format = fmt;
    info.path = c.dir + "/" + file;
    info.type = NestCorpus::Schema();
    ASSERT_TRUE(engine->RegisterDataset(info).ok()) << name;
  };
  reg("nest_bincol", DataFormat::kBinaryColumn, "nest.bincol");
  reg("nest_csv", DataFormat::kCSV, "nest.csv");
  reg("nest_json", DataFormat::kJSON, "nest.json");
}

/// One query as its caller sees it: the result, plus the telemetry and IR
/// the engine returned through CallOptions for this query alone.
struct QueryRun {
  Result<QueryResult> result;
  QueryTelemetry tel;
  std::string ir;
};

/// Executes `query` (SQL text or a logical plan) on `engine`.
template <typename Query>
QueryRun RunQuery(QueryEngine* engine, Query query) {
  QueryTelemetry tel;
  std::string ir;
  CallOptions call;
  call.telemetry = &tel;
  call.ir = &ir;
  Result<QueryResult> r = [&] {
    if constexpr (std::is_same_v<Query, OpPtr>) {
      return engine->ExecutePlan(std::move(query), call);
    } else {
      return engine->Execute(query, call);
    }
  }();
  return {std::move(r), std::move(tel), std::move(ir)};
}

/// Cell-for-cell identity down to float bits: unlike Value::Equals, -0.0
/// differs from +0.0 and a NaN equals a NaN with the same bits.
inline void ExpectBitIdentical(const QueryResult& a, const QueryResult& b,
                               const std::string& ctx) {
  ASSERT_EQ(a.columns, b.columns) << ctx;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << ctx;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << ctx << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& x = a.rows[r][c];
      const Value& y = b.rows[r][c];
      bool same;
      if (x.is_float() && y.is_float()) {
        double dx = x.f();
        double dy = y.f();
        same = std::memcmp(&dx, &dy, sizeof(dx)) == 0;
      } else {
        same = x.is_float() == y.is_float() && x.Equals(y);
      }
      EXPECT_TRUE(same) << ctx << " row " << r << " col " << c << ": " << x.ToString()
                        << " vs " << y.ToString();
    }
  }
}

/// The physical plan QueryEngine::ExecutePlan(logical) runs on `engine`
/// (before any scan-cache rewrite).
inline OpPtr PhysicalPlan(QueryEngine* engine, OpPtr logical) {
  auto physical =
      Optimizer(engine->catalog(), engine->options().optimizer).Optimize(std::move(logical));
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  return physical.ok() ? *physical : nullptr;
}

/// The logical plan QueryEngine::Execute(sql) hands to ExecutePlan.
inline OpPtr LogicalPlan(QueryEngine* engine, const std::string& sql) {
  auto comp = ParseQuery(sql, engine->catalog());
  EXPECT_TRUE(comp.ok()) << sql << "\n" << comp.status().ToString();
  if (!comp.ok()) return nullptr;
  Normalize(&*comp);
  auto logical = ToAlgebra(*comp, engine->catalog());
  EXPECT_TRUE(logical.ok()) << sql << "\n" << logical.status().ToString();
  return logical.ok() ? *logical : nullptr;
}

/// The physical plan QueryEngine::Execute(sql) runs on `engine`.
inline OpPtr PhysicalPlan(QueryEngine* engine, const std::string& sql) {
  OpPtr logical = LogicalPlan(engine, sql);
  return logical != nullptr ? PhysicalPlan(engine, logical) : nullptr;
}

/// The execution context `engine` hands its executors (no trace, tiered
/// controller or cancel flag).
inline ExecContext ContextOf(QueryEngine* engine) {
  ExecContext ctx;
  ctx.catalog = &engine->catalog();
  ctx.plugins = &engine->plugins();
  ctx.caches = &engine->caches();
  ctx.scheduler = &engine->scheduler();
  ctx.jit_cache = engine->jit_cache();
  ctx.morsel_rows = engine->options().morsel_rows;
  return ctx;
}

/// Compiles `sql`'s morsel pipelines at tier 1 with the codegen level pinned
/// to `level` and installs the module in `engine`'s compiled-query cache, so
/// the next Execute(sql) — at any thread or shard count — runs this machine
/// code instead of the level the engine would pick. Runs the query once
/// first, so the plug-ins and statistics the plan depends on exist. Returns
/// the installed module (null on failure).
inline std::shared_ptr<const jit::CompiledModule> InstallModuleAt(QueryEngine* engine,
                                                                  const std::string& sql,
                                                                  jit::CodegenLevel level) {
  auto warm = engine->Execute(sql);
  EXPECT_TRUE(warm.ok()) << sql << "\n" << warm.status().ToString();
  OpPtr plan = PhysicalPlan(engine, sql);
  if (plan == nullptr || engine->jit_cache() == nullptr) return nullptr;
  const ExecContext ctx = ContextOf(engine);
  auto module = jit::CompilePlan(ctx, plan, jit::CodegenMode::kMorsel, jit::TierOf(level), level);
  EXPECT_TRUE(module.ok()) << sql << "\n" << module.status().ToString();
  if (!module.ok()) return nullptr;
  EXPECT_EQ((*module)->level, level) << sql;
  EXPECT_TRUE(engine->jit_cache()->Promote(
      jit::MakeQueryCacheKey(ctx, plan, jit::CodegenMode::kMorsel), *module))
      << sql;
  return *module;
}

/// Tier 1 compiles the small test corpora at CodeGenOpt::None. This runs
/// `sql` on `engine` (JIT mode) with its module installed at `level`
/// instead, so the other tier-1 machine code stays covered, and expects the
/// installed module to serve a result bit-identical to `oracle`. `tel`
/// (optional) receives the telemetry of that run.
inline void ExpectInstalledLevelMatches(QueryEngine* engine, const std::string& sql,
                                        jit::CodegenLevel level, const QueryResult& oracle,
                                        const std::string& ctx, QueryTelemetry* tel = nullptr) {
  ASSERT_NE(InstallModuleAt(engine, sql, level), nullptr) << ctx;
  QueryRun run = RunQuery(engine, sql);
  if (tel != nullptr) *tel = run.tel;
  ASSERT_TRUE(run.result.ok()) << ctx << "\n" << run.result.status().ToString();
  EXPECT_TRUE(run.tel.used_jit && run.tel.jit_cache_hit)
      << ctx << ": the installed module must serve";
  ExpectBitIdentical(oracle, *run.result, ctx);
}

}  // namespace testutil
}  // namespace proteus
