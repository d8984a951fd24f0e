#include "perfbench/replay.h"

#include <fstream>

#include "perfbench/util.h"
#include "src/calculus/calculus.h"
#include "src/engine/interp.h"
#include "src/jit/jit_engine.h"
#include "src/optimizer/optimizer.h"
#include "src/parser/parser.h"

namespace perfbench {

using namespace proteus;

SpanLog::SpanLog() : origin_(Clock::now()) {}

double SpanLog::NowMs() const { return MsBetween(origin_, Clock::now()); }

int SpanLog::Begin(std::string name, uint64_t qid, int parent) {
  const double now = NowMs();
  return Add(std::move(name), qid, parent, now, now, {});
}

int SpanLog::Add(std::string name, uint64_t qid, int parent, double start_ms, double end_ms,
                 std::string arg) {
  spans_.push_back({std::move(name), start_ms, end_ms, parent, qid, std::move(arg)});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int idx) { spans_[idx].end_ms = NowMs(); }

void SpanLog::SetArg(int idx, std::string arg) { spans_[idx].arg = std::move(arg); }

std::map<std::string, double> SpanLog::SelfMs(size_t first) const {
  std::map<std::string, double> self;
  for (size_t i = first; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_ms - spans_[i].start_ms;
  }
  // Children of one parent run one after another on one thread, so the
  // parent's covered time is the sum of their durations.
  for (size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[spans_[spans_[i].parent].name] -= spans_[i].end_ms - spans_[i].start_ms;
    }
  }
  return self;
}

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char ch : in) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

}  // namespace

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.start_ms * 1000.0,
             (s.end_ms - s.start_ms) * 1000.0);
    f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
      << "\"tid\":1," << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
      << ",\"qid\":" << s.qid << ",\"arg\":\"" << JsonEscape(s.arg) << "\"}}";
  }
  f << "\n]}\n";
  return f.good();
}

const char* RouteName(Route r) {
  switch (r) {
    case Route::kJitMorsel:
      return "jit_morsel";
    case Route::kJitWhole:
      return "jit_whole_relation";
    case Route::kInterp:
      return "interpreter";
  }
  return "?";
}

Route RouteOf(const QueryTelemetry& tel) {
  if (!tel.used_jit) return Route::kInterp;
  return tel.jit_parallel ? Route::kJitMorsel : Route::kJitWhole;
}

namespace {

/// The execution context QueryEngine::Run builds for a query.
ExecContext EngineContext(QueryEngine& engine) {
  const EngineOptions& opts = engine.options();
  ExecContext ctx;
  ctx.catalog = &engine.catalog();
  ctx.plugins = &engine.plugins();
  ctx.stats = opts.collect_stats_on_cold_access ? &engine.catalog().stats() : nullptr;
  ctx.caches = &engine.caches();
  ctx.scheduler = &engine.scheduler();
  ctx.jit_cache = engine.jit_cache();
  ctx.morsel_rows = opts.morsel_rows;
  ctx.verify_ir = opts.verify_ir;
  return ctx;
}

void CollectScans(const Operator& op, std::vector<std::string>* out) {
  if (op.kind() == OpKind::kScan) out->push_back(op.dataset());
  for (const auto& c : op.children()) CollectScans(*c, out);
}

Result<OpPtr> Plan(QueryEngine& engine, const std::string& text, SpanLog* log, uint64_t qid,
                   int root) {
  OpPtr logical;
  {
    const int s = log != nullptr ? log->Begin("parser", qid, root) : -1;
    auto plan = [&]() -> Result<OpPtr> {
      PROTEUS_ASSIGN_OR_RETURN(Comprehension comp, ParseQuery(text, engine.catalog()));
      Normalize(&comp);
      return ToAlgebra(comp, engine.catalog());
    }();
    if (log != nullptr) log->End(s);
    PROTEUS_ASSIGN_OR_RETURN(logical, std::move(plan));
  }
  const int s = log != nullptr ? log->Begin("optimizer", qid, root) : -1;
  Optimizer optimizer(engine.catalog(), engine.options().optimizer);
  auto physical = optimizer.Optimize(std::move(logical));
  if (log != nullptr) log->End(s);
  return physical;
}

}  // namespace

Result<jit::QueryCacheKey> CacheKeyOf(QueryEngine& engine, const std::string& text) {
  PROTEUS_ASSIGN_OR_RETURN(OpPtr physical, Plan(engine, text, nullptr, 0, -1));
  const ExecContext ctx = EngineContext(engine);
  return jit::MakeQueryCacheKey(ctx, physical,
                                PlanIsMorselParallelizable(physical)
                                    ? jit::CodegenMode::kMorsel
                                    : jit::CodegenMode::kWholeRelation);
}

ReplayOutcome ReplayQuery(QueryEngine& engine, const std::string& text, uint64_t qid,
                          const std::map<std::string, uint64_t>& bytes, SpanLog* log) {
  ReplayOutcome out;
  const size_t first = log->spans().size();
  const int root = log->Begin("query", qid, -1);
  log->SetArg(root, text);
  auto finish = [&] {
    log->End(root);
    out.self_ms = log->SelfMs(first);
    out.total_ms = log->spans()[root].end_ms - log->spans()[root].start_ms;
    for (size_t i = first; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      const double d = s.end_ms - s.start_ms;
      if (s.name == "plugins.open") out.open_ms += d;
      if (s.name == "jit.compile") out.compile_ms += d;
      if (s.name == "engine") out.engine_ms += d;
    }
    return std::move(out);
  };

  auto physical = Plan(engine, text, log, qid, root);
  if (!physical.ok()) {
    out.result = physical.status();
    return finish();
  }
  const ExecContext ctx = EngineContext(engine);

  // plugins: open (structural index + cold-access stats) every scanned
  // dataset, as PreOpenPlanPlugins does. A call opened the plug-in iff it
  // published fresh statistics: InvalidateDataset drops both together.
  std::vector<std::string> scans;
  CollectScans(**physical, &scans);
  {
    const int span = log->Begin("plugins", qid, root);
    for (const std::string& ds : scans) {
      auto info = engine.catalog().Get(ds);
      if (!info.ok()) {
        log->End(span);
        out.result = info.status();
        return finish();
      }
      const auto before = engine.catalog().stats().Find(ds);
      const double t0 = log->NowMs();
      auto plugin = engine.plugins().GetOrOpen(**info, ctx.stats);
      const double t1 = log->NowMs();
      if (!plugin.ok()) {
        log->End(span);
        out.result = plugin.status();
        return finish();
      }
      out.rows_scanned += (*plugin)->NumRecords();
      if (engine.catalog().stats().Find(ds) != before) {
        log->Add("plugins.open", qid, span, t0, t1, ds);
        ++out.opens;
        auto b = bytes.find(ds);
        out.opened_bytes += b != bytes.end() ? b->second : 0;
      }
    }
    log->End(span);
  }
  // jit: resolve the module through the engine's cache exactly as
  // JitExecutor does, so a hit costs a probe and a miss times CompilePlan.
  Route route = Route::kInterp;
  if (engine.options().mode == ExecMode::kJIT) {
    const bool parallel = PlanIsMorselParallelizable(*physical);
    const jit::CodegenMode mode =
        parallel ? jit::CodegenMode::kMorsel : jit::CodegenMode::kWholeRelation;
    const int span = log->Begin("jit", qid, root);
    auto compile = [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
      const int c = log->Begin("jit.compile", qid, span);
      auto m = jit::CompilePlan(ctx, *physical, mode, /*tier=*/1);
      log->End(c);
      out.compiled = true;
      return m;
    };
    bool hit = false;
    auto module = ctx.jit_cache != nullptr
                      ? ctx.jit_cache->GetOrCompile(jit::MakeQueryCacheKey(ctx, *physical, mode),
                                                    compile, &hit)
                      : compile();
    log->End(span);
    if (module.ok()) {
      route = parallel ? Route::kJitMorsel : Route::kJitWhole;
    } else if (module.status().code() != StatusCode::kUnimplemented) {
      out.result = module.status();
      return finish();
    }
  }

  // engine: run the plan on the route the engine takes. The module is in
  // the cache now, so the JIT executor only binds and runs.
  const int span = log->Begin("engine", qid, root);
  if (route == Route::kInterp) {
    InterpExecutor interp(ctx);
    out.result = interp.Execute(*physical);
  } else {
    JitExecutor jit_exec(ctx);
    InterpExecutor::ExecStats stats;
    out.result = route == Route::kJitMorsel ? jit_exec.ExecuteParallel(*physical, &stats)
                                            : jit_exec.Execute(*physical);
    if (out.result.ok() && ctx.jit_cache != nullptr && !jit_exec.last_cache_hit()) {
      out.result = Status::Internal("replay: engine span recompiled the module");
    }
  }
  log->End(span);
  out.route = route;
  return finish();
}

}  // namespace perfbench
