// End-to-end benchmark: one QueryServer over one QueryEngine, driven over
// TCP loopback by closed-loop ServeClients, on raw JSON / CSV / binary files
// generated from the seed. See perfbench/README.md for the workloads, the
// metrics and what each per-layer number should move.
//
//   perfbench --workload <cold_adhoc|literal_drift|warm_concurrent>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--tiny] [--setup-reps <n>] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (a short untraced loop for the engine's own counts, then
// the traced replay). The last stdout line is one JSON object; the exit code
// is non-zero when any query failed or a workload check did not hold.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/replay.h"
#include "perfbench/util.h"
#include "perfbench/workload.h"
#include "src/core/query_engine.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

using namespace proteus;

/// literal_drift must miss the compiled-query cache on most queries; a hit
/// ratio at or above this means the workload no longer drifts.
constexpr double kDriftHitCeiling = 0.35;
/// The traced replay must account for at least this share of the engine's
/// own Execute wall time for the same queries.
constexpr double kMinCoverage = 0.8;
/// Windows of the measured phase (see SplitWindows).
constexpr size_t kWindows = 6;
/// Share of --seconds the traced run spends in its untraced loop; the
/// replay gets the rest.
constexpr double kTracedLoopShare = 0.4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench";
  bool tiny = false;
  int setup_reps = 3;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--corrupt-reference") {
      a->corrupt_reference = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--setup-reps") {
      a->setup_reps = std::max(1, std::atoi(v));
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct SetupTimes {
  double gen_s = 0, write_s = 0, register_s = 0, server_s = 0, reference_s = 0, warmup_s = 0;
  double total() const { return gen_s + write_s + register_s + server_s + reference_s + warmup_s; }
};

/// One served engine with its corpus and reference results. Member order
/// matters: the server stops (joining its threads) before the engine dies.
struct Env {
  Corpus corpus;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<serve::QueryServer> server;
  std::vector<QueryResult> refs;
  SetupTimes t;
};

Status RegisterAll(QueryEngine* e, const Corpus& c) {
  for (const DatasetInfo& d : c.datasets) PROTEUS_RETURN_NOT_OK(e->RegisterDataset(d));
  return Status::OK();
}

/// cold_adhoc's append/replace step before a query: drops the plug-in,
/// index and stats of every dataset the query reads, and (through the
/// catalog epoch) every compiled module.
void Invalidate(QueryEngine& e, const QuerySpec& q) {
  for (const std::string& ds : q.datasets) e.InvalidateDataset(ds);
}

void Corrupt(QueryResult* r) {
  if (r->rows.empty() || r->rows[0].empty()) {
    r->rows.push_back(std::vector<Value>(r->columns.size(), Value::Int(-1)));
    return;
  }
  Value& v = r->rows[0][0];
  v = v.is_int() ? Value::Int(v.i() + 1) : v.is_float() ? Value::Float(v.f() + 1) : Value::Int(-1);
}

Result<std::unique_ptr<Env>> Setup(const Workload& w, const Args& args, int nproc) {
  auto env = std::make_unique<Env>();
  PROTEUS_ASSIGN_OR_RETURN(env->corpus, BuildCorpus(args.out_dir + "/data", w.scale, args.seed));
  env->t.gen_s = env->corpus.gen_s;
  env->t.write_s = env->corpus.write_s;

  auto t0 = Clock::now();
  EngineOptions opts;
  opts.num_threads = nproc;
  env->engine = std::make_unique<QueryEngine>(opts);
  PROTEUS_RETURN_NOT_OK(RegisterAll(env->engine.get(), env->corpus));
  env->t.register_s = SecondsSince(t0);

  t0 = Clock::now();
  env->server = std::make_unique<serve::QueryServer>(env->engine.get());
  PROTEUS_RETURN_NOT_OK(env->server->Start());
  env->t.server_s = SecondsSince(t0);

  // Reference results: the single-threaded interpreter on the same files.
  t0 = Clock::now();
  {
    EngineOptions ref_opts;
    ref_opts.mode = ExecMode::kInterp;
    ref_opts.num_threads = 1;
    QueryEngine ref(ref_opts);
    PROTEUS_RETURN_NOT_OK(RegisterAll(&ref, env->corpus));
    for (const QuerySpec& q : w.queries) {
      auto r = ref.Execute(q.text);
      if (!r.ok()) return Status::Internal("reference for '" + q.text + "': " + r.status().ToString());
      env->refs.push_back(*std::move(r));
      if (args.corrupt_reference) Corrupt(&env->refs.back());
    }
  }
  env->t.reference_s = SecondsSince(t0);

  // Warm-up over TCP: opens plug-ins and fills the compiled-query cache the
  // way each workload expects to find them. Results are checked in the
  // measured phase, not here.
  t0 = Clock::now();
  PROTEUS_ASSIGN_OR_RETURN(serve::ServeClient client,
                           serve::ServeClient::Connect(env->server->port()));
  for (int pass = 0; pass < w.warmup_passes; ++pass) {
    for (uint32_t qi : w.warmup) {
      const QuerySpec& q = w.queries[qi];
      if (w.kind == Kind::kColdAdhoc) Invalidate(*env->engine, q);
      PROTEUS_ASSIGN_OR_RETURN(serve::ServeClient::Response resp, client.Execute(q.text));
      if (resp.type != serve::FrameType::kResult) {
        return Status::Internal("warm-up '" + q.text + "': " + resp.error.ToString());
      }
    }
  }
  env->t.warmup_s = SecondsSince(t0);
  return env;
}

// ---------------------------------------------------------------------------
// Closed-loop measured phase (untraced)
// ---------------------------------------------------------------------------

/// Engine-reported facts of one served query. Only routes and counts are
/// taken from telemetry — never its compile or execute times.
struct QueryFacts {
  Route route = Route::kInterp;
  uint64_t morsels = 0, dealt = 0, steals = 0;
};

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< completion time of each sample, from phase start
  std::vector<QueryFacts> facts;
  uint64_t attempted = 0, errors = 0, rejected = 0, cancelled = 0, wrong = 0;
  double wall_s = 0;
  uint64_t opens = 0;        ///< plug-ins opened during the phase
  uint64_t cold_misses = 0;  ///< cold_adhoc queries that did not reopen
  jit::CompiledQueryCache::Stats cache;  ///< delta over the phase
  uint64_t gate_rejected = 0;            ///< AdmissionGate::rejected() delta
  double rss_mb = 0;
  double rss_open_mb = 0;  ///< before the connections closed
  double rss_anon_mb = 0;
  int threads = 0;  ///< process threads when rss_mb was read
  std::vector<std::string> problems;

  uint64_t failed() const { return errors + rejected + cancelled + wrong; }
};

jit::CompiledQueryCache::Stats CacheStats(QueryEngine& e) {
  return e.jit_cache() != nullptr ? e.jit_cache()->stats() : jit::CompiledQueryCache::Stats{};
}

jit::CompiledQueryCache::Stats Delta(const jit::CompiledQueryCache::Stats& a,
                                     const jit::CompiledQueryCache::Stats& b) {
  jit::CompiledQueryCache::Stats d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.compiles = b.compiles - a.compiles;
  d.evictions = b.evictions - a.evictions;
  return d;
}

using StatsSnapshot = std::map<std::string, std::shared_ptr<const DatasetStats>>;

StatsSnapshot SnapshotStats(QueryEngine& e, const Corpus& c) {
  StatsSnapshot s;
  for (const DatasetInfo& d : c.datasets) s[d.name] = e.catalog().stats().Find(d.name);
  return s;
}

/// Waits (up to 5 s) until the process is down to `n` threads.
void WaitForThreads(int n) {
  for (int i = 0; i < 500 && ThreadCount() > n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

LoopResult RunLoop(Env& env, const Workload& w, uint64_t seed, double seconds) {
  LoopResult out;
  QueryEngine& engine = *env.engine;
  // Holding the snapshot keeps the old stats objects alive, so a re-open
  // (which publishes fresh stats) can never reuse their addresses.
  const StatsSnapshot stats_before = SnapshotStats(engine, env.corpus);
  const auto cache_before = CacheStats(engine);
  const uint64_t gate_before = env.server->admission().rejected();

  // The server joins a connection's finished query threads only when the
  // connection closes; rss_mb is read once every connection of the phase is
  // closed and its threads are joined. An idle server is the scheduler's
  // workers (num_threads - 1 of them), its accept thread and this thread.
  const int idle_threads = engine.scheduler().num_threads() + 1;
  WaitForThreads(idle_threads);
  std::vector<Result<serve::ServeClient>> conns;
  for (int c = 0; c < w.clients; ++c) conns.push_back(serve::ServeClient::Connect(env.server->port()));
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  auto client_main = [&](int c) {
    LoopResult mine;
    auto note = [&mine](std::string why) {
      if (mine.problems.size() < 8) mine.problems.push_back(std::move(why));
    };
    Result<serve::ServeClient>& client = conns[c];
    if (!client.ok()) {
      mine.errors = 1;
      mine.attempted = 1;
      note("connect: " + client.status().ToString());
    }
    std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(c));
    for (uint64_t i = 0; client.ok() && Clock::now() < deadline; ++i) {
      const uint32_t qi = w.Pick(c, i, &rng);
      const QuerySpec& q = w.queries[qi];
      if (w.kind == Kind::kColdAdhoc) Invalidate(engine, q);
      ++mine.attempted;
      const auto s0 = Clock::now();
      auto resp = client->Execute(q.text);
      const double ms = MsBetween(s0, Clock::now());
      if (!resp.ok()) {
        ++mine.errors;
        note("transport: " + resp.status().ToString());
        break;
      }
      switch (resp->type) {
        case serve::FrameType::kResult:
          break;
        case serve::FrameType::kRejected:
          ++mine.rejected;
          note("rejected: " + resp->reject_reason);
          continue;
        case serve::FrameType::kCancelled:
          ++mine.cancelled;
          note("cancelled: " + q.text);
          continue;
        default:
          ++mine.errors;
          note("error: " + q.text + ": " + resp->error.ToString());
          continue;
      }
      if (!SameResult(resp->result, env.refs[qi])) {
        ++mine.wrong;
        note("wrong result: " + q.text + "\n got:\n" +
                                resp->result.ToString(5) + " want:\n" + env.refs[qi].ToString(5));
        continue;
      }
      mine.latency_ms.push_back(ms);
      mine.done_s.push_back(SecondsSince(t0));
      const QueryTelemetry& tel = resp->telemetry;
      mine.facts.push_back({RouteOf(tel), tel.morsels, tel.tasks_dealt, tel.steals});
      if (w.kind == Kind::kColdAdhoc) {
        bool reopened = !tel.jit_cache_hit;
        for (const std::string& ds : q.datasets) {
          if (engine.catalog().stats().Find(ds) == nullptr) reopened = false;
          ++mine.opens;
        }
        if (!reopened) ++mine.cold_misses;
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    out.latency_ms.insert(out.latency_ms.end(), mine.latency_ms.begin(), mine.latency_ms.end());
    out.done_s.insert(out.done_s.end(), mine.done_s.begin(), mine.done_s.end());
    out.facts.insert(out.facts.end(), mine.facts.begin(), mine.facts.end());
    out.attempted += mine.attempted;
    out.errors += mine.errors;
    out.rejected += mine.rejected;
    out.cancelled += mine.cancelled;
    out.wrong += mine.wrong;
    out.opens += mine.opens;
    out.cold_misses += mine.cold_misses;
    for (size_t p = 0; p < mine.problems.size() && out.problems.size() < 8; ++p) {
      out.problems.push_back(std::move(mine.problems[p]));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) clients.emplace_back(client_main, c);
  for (auto& t : clients) t.join();
  out.wall_s = SecondsSince(t0);
  // Trim first: freed blocks parked in the malloc arenas of the server's
  // query threads would otherwise make rss_mb allocator noise.
  malloc_trim(0);
  out.rss_open_mb = RssMb();
  conns.clear();
  WaitForThreads(idle_threads);
  out.threads = ThreadCount();
  malloc_trim(0);
  out.rss_mb = RssMb();
  out.rss_anon_mb = RssAnonMb();
  out.cache = Delta(cache_before, CacheStats(engine));
  out.gate_rejected = env.server->admission().rejected() - gate_before;
  if (w.kind != Kind::kColdAdhoc) {
    const StatsSnapshot stats_after = SnapshotStats(engine, env.corpus);
    for (const auto& [name, before] : stats_before) {
      if (stats_after.at(name) != before) ++out.opens;
    }
  }
  return out;
}

/// The measured phase cut into kWindows equal windows by completion time
/// (queries in flight at the deadline finish in the last one): each
/// window's latency p50 and throughput. Reporting the median over windows
/// keeps a burst of noise from another tenant of the machine out of the
/// result.
struct Windows {
  std::vector<double> p50_ms, qps;
  std::vector<size_t> samples;
};

Windows SplitWindows(const LoopResult& r, double seconds) {
  std::vector<std::vector<double>> lat(kWindows);
  const double width = seconds / kWindows;
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    const size_t k = std::min<size_t>(kWindows - 1, static_cast<size_t>(r.done_s[i] / width));
    lat[k].push_back(r.latency_ms[i]);
  }
  Windows w;
  for (size_t k = 0; k < kWindows; ++k) {
    const double len = k + 1 < kWindows ? width : std::max(width, r.wall_s - k * width);
    w.p50_ms.push_back(Median(lat[k]));
    w.qps.push_back(static_cast<double>(lat[k].size()) / len);
    w.samples.push_back(lat[k].size());
  }
  return w;
}

/// The workload checks of every run: each workload must exercise what it
/// claims to. Returns the violations.
std::vector<std::string> CheckWorkload(const Workload& w, const LoopResult& r) {
  std::vector<std::string> bad;
  const uint64_t served = r.latency_ms.size();
  const uint64_t lookups = r.cache.hits + r.cache.misses;
  const double hit_ratio = lookups > 0 ? static_cast<double>(r.cache.hits) / lookups : 0;
  switch (w.kind) {
    case Kind::kColdAdhoc:
      if (r.cold_misses != 0) {
        bad.push_back(std::to_string(r.cold_misses) +
                      " cold_adhoc queries did not reopen their plug-ins and compile");
      }
      if (r.cache.misses < served) {
        bad.push_back("cold_adhoc: " + std::to_string(r.cache.misses) + " cache misses for " +
                      std::to_string(served) + " queries");
      }
      break;
    case Kind::kLiteralDrift:
      if (r.opens != 0) bad.push_back("literal_drift opened " + std::to_string(r.opens) + " plug-ins");
      if (hit_ratio >= kDriftHitCeiling) {
        bad.push_back("literal_drift cache hit ratio " + std::to_string(hit_ratio) +
                      " is not below " + std::to_string(kDriftHitCeiling));
      }
      break;
    case Kind::kWarmConcurrent:
      if (r.opens != 0) bad.push_back("warm_concurrent opened " + std::to_string(r.opens) + " plug-ins");
      if (r.cache.compiles != 0 || r.cache.misses != 0) {
        bad.push_back("warm_concurrent compiled " + std::to_string(r.cache.compiles) +
                      " modules after warm-up");
      }
      if (r.gate_rejected != 0) {
        bad.push_back("warm_concurrent had " + std::to_string(r.gate_rejected) +
                      " admission rejections");
      }
      break;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& ms) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << Num(ms[i].value)
      << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

void PrintLoop(const char* label, const LoopResult& r) {
  const uint64_t n = r.latency_ms.size();
  printf("%s: attempted=%llu served=%llu errors=%llu rejected=%llu cancelled=%llu wrong=%llu "
         "failed_frac=%.6f wall_s=%.3f threads=%d\n",
         label, (unsigned long long)r.attempted, (unsigned long long)n,
         (unsigned long long)r.errors, (unsigned long long)r.rejected,
         (unsigned long long)r.cancelled, (unsigned long long)r.wrong,
         r.attempted ? static_cast<double>(r.failed()) / r.attempted : 0.0, r.wall_s, r.threads);
  printf("%s: latency samples=%llu, %llu of them beyond p95\n", label, (unsigned long long)n,
         (unsigned long long)(n - static_cast<uint64_t>(std::ceil(0.95 * n))));
  for (const std::string& p : r.problems) fprintf(stderr, "problem: %s\n", p.c_str());
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

struct TraceResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
};

TraceResult RunTraced(Env& env, const Workload& w, const Args& args) {
  TraceResult tr;
  QueryEngine& engine = *env.engine;
  const double loop_s = args.seconds * kTracedLoopShare;

  // Phase A: the workload's own traffic, untraced — the engine's counts
  // (compiles, cache hits, routes, morsels, scheduler) under the real
  // client count.
  LoopResult loop = RunLoop(env, w, args.seed, loop_s);
  PrintLoop("traced-run loop", loop);
  tr.attempted += loop.attempted;
  tr.failed += loop.failed();
  for (auto& b : CheckWorkload(w, loop)) tr.problems.push_back(b);

  // Phase B, per query: an in-process Execute and the traced replay from the
  // same engine state; then, with the module cached and the plug-ins open,
  // an in-process Execute and the TCP round trip back to back, for the
  // server's own cost.
  auto client = serve::ServeClient::Connect(env.server->port());
  SpanLog log;
  std::vector<double> inproc_ms, overhead_ms, codec_ms, parser_ms, optimizer_ms, open_ms,
      compile_ms, engine_ms, replay_ms;
  double result_bytes = 0, opened_bytes = 0, open_total_ms = 0, rows = 0, engine_total_ms = 0;
  double covered_ms = 0, inproc_total_ms = 0;
  uint64_t replay_opens = 0, replayed = 0;
  std::mt19937_64 rng(args.seed * 1000003 + 999);
  const auto deadline = Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                                           (args.seconds - loop_s) * 1e6));
  auto fail = [&](const std::string& why) {
    ++tr.failed;
    if (tr.problems.size() < 8) tr.problems.push_back(why);
  };
  for (uint64_t i = 0; client.ok() && (Clock::now() < deadline || replayed < 3); ++i) {
    const uint32_t qi = w.Pick(0, i, &rng);
    const QuerySpec& q = w.queries[qi];
    ++tr.attempted;
    ++replayed;

    if (w.kind == Kind::kColdAdhoc) Invalidate(engine, q);
    QueryTelemetry tel;
    CallOptions call;
    call.telemetry = &tel;
    auto s0 = Clock::now();
    auto direct = engine.Execute(q.text, call);
    const double direct_ms = MsBetween(s0, Clock::now());
    if (!direct.ok() || !SameResult(*direct, env.refs[qi])) {
      fail("in-process result differs from reference: " + q.text);
      continue;
    }
    // Put the engine back the way the in-process run found it, so the
    // replay does the same work.
    if (w.kind == Kind::kColdAdhoc) Invalidate(engine, q);
    if (w.kind == Kind::kLiteralDrift && !tel.jit_cache_hit) {
      auto key = CacheKeyOf(engine, q.text);
      if (!key.ok()) {
        fail("cache key: " + q.text + ": " + key.status().ToString());
        continue;
      }
      engine.jit_cache()->Erase(*key);
    }
    ReplayOutcome rep = ReplayQuery(engine, q.text, i, env.corpus.bytes, &log);
    if (!rep.result.ok()) {
      fail("replay failed: " + q.text + ": " + rep.result.status().ToString());
      continue;
    }
    if (!SameResult(*rep.result, env.refs[qi])) {
      fail("replay result differs from reference: " + q.text);
      continue;
    }
    if (rep.route != RouteOf(tel)) {
      fail(std::string("replay route ") + RouteName(rep.route) + " differs from engine route " +
           RouteName(RouteOf(tel)) + ": " + q.text);
      continue;
    }

    // serve overhead: both warm now. Alternating the order cancels the
    // advantage of running second.
    double warm_ms = 0, round_trip_ms = 0;
    bool round_trip_ok = true;
    for (int k = 0; k < 2; ++k) {
      s0 = Clock::now();
      if ((k + i) % 2 == 0) {
        round_trip_ok = round_trip_ok && engine.Execute(q.text).ok();
        warm_ms = MsBetween(s0, Clock::now());
      } else {
        auto resp = client->Execute(q.text);
        round_trip_ms = MsBetween(s0, Clock::now());
        round_trip_ok = round_trip_ok && resp.ok() && resp->type == serve::FrameType::kResult &&
                        SameResult(resp->result, env.refs[qi]);
      }
    }
    if (!round_trip_ok) {
      fail("round trip failed or differs from reference: " + q.text);
      continue;
    }

    // serve codec: the result frame body, both directions.
    s0 = Clock::now();
    const std::string body = serve::EncodeResultBody(*direct, tel);
    auto decoded = serve::DecodeResultBody(body);
    codec_ms.push_back(MsBetween(s0, Clock::now()));
    if (!decoded.ok()) fail("result body does not decode: " + q.text);
    result_bytes += static_cast<double>(body.size());

    inproc_ms.push_back(direct_ms);
    overhead_ms.push_back(round_trip_ms - warm_ms);
    replay_ms.push_back(rep.total_ms);
    parser_ms.push_back(rep.self_ms["parser"]);
    optimizer_ms.push_back(rep.self_ms["optimizer"]);
    engine_ms.push_back(rep.engine_ms);
    if (rep.opens > 0) open_ms.push_back(rep.open_ms);
    if (rep.compiled) compile_ms.push_back(rep.compile_ms);
    replay_opens += rep.opens;
    opened_bytes += static_cast<double>(rep.opened_bytes);
    open_total_ms += rep.open_ms;
    rows += static_cast<double>(rep.rows_scanned);
    engine_total_ms += rep.engine_ms;
    covered_ms += rep.total_ms - rep.self_ms["query"];
    inproc_total_ms += direct_ms;
  }
  if (!client.ok()) fail("connect: " + client.status().ToString());

  double index_bytes = 0;
  for (const DatasetInfo& d : env.corpus.datasets) {
    auto p = engine.plugins().GetOrOpen(d, &engine.catalog().stats());
    if (p.ok()) index_bytes += static_cast<double>((*p)->StructuralIndexBytes());
  }
  const std::string trace_path =
      args.out_dir + "/trace_" + w.name + "_seed" + std::to_string(args.seed) + ".json";
  if (!log.WriteChromeTrace(trace_path)) fail("cannot write " + trace_path);

  const double n = static_cast<double>(std::max<size_t>(1, loop.facts.size()));
  uint64_t interp = 0, non_morsel = 0;
  double morsels = 0, dealt = 0, steals = 0;
  for (const QueryFacts& f : loop.facts) {
    interp += f.route == Route::kInterp;
    non_morsel += f.route == Route::kJitWhole;
    morsels += static_cast<double>(f.morsels);
    dealt += static_cast<double>(f.dealt);
    steals += static_cast<double>(f.steals);
  }
  const uint64_t lookups = loop.cache.hits + loop.cache.misses;
  const double coverage = inproc_total_ms > 0 ? covered_ms / inproc_total_ms : 0;
  const double inproc_p50 = Median(inproc_ms);
  tr.metrics = {
      {"plugins.open_ms_p50", Median(open_ms), "ms"},
      {"plugins.open_mb_per_s",
       open_total_ms > 0 ? opened_bytes / (1024.0 * 1024.0) / (open_total_ms / 1000.0) : 0,
       "MB/s"},
      {"plugins.opens", static_cast<double>(loop.opens), "count"},
      {"plugins.index_mb", index_bytes / (1024.0 * 1024.0), "MB"},
      {"jit.compile_ms_p50", Median(compile_ms), "ms"},
      {"jit.compiles", static_cast<double>(loop.cache.compiles), "count"},
      {"jit.cache_hit_ratio", lookups > 0 ? static_cast<double>(loop.cache.hits) / lookups : 0,
       "ratio"},
      {"engine.execute_ms_p50", Median(engine_ms), "ms"},
      {"engine.rows_per_s", engine_total_ms > 0 ? rows / (engine_total_ms / 1000.0) : 0,
       "rows/s"},
      {"engine.morsels_per_query", morsels / n, "count"},
      {"engine.interp_queries", static_cast<double>(interp), "count"},
      {"engine.non_morsel_queries", static_cast<double>(non_morsel), "count"},
      {"sched.tasks_per_query", dealt / n, "count"},
      {"sched.steal_ratio", dealt > 0 ? steals / dealt : 0, "ratio"},
      {"serve.overhead_ms_p50", Median(overhead_ms), "ms"},
      {"serve.codec_ms_p50", Median(codec_ms), "ms"},
      {"serve.result_bytes", inproc_ms.empty() ? 0 : result_bytes / inproc_ms.size(), "bytes"},
      {"serve.rejected", static_cast<double>(loop.gate_rejected), "count"},
      {"parser.ms_p50", Median(parser_ms), "ms"},
      {"optimizer.ms_p50", Median(optimizer_ms), "ms"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_frac", inproc_p50 > 0 ? Median(replay_ms) / inproc_p50 - 1.0 : 0, "ratio"},
  };
  printf("traced replay: %llu queries (%zu spans, written to %s); loop facts over %zu queries, "
         "cache lookups=%llu hits=%llu compiles=%llu; replay opens=%llu\n",
         (unsigned long long)replayed, log.spans().size(), trace_path.c_str(), loop.facts.size(),
         (unsigned long long)lookups, (unsigned long long)loop.cache.hits,
         (unsigned long long)loop.cache.compiles, (unsigned long long)replay_opens);
  printf("traced replay: samples behind p50s: open=%zu compile=%zu engine=%zu overhead=%zu\n",
         open_ms.size(), compile_ms.size(), engine_ms.size(), overhead_ms.size());
  if (replayed > 0 && coverage < kMinCoverage) {
    fail("trace.coverage " + std::to_string(coverage) + " is below " + std::to_string(kMinCoverage));
  }
  return tr;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload <cold_adhoc|literal_drift|warm_concurrent> --seed <n> "
            "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] [--setup-reps <n>] "
            "[--corrupt-reference]\n");
    return 2;
  }
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  auto wl = MakeWorkload(args.workload, args.seed, args.tiny, nproc);
  if (!wl.ok()) {
    fprintf(stderr, "%s\n", wl.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *wl;

  std::vector<double> setup_totals;
  auto set_up = [&]() -> Result<std::unique_ptr<Env>> {
    PROTEUS_ASSIGN_OR_RETURN(std::unique_ptr<Env> e, Setup(w, args, nproc));
    const SetupTimes& t = e->t;
    setup_totals.push_back(t.total());
    printf("setup %zu: gen_s=%.4f write_s=%.4f register_s=%.4f server_s=%.4f "
           "reference_s=%.4f warmup_s=%.4f total_s=%.4f\n",
           setup_totals.size(), t.gen_s, t.write_s, t.register_s, t.server_s, t.reference_s,
           t.warmup_s, t.total());
    return e;
  };
  auto first = set_up();
  if (!first.ok()) {
    fprintf(stderr, "set-up failed: %s\n", first.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Env> env = std::move(*first);

  const Corpus& c = env->corpus;
  printf("fingerprint: workload=%s seed=%llu nproc=%d cpu=\"%s\" clients=%d "
         "bytes json=%llu csv=%llu bincol=%llu distinct_queries=%zu\n",
         w.name.c_str(), (unsigned long long)args.seed, nproc, CpuModel().c_str(), w.clients,
         (unsigned long long)c.bytes.at("spam_json"), (unsigned long long)c.bytes.at("spam_csv"),
         (unsigned long long)c.bytes.at("spam_bin"), w.queries.size());

  bool ok = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    LoopResult r = RunLoop(*env, w, args.seed, args.seconds);
    PrintLoop("measured", r);
    if (r.latency_ms.size() < 200) printf("WARNING: fewer than 10 latency samples beyond p95\n");
    attempted = r.attempted;
    failed = r.failed();
    for (const std::string& b : CheckWorkload(w, r)) {
      fprintf(stderr, "check failed: %s\n", b.c_str());
      ok = false;
    }
    const Windows win = SplitWindows(r, args.seconds);
    printf("windows: p50_ms");
    for (double v : win.p50_ms) printf(" %.3f", v);
    printf(" qps");
    for (double v : win.qps) printf(" %.2f", v);
    printf(" samples");
    for (size_t v : win.samples) printf(" %zu", v);
    printf(" (pooled p50 %.3f ms, %.2f qps)\n", Percentile(r.latency_ms, 0.5),
           r.latency_ms.size() / r.wall_s);
    printf("rss: %.2f MB with the phase's connections open, %.2f MB after they closed\n",
           r.rss_open_mb, r.rss_mb);
    printf("rss after close: anon %.2f MB, file-backed %.2f MB\n", r.rss_anon_mb,
           r.rss_mb - r.rss_anon_mb);
    metrics = {
        {"latency_ms_p50", Median(win.p50_ms), "ms"},
        {"latency_ms_p95", Percentile(r.latency_ms, 0.95), "ms"},
        {"throughput_qps", Median(win.qps), "1/s"},
        {"rss_mb", r.rss_mb, "MB"},
    };
  } else {
    TraceResult tr = RunTraced(*env, w, args);
    attempted = tr.attempted;
    failed = tr.failed;
    for (const std::string& p : tr.problems) fprintf(stderr, "check failed: %s\n", p.c_str());
    ok = tr.problems.empty();
    metrics = tr.metrics;
  }
  env.reset();
  if (args.trace == 0) {
    // setup_s is the median of several full set-ups. The extra ones run
    // after the measured phase, so that rss_mb saw one set-up only.
    for (int rep = 1; rep < args.setup_reps; ++rep) {
      auto again = set_up();
      if (!again.ok()) {
        fprintf(stderr, "set-up failed: %s\n", again.status().ToString().c_str());
        return 2;
      }
    }
    metrics.push_back({"setup_s", Median(setup_totals), "s"});
  }
  std::error_code ec;
  std::filesystem::remove_all(args.out_dir + "/data", ec);

  ok = ok && failed == 0 && attempted > 0;
  printf("metrics (%s, trace=%d):\n", w.name.c_str(), args.trace);
  PrintMetrics(metrics);
  printf("%s\n", ResultJson(ok, std::max<uint64_t>(1, attempted), failed, metrics).c_str());
  fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
