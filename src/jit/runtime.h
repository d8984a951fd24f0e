// Runtime support library for generated code (paper §5.1 "Proteus also uses
// pre-existing (i.e., not generated) C++ code for some of its functionality.
// Proteus wraps these operations in C++ functions and calls them when
// appropriate from the generated code").
//
// The generated query function receives a QueryRuntime*. Join tables, group
// tables, unnest cursors, and the result builder live here; tight per-tuple
// work (field loads from binary data, predicate evaluation, aggregation
// arithmetic) is emitted as straight LLVM IR and never crosses this
// boundary. CSV/JSON token access crosses it through thin helpers, mirroring
// the paper's plug-in calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/aggregator.h"
#include "src/engine/partial_sink.h"
#include "src/engine/radix_table.h"
#include "src/engine/result.h"
#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"

namespace proteus {
namespace jit {

/// Radix join state: build-side keys + packed 8-byte payload slots. Filled
/// once by the build pipeline, then read-only — probe iteration state lives
/// in the per-task MorselCtx so concurrent morsel pipelines can probe the
/// same table. Null-keyed build rows (proteus_join_insert_null) occupy a row
/// slot without a radix entry: probes never reach them, but an outer join's
/// unmatched drain still iterates them — exactly the interpreter's
/// "null keys never match; outer joins still keep the row" rule.
struct JoinTableRt {
  RadixTable table;
  std::vector<int64_t> keys;
  std::vector<int64_t> payload;  ///< row-major, slots_per_row per entry
  uint32_t slots_per_row = 0;
};

/// Lazy JSON array iteration state for generated Unnest loops.
struct UnnestStateRt {
  const JsonPlugin* plugin = nullptr;
  const char* obj_base = nullptr;
  uint32_t pos = 0;
  uint32_t end = 0;
  const JsonElem* elems = nullptr;
  // current element span
  const char* elem_start = nullptr;
  const char* elem_end = nullptr;
};

/// Query-lifetime state shared by every pipeline invocation. During the
/// morsel-parallel phase everything here is read-only: join tables are
/// frozen after proteus_build runs, and group tables are only touched by
/// single-call code — the legacy whole-relation path, or a mid-chain Nest
/// inside a join build subtree (which runs once, inside proteus_build).
/// Per-task mutable state lives in MorselCtx.
struct QueryRuntime {
  std::vector<std::unique_ptr<JoinTableRt>> joins;
  std::vector<std::unique_ptr<TypedGroupTable>> groups;
  uint32_t num_unnests = 0;
  /// Parallel radix build for join tables (byte-identical layout to the
  /// serial build); null builds serially.
  TaskScheduler* scheduler = nullptr;
  QueryResult result;       // legacy whole-relation path only
  std::vector<Value> cur_row;
  /// Legacy whole-relation set-monoid roots: proteus_result_end_row_set
  /// boxes each finished row and keeps it only if this set accumulator —
  /// the same dedup the interpreter applies — hasn't seen an equal row.
  Aggregator result_set{Monoid::kSet};
  bool failed = false;
  std::string error;

  uint32_t AddJoin(uint32_t payload_slots, bool partitioned = false) {
    auto t = std::make_unique<JoinTableRt>();
    t->slots_per_row = payload_slots;
    t->table.set_partitioned(partitioned);
    joins.push_back(std::move(t));
    return static_cast<uint32_t>(joins.size() - 1);
  }
  uint32_t AddGroup(TypedGroupSpec spec) {
    groups.push_back(std::make_unique<TypedGroupTable>(std::move(spec)));
    return static_cast<uint32_t>(groups.size() - 1);
  }
  uint32_t AddUnnest() { return num_unnests++; }
};

/// Per-invocation mutable state of one generated pipeline call: every
/// runtime helper takes a MorselCtx* so concurrent morsel tasks never write
/// shared state. Unnest cursors and join probe iterators are per-task; the
/// legacy whole-relation path simply runs with a single ctx.
struct MorselCtx {
  explicit MorselCtx(QueryRuntime* runtime)
      : rt(runtime), unnests(runtime->num_unnests), probes(runtime->joins.size()) {}

  struct ProbeState {
    std::vector<uint32_t> matches;
    size_t pos = 0;
    uint32_t cur_row = 0;  ///< build row of the last yielded match (outer-join
                           ///< bitmap marking reads it via proteus_join_probe_row)
  };

  QueryRuntime* rt;
  std::vector<UnnestStateRt> unnests;
  std::vector<ProbeState> probes;  ///< one per join table
};

/// Registers every helper below in `names` -> address pairs so the ORC JIT
/// can resolve them.
std::vector<std::pair<std::string, void*>> RuntimeSymbols();

}  // namespace jit
}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI helpers callable from generated IR. `ctx` is a jit::MorselCtx* —
// per-task state, so every helper below is safe to call from concurrent
// morsel pipelines over the same QueryRuntime.
// ---------------------------------------------------------------------------
extern "C" {

// CSV field access (the CSV plug-in's generated access path).
int64_t proteus_csv_int(const void* plugin, uint64_t oid, uint32_t col);
double proteus_csv_double(const void* plugin, uint64_t oid, uint32_t col);
/// 1 when the field reads "true" or "1" (the CSV plug-in's bool rule).
int32_t proteus_csv_bool(const void* plugin, uint64_t oid, uint32_t col);
const char* proteus_csv_str(const void* plugin, uint64_t oid, uint32_t col, int64_t* len);

// JSON field access through the structural index. proteus_json_has reports
// whether the field is present at all — the generated null check behind the
// interpreter's "null keys never match" join semantics (absent JSON fields
// bind SQL null there; the typed readers below return 0/"" instead).
// proteus_json_int_opt fuses presence + int read into one index lookup for
// the hot join-key path (returns presence, writes the value or 0).
int32_t proteus_json_has(const void* plugin, uint64_t oid, uint64_t path_hash);
int32_t proteus_json_int_opt(const void* plugin, uint64_t oid, uint64_t path_hash,
                             int64_t* out);
int64_t proteus_json_int(const void* plugin, uint64_t oid, uint64_t path_hash);
double proteus_json_double(const void* plugin, uint64_t oid, uint64_t path_hash);
int64_t proteus_json_bool(const void* plugin, uint64_t oid, uint64_t path_hash);
const char* proteus_json_str(const void* plugin, uint64_t oid, uint64_t path_hash,
                             int64_t* len);

// JSON array unnest (unnestInit / unnestHasNext / unnestGetNext). Cursor
// state lives in ctx->unnests[slot].
void proteus_unnest_init(void* ctx, uint32_t slot, const void* plugin, uint64_t oid,
                         uint64_t path_hash);
int32_t proteus_unnest_has_next(void* ctx, uint32_t slot);
void proteus_unnest_advance(void* ctx, uint32_t slot);
int64_t proteus_unnest_elem_int(void* ctx, uint32_t slot, const char* name, int64_t name_len);
double proteus_unnest_elem_double(void* ctx, uint32_t slot, const char* name, int64_t name_len);
const char* proteus_unnest_elem_str(void* ctx, uint32_t slot, const char* name,
                                    int64_t name_len, int64_t* len);

// Radix hash join. Insert/build run in the single-call build pipeline; probe
// iteration state lives in ctx->probes[table] so concurrent morsels can
// probe the same frozen table.
void proteus_join_insert(void* ctx, uint32_t table, int64_t key, const int64_t* payload);
// Null-keyed build row of an outer join: keeps the payload (the unmatched
// drain iterates it) without a radix entry (probes can never match it).
void proteus_join_insert_null(void* ctx, uint32_t table, const int64_t* payload);
void proteus_join_build(void* ctx, uint32_t table);
const int64_t* proteus_join_probe_first(void* ctx, uint32_t table, int64_t key);
const int64_t* proteus_join_probe_next(void* ctx, uint32_t table);
// Build row index of the match probe_next last yielded (per-task state).
int64_t proteus_join_probe_row(void* ctx, uint32_t table);
// Unmatched-drain iteration over a frozen build side: total row count and
// direct payload access by row index.
int64_t proteus_join_rows(void* ctx, uint32_t table);
const int64_t* proteus_join_payload_at(void* ctx, uint32_t table, int64_t row);

// Hash grouping (Nest). `groups` is a TypedGroupTable*: the query-lifetime
// table of a whole-relation nest (proteus_group_table — the legacy
// single-call path and mid-chain nests inside build pipelines) or a morsel
// sink's (proteus_sink_groups). One upsert per grouped row returns the
// group's row: each output's accumulator bits, then each output's count of
// contributing rows; the generated fold updates it in place.
void* proteus_group_table(void* ctx, uint32_t table);
int64_t* proteus_group_upsert(void* groups, int64_t key);
int64_t* proteus_group_upsert_double(void* groups, double key);
int64_t* proteus_group_upsert_str(void* groups, const char* key, int64_t len);
int64_t* proteus_group_upsert_null(void* groups);
// String min/max: `slot` holds the group's std::string*, replaced by
// (p, len) when `seen` is 0 or the value beats it.
void proteus_group_str_extreme(int64_t* slot, int64_t seen, int32_t is_max, const char* p,
                               int64_t len);
uint64_t proteus_group_count(void* groups);
int64_t proteus_group_key(void* groups, uint64_t idx);
const char* proteus_group_key_str(void* groups, uint64_t idx, int64_t* len);
int64_t* proteus_group_row(void* groups, uint64_t idx);

// Result building (legacy single-call path; morsel pipelines emit rows into
// their JitMorselSink instead).
void proteus_result_emit_int(void* ctx, int64_t v);
void proteus_result_emit_double(void* ctx, double v);
void proteus_result_emit_bool(void* ctx, int32_t v);
void proteus_result_emit_str(void* ctx, const char* p, int64_t len);
void proteus_result_emit_null(void* ctx);
void proteus_result_end_row(void* ctx);
// Set-monoid root (legacy whole-relation mode): ends the staged row only if
// no equal row was emitted before (hash of the boxed row + cell equality).
void proteus_result_end_row_set(void* ctx);

// Strings.
int32_t proteus_str_eq(const char* a, int64_t alen, const char* b, int64_t blen);
int32_t proteus_str_lt(const char* a, int64_t alen, const char* b, int64_t blen);

}  // extern "C"
