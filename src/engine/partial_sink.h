// Partial sinks of morsel-parallel execution: the per-morsel accumulator
// state a worker pipeline feeds (Reduce aggregate vectors, Nest group
// tables), plus the deterministic fold that turns a sequence of per-morsel
// partials back into a query result.
//
// Extracted from the interpreter so two consumers share one definition of
// the grouping/merge semantics: the in-process morsel executor (interp.cpp)
// and the shard subsystem (src/shard/), which serializes these partials
// across the shard boundary and folds them on the coordinator. Results stay
// identical across worker *and* shard counts precisely because both paths
// fold the same per-morsel partials in the same (global morsel) order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/common/wire.h"
#include "src/engine/aggregator.h"
#include "src/engine/result.h"
#include "src/expr/eval.h"
#include "src/types/type.h"

namespace proteus {

namespace obs {
class TraceRecorder;
}  // namespace obs

/// Open-addressing (hash, group) index of the group tables below: linear
/// probing over a power-of-two slot array kept at most half full. Groups
/// are numbered in first-appearance order by their table.
class GroupIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The first group indexed under `hash` that `eq(group)` accepts, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t b = hash & mask; slots_[b].group != kNone; b = (b + 1) & mask) {
      if (slots_[b].hash == hash && eq(slots_[b].group)) return slots_[b].group;
    }
    return kNone;
  }
  void Insert(uint64_t hash, uint32_t group);
  /// Empties the index, keeping its capacity.
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t group = kNone;
  };
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// Hash group table of a Nest operator. The single home of the grouping
/// semantics: the serial nest cursor fills one over its whole input; the
/// morsel executor fills one per morsel and folds them together in morsel
/// order (first-appearance group order then matches the serial scan's).
/// Groups live in first-appearance order: `keys[g]` and the group-major
/// accumulator slab `aggs[g * width .. g * width + width)`.
struct GroupTable {
  std::vector<Value> keys;
  std::vector<Aggregator> aggs;
  size_t width = 0;  ///< accumulators per group (the Nest's output count)
  /// Per-morsel partials set this false and the merged distinct-group total
  /// is counted once instead, so bytes_materialized for a group-by matches
  /// the serial path regardless of morsel count.
  bool count_bytes = true;

  Aggregator* group_aggs(size_t g) { return aggs.data() + g * width; }
  const Aggregator* group_aggs(size_t g) const { return aggs.data() + g * width; }

  Status AddRow(const Operator& op, const EvalEnv& row);

  /// Finds or creates `key`'s group (Value::Hash / Value::Equals) and
  /// returns its index; new groups get one empty accumulator per output.
  size_t UpsertKey(const Operator& op, Value key);

  /// Folds `other` into this table, appending unseen groups in `other`'s
  /// first-appearance order.
  void MergeFrom(const Operator& op, GroupTable&& other);

  /// Output record of group `g` ({group_name: key, <output aggregates>...}).
  Value GroupRecord(const Operator& op, size_t g) const;

  /// Wire round-trip for the shard boundary. The hash index is rebuilt on
  /// deserialization; the reconstructed table merges and finalizes
  /// identically to the original.
  void Serialize(WireWriter* w) const;
  static Result<GroupTable> Deserialize(WireReader* r);

 private:
  GroupIndex index_;
};

/// Shape of a TypedGroupTable: how its raw keys and accumulator bits box
/// into Values. Filled by the code generator from the kinds it emits.
struct TypedGroupSpec {
  /// kInt64 (dates too), kBool, kFloat64 or kString.
  TypeKind key = TypeKind::kInt64;
  /// Per Nest output: kInt64 / kBool / kFloat64 accumulator bits, or
  /// kString for a string min/max (the slot then points at a std::string).
  std::vector<TypeKind> slots;
  /// Per output: the accumulator's start bits (the identity for count, sum,
  /// and/or; max/min replace them with the first contributing value).
  std::vector<int64_t> init;
};

/// Typed group table of a generated Nest fold. Each group owns a row of
/// 2 × width int64: the outputs' accumulator bits, then per output the
/// number of rows that contributed to it. Generated code upserts a raw key
/// (one call per grouped row) and folds into the returned row in place;
/// distinct groups are boxed only by FlushInto. Keys compare like
/// Value::Equals: -0.0 and +0.0 are one group (keyed by the first seen), a
/// NaN key never matches, and the null key is one group at its
/// first-appearance position.
class TypedGroupTable {
 public:
  explicit TypedGroupTable(TypedGroupSpec spec);

  /// Row of the group keyed by `key` (int64, or a bool as 0/1); the row
  /// stays valid until the next upsert.
  int64_t* Upsert(int64_t key);
  int64_t* UpsertDouble(double key);
  /// Copies the key bytes only when the group is new.
  int64_t* UpsertStr(const char* p, size_t len);
  int64_t* UpsertNull();

  size_t size() const { return size_; }
  int64_t* row(size_t g) { return rows_.data() + g * 2 * width_; }
  /// Raw key bits of group `g` (float keys: the double's bit pattern).
  int64_t key(size_t g) const { return keys_[g]; }
  const std::string& key_str(size_t g) const { return skeys_[g]; }

  /// Boxes every group once into `out` — UpsertKey in first-appearance
  /// order, then Aggregator::LoadScalar per output that saw a row — and
  /// clears this table for the next morsel. Starting from an empty `out`,
  /// the result is bit-identical to Add()ing the same rows through
  /// GroupTable::AddRow.
  void FlushInto(const Operator& nest, GroupTable* out);
  void Clear();

 private:
  /// Appends the row of group size() (its key is already stored).
  int64_t* NewRow();

  TypedGroupSpec spec_;
  size_t width_;
  size_t size_ = 0;
  std::vector<int64_t> keys_;       ///< raw key bits (non-string keys)
  std::vector<std::string> skeys_;  ///< string keys
  std::vector<int64_t> rows_;       ///< group-major, 2 × width per group
  std::deque<std::string> strs_;    ///< string min/max values, slot-addressed
  GroupIndex index_;                ///< every group but the null one
  size_t null_group_ = SIZE_MAX;
};

/// The binding a Nest's grouped record is published under.
const std::string& NestBinding(const Operator& op);

/// Runs `row` through the Reduce root's predicate and folds it into `aggs`
/// (one accumulator per output).
Status AccumulateReduceRow(const Operator& reduce, const EvalEnv& row,
                           std::vector<Aggregator>* aggs);

/// Zero-valued accumulators matching the Reduce root's outputs.
std::vector<Aggregator> MakeReduceAggs(const Operator& reduce);

/// Turns the folded accumulators into the final row set (a single collection
/// output of records unfolds into rows).
QueryResult FinalizeReduce(const Operator& reduce, std::vector<Aggregator>& aggs);

/// Per-morsel partial sinks of one plan region, in global morsel order.
/// Exactly one of the two vectors is populated: agg_morsels when the plan's
/// top is the Reduce root itself, group_morsels when a Nest sits directly
/// under it.
struct PlanPartials {
  bool nest = false;
  std::vector<std::vector<Aggregator>> agg_morsels;
  std::vector<GroupTable> group_morsels;

  size_t num_morsels() const { return nest ? group_morsels.size() : agg_morsels.size(); }

  /// Concatenates `other`'s morsel entries after this one's — the shard
  /// coordinator appends shard partials in shard order, reconstructing the
  /// global morsel sequence.
  void Append(PlanPartials&& other);
};

/// Folds per-morsel partials in morsel order and runs the Reduce root — the
/// one merge implementation shared by the morsel executor and the shard
/// coordinator, so neither worker nor shard counts can change the fold
/// shape. `nest` is the Nest directly under `reduce`, or null. Requires at
/// least one morsel entry. `trace` (nullable) records the merge as a
/// "partial_merge" span with the folded morsel count and, under a Nest, the
/// number of distinct groups folded.
Result<QueryResult> FinalizePlanPartials(const Operator& reduce, const Operator* nest,
                                         PlanPartials&& partials,
                                         obs::TraceRecorder* trace = nullptr);

/// One morsel's partial sink as seen by a generated (JIT) pipeline through
/// the C entry points below. The generated function keeps per-tuple work in
/// registers and crosses this boundary only at operator boundaries: a
/// scalar flush per morsel, a boxed row per emitted collection row, and for
/// a Nest one typed-table upsert per grouped row — the host then boxes each
/// distinct group once per morsel (TypedGroupTable::FlushInto). A JIT
/// morsel partial is therefore bit-indistinguishable from an interpreter
/// one and both merge through the same FinalizePlanPartials fold.
struct JitMorselSink {
  /// Scalar-aggregate or collection root: the morsel's accumulator vector
  /// (MakeReduceAggs shape).
  std::vector<Aggregator>* aggs = nullptr;
  /// Nest directly under the root: the worker's typed group table, which
  /// the host flushes into the morsel's GroupTable after each call.
  TypedGroupTable* groups = nullptr;
  /// Collection root: result column names; row_records is true when the
  /// head expression was a record constructor (rows box into records with
  /// these names, matching what Eval() produces for the interpreter).
  const std::vector<std::string>* columns = nullptr;
  bool row_records = false;

  /// Outer-join matched-build bitmaps this sink's marks land in, indexed by
  /// join table id (entries stay empty for non-outer tables). The generated
  /// probe body sets one byte per matched build row — the JIT counterpart
  /// of the interpreter's MatchedBitmaps. Morsel sinks share one bitmap set
  /// per *worker* (marking is an idempotent 0→1 write, so sharing across a
  /// worker's morsels cannot change the OR); drain sinks get their own. The
  /// host ORs all sets before running each generated unmatched-drain pass.
  /// Null when the plan has no outer chain joins.
  std::vector<std::vector<uint8_t>>* matched = nullptr;

  std::vector<Value> staged;  ///< cells of the row being emitted
};

}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI partial-sink entry points callable from generated IR. `sink` is a
// JitMorselSink*. Registered with the ORC JIT by jit::RuntimeSymbols().
// ---------------------------------------------------------------------------
extern "C" {

// Scalar Reduce root: one flush per (morsel, output) after the morsel's
// loop — `rows` is the number of rows that contributed; 0 leaves the
// accumulator in its empty state exactly like an interpreter partial that
// saw no rows.
void proteus_sink_agg_flush_int(void* sink, uint32_t i, int64_t v, int64_t rows);
void proteus_sink_agg_flush_double(void* sink, uint32_t i, double v, int64_t rows);
void proteus_sink_agg_flush_bool(void* sink, uint32_t i, int32_t v, int64_t rows);

// Nest under the root: the sink's TypedGroupTable*, fetched once per call
// of the generated function; rows then fold through the proteus_group_*
// helpers of src/jit/runtime.h.
void* proteus_sink_groups(void* sink);

// Collection root: stage one row's cells, then box it into the morsel's
// collection accumulator. emit_null stages a SQL-null cell (outer-join
// drain rows, outer-unnest rows). A set-monoid accumulator deduplicates on
// Add, so emit_end needs no set-specific variant here.
void proteus_sink_emit_int(void* sink, int64_t v);
void proteus_sink_emit_double(void* sink, double v);
void proteus_sink_emit_bool(void* sink, int32_t v);
void proteus_sink_emit_str(void* sink, const char* p, int64_t len);
void proteus_sink_emit_null(void* sink);
void proteus_sink_emit_end(void* sink);

// Outer joins: mark build row `row` of join table `table` as matched in
// this partial's bitmap (called after the join's residual predicate passes,
// mirroring the interpreter's matched_[idx] = true).
void proteus_sink_join_matched(void* sink, uint32_t table, int64_t row);

}  // extern "C"
