#include "src/engine/partial_sink.h"

#include <algorithm>
#include <cstring>

#include "src/common/counters.h"
#include "src/common/hash.h"
#include "src/obs/trace.h"

namespace proteus {

Status GroupTable::AddRow(const Operator& op, const EvalEnv& row) {
  PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(op.pred(), row));
  if (!pass) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(Value key, Eval(op.group_by(), row));
  Aggregator* group = group_aggs(UpsertKey(op, std::move(key)));
  for (size_t i = 0; i < op.outputs().size(); ++i) {
    const AggOutput& o = op.outputs()[i];
    if (o.monoid == Monoid::kCount) {
      group[i].Add(Value::Int(1));
    } else {
      PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(o.expr, row));
      group[i].Add(v);
    }
  }
  return Status::OK();
}

void GroupIndex::Insert(uint64_t hash, uint32_t group) {
  if ((size_ + 1) * 2 > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.group == kNone) continue;
      size_t b = s.hash & mask;
      while (slots_[b].group != kNone) b = (b + 1) & mask;
      slots_[b] = s;
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t b = hash & mask;
  while (slots_[b].group != kNone) b = (b + 1) & mask;
  slots_[b] = {hash, group};
  ++size_;
}

void GroupIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

size_t GroupTable::UpsertKey(const Operator& op, Value key) {
  const uint64_t h = key.Hash();
  const uint32_t found = index_.Find(h, [&](uint32_t g) { return keys[g].Equals(key); });
  if (found != GroupIndex::kNone) return found;
  const size_t group = keys.size();
  index_.Insert(h, static_cast<uint32_t>(group));
  keys.push_back(std::move(key));
  width = op.outputs().size();
  for (const auto& o : op.outputs()) aggs.emplace_back(o.monoid);
  if (count_bytes) GlobalCounters().bytes_materialized += 48;
  return group;
}

void GroupTable::MergeFrom(const Operator& op, GroupTable&& other) {
  for (size_t g = 0; g < other.keys.size(); ++g) {
    Aggregator* into = group_aggs(UpsertKey(op, std::move(other.keys[g])));
    Aggregator* from = other.group_aggs(g);
    for (size_t i = 0; i < width; ++i) into[i].Merge(std::move(from[i]));
  }
}

Value GroupTable::GroupRecord(const Operator& op, size_t g) const {
  std::vector<std::string> names{op.group_name()};
  std::vector<Value> values{keys[g]};
  for (size_t i = 0; i < op.outputs().size(); ++i) {
    names.push_back(op.outputs()[i].name);
    values.push_back(group_aggs(g)[i].Final());
  }
  return Value::MakeRecord(std::move(names), std::move(values));
}

void GroupTable::Serialize(WireWriter* w) const {
  w->PutU64(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    w->PutValue(keys[g]);
    w->PutU64(width);
    for (size_t i = 0; i < width; ++i) group_aggs(g)[i].Serialize(w);
  }
}

Result<GroupTable> GroupTable::Deserialize(WireReader* r) {
  GroupTable t;
  t.count_bytes = false;  // deserialized partials never re-count group bytes
  PROTEUS_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  if (n > r->remaining()) return Status::InvalidArgument("wire: bad group count");
  t.keys.reserve(n);
  for (uint64_t g = 0; g < n; ++g) {
    PROTEUS_ASSIGN_OR_RETURN(Value key, r->ReadValue());
    t.index_.Insert(key.Hash(), static_cast<uint32_t>(g));
    t.keys.push_back(std::move(key));
    PROTEUS_ASSIGN_OR_RETURN(uint64_t na, r->U64());
    if (na > r->remaining()) return Status::InvalidArgument("wire: bad aggregate count");
    if (g == 0) {
      // Every serialized Aggregator takes at least one byte, so a slab
      // larger than the unread payload is malformed — checked before the
      // reservation, which would otherwise trust two wire counts' product.
      if (na != 0 && n > r->remaining() / na) {
        return Status::InvalidArgument("wire: bad aggregate count");
      }
      t.width = na;
      t.aggs.reserve(n * na);
    } else if (na != t.width) {
      return Status::InvalidArgument("wire: groups with different aggregate counts");
    }
    for (uint64_t i = 0; i < na; ++i) {
      PROTEUS_ASSIGN_OR_RETURN(Aggregator a, Aggregator::Deserialize(r));
      t.aggs.push_back(std::move(a));
    }
  }
  return t;
}

TypedGroupTable::TypedGroupTable(TypedGroupSpec spec)
    : spec_(std::move(spec)), width_(spec_.slots.size()) {}

int64_t* TypedGroupTable::NewRow() {
  ++size_;
  rows_.insert(rows_.end(), spec_.init.begin(), spec_.init.end());
  rows_.resize(rows_.size() + width_, 0);
  int64_t* r = row(size_ - 1);
  for (size_t i = 0; i < width_; ++i) {
    if (spec_.slots[i] == TypeKind::kString) {
      r[i] = static_cast<int64_t>(reinterpret_cast<intptr_t>(&strs_.emplace_back()));
    }
  }
  return r;
}

int64_t* TypedGroupTable::Upsert(int64_t key) {
  const uint64_t h = HashMix64(static_cast<uint64_t>(key));
  const uint32_t g = index_.Find(h, [&](uint32_t c) { return keys_[c] == key; });
  if (g != GroupIndex::kNone) return row(g);
  index_.Insert(h, static_cast<uint32_t>(size_));
  keys_.push_back(key);
  return NewRow();
}

int64_t* TypedGroupTable::UpsertDouble(double key) {
  // Value::Equals on floats is ==: ±0 collide (so they must hash alike) and
  // NaN matches nothing, not even an earlier NaN.
  const double canon = key == 0 ? 0.0 : key;
  uint64_t canon_bits;
  std::memcpy(&canon_bits, &canon, sizeof(canon_bits));
  const uint64_t h = HashMix64(canon_bits);
  const uint32_t g = index_.Find(h, [&](uint32_t c) {
    double k;
    std::memcpy(&k, &keys_[c], sizeof(k));
    return k == key;
  });
  if (g != GroupIndex::kNone) return row(g);
  index_.Insert(h, static_cast<uint32_t>(size_));
  int64_t bits;
  std::memcpy(&bits, &key, sizeof(bits));
  keys_.push_back(bits);
  return NewRow();
}

int64_t* TypedGroupTable::UpsertStr(const char* p, size_t len) {
  const std::string_view key(p, len);
  const uint64_t h = HashString(key);
  const uint32_t g = index_.Find(h, [&](uint32_t c) { return skeys_[c] == key; });
  if (g != GroupIndex::kNone) return row(g);
  index_.Insert(h, static_cast<uint32_t>(size_));
  skeys_.emplace_back(key);
  return NewRow();
}

int64_t* TypedGroupTable::UpsertNull() {
  if (null_group_ != SIZE_MAX) return row(null_group_);
  null_group_ = size_;
  if (spec_.key == TypeKind::kString) {
    skeys_.emplace_back();
  } else {
    keys_.push_back(0);
  }
  return NewRow();
}

void TypedGroupTable::FlushInto(const Operator& nest, GroupTable* out) {
  out->keys.reserve(out->keys.size() + size_);
  out->aggs.reserve(out->aggs.size() + size_ * width_);
  for (size_t g = 0; g < size_; ++g) {
    Value key;
    if (g == null_group_) {
      key = Value::Null();
    } else if (spec_.key == TypeKind::kString) {
      key = Value::Str(std::move(skeys_[g]));
    } else if (spec_.key == TypeKind::kFloat64) {
      double d;
      std::memcpy(&d, &keys_[g], sizeof(d));
      key = Value::Float(d);
    } else if (spec_.key == TypeKind::kBool) {
      key = Value::Boolean(keys_[g] != 0);
    } else {
      key = Value::Int(keys_[g]);
    }
    Aggregator* aggs = out->group_aggs(out->UpsertKey(nest, std::move(key)));
    const int64_t* r = row(g);
    for (size_t i = 0; i < width_; ++i) {
      if (r[width_ + i] == 0) continue;  // no row contributed: stay empty
      switch (spec_.slots[i]) {
        case TypeKind::kFloat64: {
          double d;
          std::memcpy(&d, &r[i], sizeof(d));
          aggs[i].LoadScalar(Value::Float(d));
          break;
        }
        case TypeKind::kBool:
          aggs[i].LoadScalar(Value::Boolean(r[i] != 0));
          break;
        case TypeKind::kString:
          aggs[i].LoadScalar(
              Value::Str(std::move(*reinterpret_cast<std::string*>(static_cast<intptr_t>(r[i])))));
          break;
        default:
          aggs[i].LoadScalar(Value::Int(r[i]));
          break;
      }
    }
  }
  Clear();
}

void TypedGroupTable::Clear() {
  size_ = 0;
  keys_.clear();
  skeys_.clear();
  rows_.clear();
  strs_.clear();
  index_.Clear();
  null_group_ = SIZE_MAX;
}

const std::string& NestBinding(const Operator& op) {
  static const std::string kDefault = "$group";
  return op.binding().empty() ? kDefault : op.binding();
}

Status AccumulateReduceRow(const Operator& reduce, const EvalEnv& row,
                           std::vector<Aggregator>* aggs) {
  PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(reduce.pred(), row));
  if (!pass) return Status::OK();
  const auto& outputs = reduce.outputs();
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].monoid == Monoid::kCount) {
      (*aggs)[i].Add(Value::Int(1));
    } else {
      PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(outputs[i].expr, row));
      (*aggs)[i].Add(v);
    }
  }
  return Status::OK();
}

std::vector<Aggregator> MakeReduceAggs(const Operator& reduce) {
  std::vector<Aggregator> aggs;
  aggs.reserve(reduce.outputs().size());
  for (const auto& o : reduce.outputs()) aggs.emplace_back(o.monoid);
  return aggs;
}

QueryResult FinalizeReduce(const Operator& reduce, std::vector<Aggregator>& aggs) {
  const auto& outputs = reduce.outputs();
  QueryResult result;
  // A single collection output of records unfolds into a row set.
  if (outputs.size() == 1 && IsCollectionMonoid(outputs[0].monoid)) {
    Value collected = aggs[0].Final();
    const ValueList& items = collected.list();
    bool records = !items.empty() && items[0].is_record();
    if (records) {
      result.columns = items[0].record().names;
      for (const auto& item : items) {
        result.rows.push_back(item.record().values);
      }
    } else {
      result.columns = {outputs[0].name};
      for (const auto& item : items) result.rows.push_back({item});
    }
    GlobalCounters().tuples_output += result.rows.size();
    return result;
  }
  for (const auto& o : outputs) result.columns.push_back(o.name);
  result.rows.emplace_back();
  for (auto& a : aggs) result.rows[0].push_back(a.Final());
  GlobalCounters().tuples_output += 1;
  return result;
}

void PlanPartials::Append(PlanPartials&& other) {
  nest = nest || other.nest;
  for (auto& m : other.agg_morsels) agg_morsels.push_back(std::move(m));
  for (auto& m : other.group_morsels) group_morsels.push_back(std::move(m));
}

Result<QueryResult> FinalizePlanPartials(const Operator& reduce, const Operator* nest,
                                         PlanPartials&& partials,
                                         obs::TraceRecorder* trace) {
  obs::TraceSpan span(trace, "partial_merge", "morsels",
                      static_cast<int64_t>(partials.num_morsels()));
  if (partials.num_morsels() == 0) {
    return Status::Internal("FinalizePlanPartials requires at least one morsel partial");
  }
  if (nest != nullptr) {
    GroupTable merged = std::move(partials.group_morsels[0]);
    for (size_t m = 1; m < partials.group_morsels.size(); ++m) {
      merged.MergeFrom(*nest, std::move(partials.group_morsels[m]));
    }
    span.set_arg1("groups", static_cast<int64_t>(merged.keys.size()));
    // Serial-parity materialization estimate: 48 bytes per distinct group.
    GlobalCounters().bytes_materialized += 48 * merged.keys.size();
    // Stream the merged groups through the Reduce root serially (group
    // counts are small next to input cardinalities).
    std::vector<Aggregator> aggs = MakeReduceAggs(reduce);
    for (size_t g = 0; g < merged.keys.size(); ++g) {
      EvalEnv row;
      row[NestBinding(*nest)] = merged.GroupRecord(*nest, g);
      PROTEUS_RETURN_NOT_OK(AccumulateReduceRow(reduce, row, &aggs));
    }
    return FinalizeReduce(reduce, aggs);
  }
  std::vector<Aggregator> aggs = std::move(partials.agg_morsels[0]);
  for (size_t m = 1; m < partials.agg_morsels.size(); ++m) {
    for (size_t i = 0; i < aggs.size(); ++i) aggs[i].Merge(std::move(partials.agg_morsels[m][i]));
  }
  return FinalizeReduce(reduce, aggs);
}

}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI partial-sink entry points (generated code -> JitMorselSink)
// ---------------------------------------------------------------------------

namespace {

proteus::JitMorselSink* SINK(void* p) { return static_cast<proteus::JitMorselSink*>(p); }

}  // namespace

extern "C" {

void proteus_sink_agg_flush_int(void* sink, uint32_t i, int64_t v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Int(v));
}

void proteus_sink_agg_flush_double(void* sink, uint32_t i, double v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Float(v));
}

void proteus_sink_agg_flush_bool(void* sink, uint32_t i, int32_t v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Boolean(v != 0));
}

void* proteus_sink_groups(void* sink) { return SINK(sink)->groups; }

void proteus_sink_emit_int(void* sink, int64_t v) {
  SINK(sink)->staged.push_back(proteus::Value::Int(v));
}

void proteus_sink_emit_double(void* sink, double v) {
  SINK(sink)->staged.push_back(proteus::Value::Float(v));
}

void proteus_sink_emit_bool(void* sink, int32_t v) {
  SINK(sink)->staged.push_back(proteus::Value::Boolean(v != 0));
}

void proteus_sink_emit_str(void* sink, const char* p, int64_t len) {
  SINK(sink)->staged.push_back(proteus::Value::Str(std::string(p, static_cast<size_t>(len))));
}

void proteus_sink_emit_null(void* sink) {
  SINK(sink)->staged.push_back(proteus::Value::Null());
}

void proteus_sink_join_matched(void* sink, uint32_t table, int64_t row) {
  (*SINK(sink)->matched)[table][static_cast<size_t>(row)] = 1;
}

void proteus_sink_emit_end(void* sink) {
  proteus::JitMorselSink* s = SINK(sink);
  if (s->row_records) {
    (*s->aggs)[0].Add(proteus::Value::MakeRecord(*s->columns, std::move(s->staged)));
  } else {
    (*s->aggs)[0].Add(s->staged[0]);
  }
  s->staged.clear();
}

}  // extern "C"
