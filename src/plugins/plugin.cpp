#include "src/plugins/plugin.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>

#include "src/common/task_scheduler.h"
#include "src/obs/trace.h"

namespace proteus {

std::string DottedPath(const FieldPath& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i) out += '.';
    out += path[i];
  }
  return out;
}

FieldPath SplitPath(const std::string& dotted) {
  FieldPath out;
  std::string cur;
  for (char c : dotted) {
    if (c == '.') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

Result<Value> InputPlugin::ReadRecord(uint64_t oid, const std::vector<FieldPath>& fields) {
  // Group requested paths by head field, reconstructing nested sub-records so
  // that Proj chains evaluate naturally over the result.
  std::vector<std::string> names;
  std::vector<Value> values;
  // Preserve request order but merge duplicate heads.
  std::vector<std::pair<std::string, std::vector<FieldPath>>> groups;
  for (const auto& p : fields) {
    if (p.empty()) continue;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == p[0]; });
    if (it == groups.end()) {
      groups.push_back({p[0], {}});
      it = groups.end() - 1;
    }
    if (p.size() > 1) it->second.push_back(FieldPath(p.begin() + 1, p.end()));
  }
  for (auto& [head, subpaths] : groups) {
    if (subpaths.empty()) {
      PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, {head}));
      names.push_back(head);
      values.push_back(std::move(v));
    } else {
      // Nested reconstruction: read each leaf and assemble a sub-record.
      std::vector<std::string> sub_names;
      std::vector<Value> sub_values;
      for (auto& sp : subpaths) {
        FieldPath full{head};
        full.insert(full.end(), sp.begin(), sp.end());
        PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, full));
        // Re-nest one level at a time.
        for (size_t k = sp.size(); k-- > 1;) {
          v = Value::MakeRecord({sp[k]}, {std::move(v)});
        }
        sub_names.push_back(sp[0]);
        sub_values.push_back(std::move(v));
      }
      names.push_back(head);
      values.push_back(Value::MakeRecord(std::move(sub_names), std::move(sub_values)));
    }
  }
  return Value::MakeRecord(std::move(names), std::move(values));
}

Result<std::unique_ptr<UnnestCursor>> InputPlugin::UnnestInit(uint64_t oid,
                                                              const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, path));
  if (v.is_null()) {
    return std::unique_ptr<UnnestCursor>(new ValueListUnnestCursor({}));
  }
  if (!v.is_list()) {
    return Status::TypeError("unnest path " + DottedPath(path) + " is not a collection");
  }
  return std::unique_ptr<UnnestCursor>(new ValueListUnnestCursor(v.list()));
}

Result<uint64_t> InputPlugin::HashValue(uint64_t oid, const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, path));
  return v.Hash();
}

Status InputPlugin::FlushValue(uint64_t oid, const FieldPath& path, std::string* out) {
  PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, path));
  out->append(v.ToString());
  return Status::OK();
}

namespace {

/// Recursively enumerates numeric leaf paths of a record type, skipping
/// collection contents (array stats are the unnest operator's concern).
void NumericLeafPaths(const Type& rec, FieldPath* prefix, std::vector<FieldPath>* out) {
  for (const auto& f : rec.fields()) {
    prefix->push_back(f.name);
    if (f.type->is_numeric()) {
      out->push_back(*prefix);
    } else if (f.type->kind() == TypeKind::kRecord) {
      NumericLeafPaths(*f.type, prefix, out);
    }
    prefix->pop_back();
  }
}

}  // namespace

void InputPlugin::AccumulateStats(uint64_t begin, uint64_t end,
                                  const std::vector<FieldPath>& leaves,
                                  ColumnStatsAccumulator* acc, Status* errors) {
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (uint64_t oid = begin; oid < end; ++oid) {
      auto v = ReadValue(oid, leaves[i]);
      if (!v.ok()) {
        // Optional JSON fields: an absent leaf is a null, not an error —
        // the same leniency the scan cursors apply.
        if (v.status().code() == StatusCode::kNotFound) continue;
        errors[i] = v.status();
        break;
      }
      if (v->is_null()) continue;
      acc[i].Add(v->AsFloat(), v->Hash());
    }
  }
}

Result<DatasetStats> InputPlugin::ComputeStats(TaskScheduler* scheduler) {
  PROTEUS_RETURN_NOT_OK(Open(scheduler));
  std::vector<FieldPath> leaves;
  FieldPath prefix;
  NumericLeafPaths(info().record_type(), &prefix, &leaves);
  // Per-chunk accumulators and errors, merged in chunk order below: the
  // result is the one leaf-by-leaf serial pass's, at any chunk count.
  const std::vector<ScanRange> chunks = EvenSplit(NumRecords(), OpenChunks(scheduler));
  std::vector<ColumnStatsAccumulator> acc(chunks.size() * leaves.size());
  std::vector<Status> errors(chunks.size() * leaves.size());
  PROTEUS_RETURN_NOT_OK(ForEachChunk(scheduler, chunks.size(), [&](uint64_t c) {
    AccumulateStats(chunks[c].begin, chunks[c].end, leaves, &acc[c * leaves.size()],
                    &errors[c * leaves.size()]);
  }));
  DatasetStats ds;
  ds.cardinality = NumRecords();
  for (size_t i = 0; i < leaves.size(); ++i) {
    ColumnStatsAccumulator merged;
    for (size_t c = 0; c < chunks.size(); ++c) {
      PROTEUS_RETURN_NOT_OK(errors[c * leaves.size() + i]);
      merged.Merge(acc[c * leaves.size() + i]);
    }
    ds.columns[DottedPath(leaves[i])] = merged.Finish();
  }
  ds.valid = true;
  return ds;
}

Status InputPlugin::CollectStats(StatsStore* store, TaskScheduler* scheduler) {
  // Build locally, publish atomically: a concurrent query's optimizer must
  // never observe a half-filled DatasetStats.
  PROTEUS_ASSIGN_OR_RETURN(DatasetStats ds, ComputeStats(scheduler));
  store->Publish(info().name, std::move(ds));
  return Status::OK();
}

uint64_t OpenChunks(const TaskScheduler* scheduler) {
  return scheduler != nullptr ? static_cast<uint64_t>(scheduler->num_threads()) : 1;
}

Status ForEachChunk(TaskScheduler* scheduler, uint64_t n,
                    const std::function<void(uint64_t)>& fn) {
  if (scheduler == nullptr) {
    for (uint64_t c = 0; c < n; ++c) fn(c);
    return Status::OK();
  }
  return scheduler->ParallelFor(n, [&](uint64_t c, int) {
    fn(c);
    return Status::OK();
  });
}

std::vector<uint64_t> LineAlignedCuts(const char* data, uint64_t begin, uint64_t end,
                                      uint64_t parts) {
  std::vector<uint64_t> cuts(parts + 1, end);
  cuts[0] = begin;
  for (uint64_t i = 1; i < parts; ++i) {
    const uint64_t nominal = std::max(cuts[i - 1], begin + (end - begin) * i / parts);
    const void* nl = nominal < end ? std::memchr(data + nominal, '\n', end - nominal) : nullptr;
    cuts[i] = nl != nullptr ? static_cast<uint64_t>(static_cast<const char*>(nl) - data) + 1 : end;
  }
  return cuts;
}

std::vector<ScanRange> EvenSplit(uint64_t n, uint64_t max_morsels) {
  if (max_morsels == 0) max_morsels = 1;
  const uint64_t morsels = std::min<uint64_t>(max_morsels, n == 0 ? 1 : n);
  std::vector<ScanRange> out;
  out.reserve(morsels);
  uint64_t begin = 0;
  for (uint64_t m = 0; m < morsels; ++m) {
    // Even split with the remainder spread over the first ranges.
    uint64_t end = begin + n / morsels + (m < n % morsels ? 1 : 0);
    out.push_back({begin, end});
    begin = end;
  }
  return out;
}

std::vector<ScanRange> InputPlugin::Split(uint64_t max_morsels) const {
  return EvenSplit(NumRecords(), max_morsels);
}

std::vector<ScanRange> SplitByByteOffsets(const std::vector<uint64_t>& starts, uint64_t n,
                                          uint64_t end_byte, uint64_t max_morsels) {
  std::vector<ScanRange> out;
  if (n == 0 || max_morsels == 0) {
    out.push_back({0, n});
    return out;
  }
  const uint64_t total = end_byte - starts[0];
  const uint64_t target = std::max<uint64_t>(1, total / std::min(max_morsels, n));
  uint64_t begin = 0;
  uint64_t cut_bytes = starts[0] + target;
  for (uint64_t i = 1; i < n; ++i) {
    if (starts[i] >= cut_bytes && out.size() + 1 < max_morsels) {
      out.push_back({begin, i});
      begin = i;
      cut_bytes = starts[i] + target;
    }
  }
  out.push_back({begin, n});
  return out;
}

Result<InputPlugin*> PluginRegistry::GetOrOpen(const DatasetInfo& info, StatsStore* stats) {
  // Manual Lock/Unlock (not MutexLock): the single-flight protocol drops the
  // lock around the cold open below, and the thread-safety analysis checks
  // that every return path balances.
  mu_.Lock();
  for (;;) {
    auto it = open_.find(info.name);
    if (it == open_.end()) break;  // cold: this thread opens
    if (it->second != nullptr) {
      InputPlugin* warm = it->second.get();
      mu_.Unlock();
      return warm;
    }
    opened_cv_.Wait(mu_);  // another thread is opening this dataset
  }
  open_.emplace(info.name, nullptr);
  mu_.Unlock();

  // Cold access: build the structural index, then gather statistics while
  // I/O is warm (paper §5.2) — both fanned out over the scheduler.
  std::unique_ptr<InputPlugin> plugin;
  std::optional<DatasetStats> ds;
  Status st = [&]() -> Status {
    PROTEUS_ASSIGN_OR_RETURN(plugin, CreateInputPlugin(info));
    {
      obs::TraceSpan span(trace_, "structural_index");
      PROTEUS_RETURN_NOT_OK(plugin->Open(scheduler_));
      span.set_arg0("records", static_cast<int64_t>(plugin->NumRecords()));
    }
    if (stats == nullptr || stats->Find(info.name) != nullptr) return Status::OK();
    OBS_SPAN(trace_, "collect_stats");
    PROTEUS_ASSIGN_OR_RETURN(ds, plugin->ComputeStats(scheduler_));
    return Status::OK();
  }();

  mu_.Lock();
  auto it = open_.find(info.name);  // still our marker: Evict waits for us
  if (!st.ok()) {
    // Failures are not cached: waiters (and later lookups) retry.
    open_.erase(it);
    mu_.Unlock();
    opened_cv_.NotifyAll();
    return st;
  }
  if (ds.has_value()) stats->Publish(info.name, std::move(*ds));
  it->second = std::move(plugin);
  InputPlugin* raw = it->second.get();
  mu_.Unlock();
  opened_cv_.NotifyAll();
  return raw;
}

void PluginRegistry::Evict(const std::string& dataset) {
  MutexLock lk(mu_);
  for (;;) {
    auto it = open_.find(dataset);
    if (it == open_.end()) return;
    if (it->second != nullptr) {
      open_.erase(it);
      return;
    }
    opened_cv_.Wait(mu_);
  }
}

}  // namespace proteus
