// Input plug-in API (paper §5.2, Table 2).
//
// Each supported file format has an input plug-in that encapsulates format
// heterogeneity: it "generates" the scan access path, serves lazy field reads
// addressed by OID, iterates nested collections for the Unnest operator, and
// supplies statistics plus cost formulas to the optimizer.
//
// Mapping to the paper's Table 2 API:
//   generate()        -> Open() + the scan loop over [0, NumRecords())
//   readValue()       -> ReadValue(oid, path) for a primitive leaf
//   readPath()        -> ReadValue(oid, path) for nested paths / ReadRecord()
//   hashValue()       -> HashValue(oid, path)
//   flushValue()      -> FlushValue(oid, path, out)
//   unnestInit()      -> UnnestInit(oid, path)
//   unnestHasNext()   -> UnnestCursor::HasNext()
//   unnestGetNext()   -> UnnestCursor::GetNext()
//
// The JIT engine additionally specializes scans per format (direct loads for
// binary data, structural-index helpers for CSV/JSON); see src/jit/.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace proteus {

class TaskScheduler;
namespace obs {
class TraceRecorder;
}

/// A dotted access path into a record, e.g. {"origin", "country"}.
using FieldPath = std::vector<std::string>;

std::string DottedPath(const FieldPath& path);
FieldPath SplitPath(const std::string& dotted);

/// Iterates the elements of one nested collection of one record
/// (unnestInit / unnestHasNext / unnestGetNext).
class UnnestCursor {
 public:
  virtual ~UnnestCursor() = default;
  virtual bool HasNext() = 0;
  virtual Result<Value> GetNext() = 0;
};

/// A half-open OID range [begin, end) — one morsel of a splittable scan.
struct ScanRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t size() const { return end - begin; }
};

class InputPlugin {
 public:
  virtual ~InputPlugin() = default;

  virtual const DatasetInfo& info() const = 0;
  virtual const char* name() const = 0;

  /// Prepares the dataset for scanning; builds the structural index on the
  /// first (cold) access for raw formats. Idempotent. Raw formats fan the
  /// build out over `scheduler`'s workers (nullable: one chunk, inline);
  /// the index is byte-identical at every worker count.
  virtual Status Open(TaskScheduler* scheduler) = 0;
  Status Open() { return Open(nullptr); }

  /// Number of records / "tuples"; valid after Open(). OIDs are [0, n).
  virtual uint64_t NumRecords() const = 0;

  /// Lazily reads a (possibly nested) field of record `oid` and converts it
  /// to a boxed value. Raw formats count a raw_field_access.
  virtual Result<Value> ReadValue(uint64_t oid, const FieldPath& path) = 0;

  /// Reads record `oid` restricted to `fields` (the pushed-down projection
  /// set). Nested paths reconstruct the enclosing sub-records.
  virtual Result<Value> ReadRecord(uint64_t oid, const std::vector<FieldPath>& fields);

  /// Opens a cursor over the nested collection at `path` of record `oid`.
  virtual Result<std::unique_ptr<UnnestCursor>> UnnestInit(uint64_t oid,
                                                           const FieldPath& path);

  /// Hash of a field value, for join/group keys.
  virtual Result<uint64_t> HashValue(uint64_t oid, const FieldPath& path);

  /// Appends the textual form of a field value to `out` (result flushing).
  virtual Status FlushValue(uint64_t oid, const FieldPath& path, std::string* out);

  /// Gathers dataset statistics (cardinality; min/max/ndv per numeric
  /// leaf), opening the plug-in first if needed. The default splits the
  /// records into one chunk per `scheduler` worker (nullable: one chunk),
  /// runs AccumulateStats per chunk in parallel and merges the chunks in
  /// order, so the result is bit-identical at every worker count.
  virtual Result<DatasetStats> ComputeStats(TaskScheduler* scheduler);

  /// ComputeStats, then publishes the result into `store` in one step.
  /// Called on the cold access / by the idle daemon.
  Status CollectStats(StatsStore* store, TaskScheduler* scheduler = nullptr);

  /// Cost formula inputs used by the optimizer (paper: each plug-in provides
  /// costing for its data source). Units are abstract "work per tuple".
  virtual double CostPerTuple() const = 0;
  virtual double CostPerField() const = 0;

  /// Bytes of auxiliary structural index memory (0 for binary formats).
  virtual size_t StructuralIndexBytes() const { return 0; }

  /// Splits [0, NumRecords()) into at most `max_morsels` contiguous ranges
  /// for morsel-driven parallel scans. Raw formats override this to balance
  /// *bytes* per morsel using their structural index (JSON objects and CSV
  /// rows vary in width); the default splits record counts evenly. Must be
  /// deterministic for a given dataset — parallel results are required to be
  /// identical across thread counts, so morsel boundaries may depend only on
  /// the data, never on the worker count. Valid after Open().
  virtual std::vector<ScanRange> Split(uint64_t max_morsels) const;

 protected:
  /// Folds records [begin, end) into `acc[i]` for each numeric leaf
  /// `leaves[i]` (null and absent values skipped). On a bad value, leaf i's
  /// fold stops and `errors[i]` holds the failure of its lowest bad record —
  /// ComputeStats reports the first one in (leaf, record) order, as a
  /// leaf-by-leaf serial pass would. The default reads boxed values through
  /// ReadValue; raw formats override it with a typed pass.
  virtual void AccumulateStats(uint64_t begin, uint64_t end, const std::vector<FieldPath>& leaves,
                               ColumnStatsAccumulator* acc, Status* errors);
};

/// Number of chunks a cold-open pass splits into: one per `scheduler`
/// worker, or 1 without a scheduler.
uint64_t OpenChunks(const TaskScheduler* scheduler);

/// Runs `fn(chunk)` for every chunk in [0, n) on `scheduler`'s workers
/// (inline when null). Chunks report failures through their own state, not
/// by cancelling the batch: which chunks ran before a best-effort cancel is
/// scheduling-dependent, and callers need the *first* failure in file order.
Status ForEachChunk(TaskScheduler* scheduler, uint64_t n,
                    const std::function<void(uint64_t)>& fn);

/// Cuts bytes [begin, end) of `data` into `parts` ranges that each start
/// right after a '\n' (or at `begin`), so every line lies in exactly one
/// range. Returns `parts + 1` ascending cut offsets; ranges may be empty.
std::vector<uint64_t> LineAlignedCuts(const char* data, uint64_t begin, uint64_t end,
                                      uint64_t parts);

/// Even record-count split of [0, n) into at most `max_morsels` contiguous
/// ranges, the remainder spread over the first ranges. The default
/// InputPlugin::Split and the cache-block split share this so morsel
/// boundaries stay identical across code paths.
std::vector<ScanRange> EvenSplit(uint64_t n, uint64_t max_morsels);

/// Byte-balanced morsel split over a structural index: `starts[i]` is the
/// byte offset of record i (`starts` holds at least `n` entries), `end_byte`
/// the end of the last record. Returns at most `max_morsels` OID ranges
/// cut so each covers roughly equal bytes — raw records vary in width, and
/// balancing bytes instead of record counts is what keeps morsel run times
/// even. Shared by the JSON and CSV plug-ins.
std::vector<ScanRange> SplitByByteOffsets(const std::vector<uint64_t>& starts, uint64_t n,
                                          uint64_t end_byte, uint64_t max_morsels);

/// Creates the plug-in matching `info.format`. Adding a format = adding a
/// case here plus an InputPlugin subclass (paper: "adding a plug-in suffices
/// to support a new data format").
Result<std::unique_ptr<InputPlugin>> CreateInputPlugin(const DatasetInfo& info);

/// Keeps plug-ins (and their structural indexes) alive across queries.
/// Cold opens are single-flight per dataset: the first caller builds the
/// index and gathers statistics with the registry lock released, while
/// later callers for the same dataset wait for it to publish — so a slow
/// open of one dataset never blocks a warm lookup of another. The parallel
/// executor pre-opens every scanned dataset before fanning out; the open
/// itself fans out over `scheduler` (the engine's pool, shared with query
/// execution — no extra threads).
class PluginRegistry {
 public:
  /// `scheduler` runs the cold-open passes (nullable: inline, one chunk);
  /// `trace` (nullable) receives a `structural_index` and a `collect_stats`
  /// span per cold open, on the opening thread.
  explicit PluginRegistry(TaskScheduler* scheduler = nullptr,
                          obs::TraceRecorder* trace = nullptr)
      : scheduler_(scheduler), trace_(trace) {}

  /// Returns the opened plug-in for `info.name`, creating it on first use
  /// (the cold access, where index construction and stats gathering happen;
  /// `stats` null skips the latter). Statistics are published at most once
  /// per open, before the plug-in becomes visible to other callers.
  Result<InputPlugin*> GetOrOpen(const DatasetInfo& info, StatsStore* stats) EXCLUDES(mu_);

  /// Drops the plug-in (e.g. after an append invalidates its index). Waits
  /// for an in-flight open of `dataset` to finish first.
  void Evict(const std::string& dataset) EXCLUDES(mu_);

 private:
  TaskScheduler* const scheduler_;
  obs::TraceRecorder* const trace_;
  Mutex mu_;
  CondVar opened_cv_;  ///< signalled whenever an in-flight open finishes
  /// A null plug-in marks an open in flight.
  std::unordered_map<std::string, std::unique_ptr<InputPlugin>> open_ GUARDED_BY(mu_);
};

/// Shared default implementation: builds an UnnestCursor over a ValueList.
class ValueListUnnestCursor : public UnnestCursor {
 public:
  explicit ValueListUnnestCursor(ValueList values) : values_(std::move(values)) {}
  bool HasNext() override { return pos_ < values_.size(); }
  Result<Value> GetNext() override { return values_[pos_++]; }

 private:
  ValueList values_;
  size_t pos_ = 0;
};

}  // namespace proteus
