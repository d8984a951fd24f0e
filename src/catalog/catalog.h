// Dataset registry and metadata store.
//
// Proteus queries data in situ: registering a dataset records its format,
// location, and schema, but moves no data. Statistics are collected lazily by
// the input plug-ins (first cold scan / materialization points / idle daemon,
// paper §5.2 "Enabling Cost-based Optimizations").
#pragma once

#include <atomic>
#include <bitset>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/types/type.h"

namespace proteus {

enum class DataFormat { kCSV, kJSON, kBinaryRow, kBinaryColumn, kCacheBlock };

const char* DataFormatName(DataFormat f);

struct CSVOptions {
  char delimiter = ',';
  bool has_header = false;
  /// Structural index stride: the position of every Nth field of each row is
  /// indexed (paper §5.2: "Proteus stores the position of every Nth field").
  int index_stride = 10;
};

struct JSONOptions {
  /// When true, the plug-in verifies all objects share one field order during
  /// index construction and, if so, drops Level 0 in favour of deterministic
  /// slot positions (paper §5.2 "Specializing per Dataset Contents").
  bool exploit_fixed_schema = true;
};

struct DatasetInfo {
  std::string name;
  DataFormat format = DataFormat::kCSV;
  std::string path;   ///< file (CSV/JSON/binrow) or directory (bincol)
  TypePtr type;       ///< bag<record<...>>; the element record is the schema
  CSVOptions csv{};
  JSONOptions json{};

  const Type& record_type() const { return *type->elem(); }
};

/// Per-column statistics gathered by input plug-ins.
struct ColumnStats {
  bool valid = false;
  double min = 0.0;
  double max = 0.0;
  /// Crude distinct-count estimate (linear counting on a small bitmap).
  uint64_t ndv = 0;
};

/// The linear-counting estimator behind ColumnStats::ndv: one bit per value
/// hash, ndv ≈ -m·ln(zeros/m). Near-exact far below m distinct values —
/// plenty for the optimizer's duplication-ratio test (build rows / ndv),
/// which only needs order-of-magnitude fidelity.
class NdvSketch {
 public:
  void Add(uint64_t hash) { bits_.set((hash ^ (hash >> 23)) % kBits); }
  /// Union with a sketch of another slice of the same column: adding a
  /// column's values in any split, then merging, sets exactly the bits one
  /// sketch over the whole column would.
  void Merge(const NdvSketch& other) { bits_ |= other.bits_; }
  uint64_t Estimate() const {
    const uint64_t zeros = kBits - bits_.count();
    if (zeros == 0) return kBits;
    const double est = -static_cast<double>(kBits) *
                       std::log(static_cast<double>(zeros) / static_cast<double>(kBits));
    return static_cast<uint64_t>(est + 0.5);
  }

 private:
  static constexpr uint64_t kBits = 1 << 14;
  std::bitset<kBits> bits_;
};

/// Folds one column's values into ColumnStats with the semantics of a single
/// in-order pass (`if (first || d < min) min = d`, likewise max): the first
/// value seeds min and max, so a leading NaN sticks and later NaNs are
/// ignored. Keeping the NaN-free extremes apart from that seed makes the
/// fold splittable: accumulators over consecutive slices of a column,
/// merged in slice order, finish bit-identical to one accumulator over the
/// whole column — which is what lets plug-ins gather statistics in parallel
/// chunks without changing optimizer plans.
class ColumnStatsAccumulator {
 public:
  void Add(double d, uint64_t hash) {
    sketch_.Add(hash);
    if (!seen_) {
      seen_ = true;
      seed_ = d;
    }
    if (std::isnan(d)) return;
    if (!has_num_ || d < min_) min_ = d;
    if (!has_num_ || d > max_) max_ = d;
    has_num_ = true;
  }

  /// Appends `next`, which covers the slice right after this one.
  void Merge(const ColumnStatsAccumulator& next) {
    sketch_.Merge(next.sketch_);
    if (!next.seen_) return;
    if (!seen_) {
      seen_ = true;
      seed_ = next.seed_;
    }
    if (!next.has_num_) return;
    if (!has_num_ || next.min_ < min_) min_ = next.min_;
    if (!has_num_ || next.max_ > max_) max_ = next.max_;
    has_num_ = true;
  }

  ColumnStats Finish() const {
    ColumnStats cs;
    cs.valid = seen_;
    if (seen_) {
      const bool nan_seed = std::isnan(seed_);
      cs.min = nan_seed ? seed_ : min_;
      cs.max = nan_seed ? seed_ : max_;
    }
    cs.ndv = sketch_.Estimate();
    return cs;
  }

 private:
  NdvSketch sketch_;
  bool seen_ = false;     ///< any non-null value
  double seed_ = 0.0;     ///< the first value (a NaN here pins min/max to it)
  bool has_num_ = false;  ///< any non-NaN value
  double min_ = 0.0;      ///< extremes over the non-NaN values
  double max_ = 0.0;
};

struct DatasetStats {
  bool valid = false;
  uint64_t cardinality = 0;
  std::map<std::string, ColumnStats> columns;  ///< keyed by dotted field path
};

/// Metadata store: statistics per data source (paper §5.2). Thread-safe:
/// with concurrent queries on one engine, one query's optimizer can read a
/// dataset's stats while another query's cold scan is publishing them.
/// Writers build a complete DatasetStats locally and Publish() it in one
/// step; readers get an immutable shared snapshot that stays valid even if
/// the entry is invalidated or republished underneath them.
class StatsStore {
 public:
  /// Atomically installs a fully-built statistics object for `dataset`,
  /// replacing any previous one.
  void Publish(const std::string& dataset, DatasetStats stats) {
    auto sp = std::make_shared<const DatasetStats>(std::move(stats));
    MutexLock lk(mu_);
    stats_[dataset] = std::move(sp);
    ++publishes_;
  }

  /// Publish() calls so far: how many times statistics were (re)gathered.
  uint64_t publishes() const {
    MutexLock lk(mu_);
    return publishes_;
  }

  /// Immutable snapshot (null when absent).
  std::shared_ptr<const DatasetStats> Find(const std::string& dataset) const {
    MutexLock lk(mu_);
    auto it = stats_.find(dataset);
    return it == stats_.end() ? nullptr : it->second;
  }

  void Invalidate(const std::string& dataset) {
    MutexLock lk(mu_);
    stats_.erase(dataset);
  }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const DatasetStats>> stats_
      GUARDED_BY(mu_);
  uint64_t publishes_ GUARDED_BY(mu_) = 0;
};

/// Dataset registry. Thread-safe for the serving workload: registrations
/// are expected at setup time, but lookups may race a late registration.
/// Entries are never erased (InvalidateDataset drops plug-ins/stats/caches,
/// not the registration), so the DatasetInfo pointers Get() hands out stay
/// valid for the catalog's lifetime.
class Catalog {
 public:
  Status Register(DatasetInfo info);
  Result<const DatasetInfo*> Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    MutexLock lk(mu_);
    return datasets_.count(name) > 0;
  }
  std::vector<std::string> ListDatasets() const;

  StatsStore& stats() { return stats_; }
  const StatsStore& stats() const { return stats_; }

  /// Monotonic catalog version, part of the compiled-query cache key:
  /// codegen bakes schema-derived constants (column indices, row widths,
  /// JSON path hashes) into generated code, so any registration or dataset
  /// invalidation must retire previously compiled modules. Bumped by
  /// Register() and by QueryEngine::InvalidateDataset via BumpEpoch().
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, DatasetInfo> datasets_ GUARDED_BY(mu_);
  StatsStore stats_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace proteus
