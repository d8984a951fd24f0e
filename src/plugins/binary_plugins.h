// Input plug-ins for the relational binary formats (row- and column-
// oriented). These are the cheapest access paths: field reads are direct
// memory loads at computed positions, with no parsing and no structural
// index (paper §5.2 "for binary relational data, an input plug-in generates
// code reading the memory positions of the required data fields").
#pragma once

#include <optional>

#include "src/plugins/plugin.h"
#include "src/storage/bincol_format.h"
#include "src/storage/binrow_format.h"

namespace proteus {

class BinColPlugin : public InputPlugin {
 public:
  explicit BinColPlugin(DatasetInfo info) : info_(std::move(info)) {}

  const DatasetInfo& info() const override { return info_; }
  const char* name() const override { return "bincol"; }
  using InputPlugin::Open;
  /// Maps the columns; nothing to index, so `scheduler` is unused.
  Status Open(TaskScheduler* scheduler) override;
  uint64_t NumRecords() const override { return reader_ ? reader_->num_rows() : 0; }
  Result<Value> ReadValue(uint64_t oid, const FieldPath& path) override;
  /// Typed serial pass over the column arrays (memory-bandwidth bound).
  Result<DatasetStats> ComputeStats(TaskScheduler* scheduler) override;
  double CostPerTuple() const override { return 1.0; }
  double CostPerField() const override { return 1.0; }
  /// Rows are fixed width; morsel boundaries snap to 1024-row blocks so
  /// workers touch disjoint, prefetch-friendly column segments.
  std::vector<ScanRange> Split(uint64_t max_morsels) const override;

  /// Direct reader access for the JIT scan specialization.
  const BinColReader* reader() const { return reader_ ? &*reader_ : nullptr; }

 private:
  DatasetInfo info_;
  std::optional<BinColReader> reader_;
};

class BinRowPlugin : public InputPlugin {
 public:
  explicit BinRowPlugin(DatasetInfo info) : info_(std::move(info)) {}

  const DatasetInfo& info() const override { return info_; }
  const char* name() const override { return "binrow"; }
  using InputPlugin::Open;
  /// Maps the file; nothing to index, so `scheduler` is unused.
  Status Open(TaskScheduler* scheduler) override;
  uint64_t NumRecords() const override { return reader_ ? reader_->num_rows() : 0; }
  Result<Value> ReadValue(uint64_t oid, const FieldPath& path) override;
  double CostPerTuple() const override { return 1.2; }  // wider rows pollute cache lines
  double CostPerField() const override { return 1.0; }
  /// Same block-aligned split as BinColPlugin (fixed-width rows).
  std::vector<ScanRange> Split(uint64_t max_morsels) const override;

  const BinRowReader* reader() const { return reader_ ? &*reader_ : nullptr; }

 private:
  DatasetInfo info_;
  std::optional<BinRowReader> reader_;
};

}  // namespace proteus
