// CSV input plug-in with positional structural index (paper §5.2).
//
// The index stores, for each row, the byte positions of every Nth field
// (N = CSVOptions::index_stride). A field read locates the closest indexed
// position at or before the wanted field and scans forward from there,
// instead of re-parsing the row from its start. As in NoDB/RAW, this trades
// a small amount of memory for large savings on repeated selective access.
//
// Specialization per dataset contents: if all rows turn out to be
// fixed-length with identical field offsets, the plug-in drops the per-row
// samples entirely and computes positions deterministically
// (paper: "if a CSV file contains fixed-length entries, Proteus
// deterministically computes field positions").
//
// Parallel, allocation-exact build: Open(scheduler) cuts the file into one
// newline-aligned byte chunk per worker. Pass 1 counts each chunk's rows
// (its newlines); the caller sizes the row offsets and samples exactly;
// pass 2 validates each chunk's rows and fills its slices in place. Errors
// and the fixed-width check are merged in file order, so the index is
// byte-identical at every worker count. Statistics split each row into
// fields once for all numeric columns, per chunk, merged in order (see
// InputPlugin::ComputeStats).
#pragma once

#include <optional>

#include "src/common/mmap_file.h"
#include "src/plugins/plugin.h"

namespace proteus {

class CsvPlugin : public InputPlugin {
 public:
  explicit CsvPlugin(DatasetInfo info) : info_(std::move(info)) {}

  const DatasetInfo& info() const override { return info_; }
  const char* name() const override { return "csv"; }
  using InputPlugin::Open;
  Status Open(TaskScheduler* scheduler) override;
  uint64_t NumRecords() const override { return num_rows_; }
  Result<Value> ReadValue(uint64_t oid, const FieldPath& path) override;
  double CostPerTuple() const override { return 4.0; }   // parsing + navigation
  double CostPerField() const override { return 6.0; }   // text-to-binary conversion
  size_t StructuralIndexBytes() const override;
  /// Morsels balanced by row bytes via the positional index; fixed-width
  /// files (per-row offsets dropped) use the even record split.
  std::vector<ScanRange> Split(uint64_t max_morsels) const override;

  /// True when the fixed-length fast path replaced the per-row samples.
  bool fixed_width() const { return fixed_width_; }

  /// Returns the raw text of field `col` in row `oid` (exposed for the JIT
  /// runtime helpers, which are this plug-in's "generated" access code).
  std::string_view FieldText(uint64_t oid, uint32_t col) const;

  /// The positional index, read-only (tests compare builds across worker
  /// counts). Both are empty in fixed-width mode.
  const std::vector<uint64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint16_t>& samples() const { return samples_; }

  int ColumnIndex(const std::string& name) const;
  TypeKind ColumnType(uint32_t col) const { return col_types_[col]; }
  const MmapFile& file() const { return file_; }

 protected:
  /// Typed pass: each row is split into fields once for all its numeric
  /// columns.
  void AccumulateStats(uint64_t begin, uint64_t end, const std::vector<FieldPath>& leaves,
                       ColumnStatsAccumulator* acc, Status* errors) override;

 private:
  Status BuildIndex(TaskScheduler* scheduler);

  DatasetInfo info_;
  MmapFile file_;
  bool opened_ = false;

  std::vector<std::string> col_names_;
  std::vector<TypeKind> col_types_;

  uint64_t num_rows_ = 0;
  std::vector<uint64_t> row_offsets_;   // + sentinel end offset
  int stride_ = 10;
  uint32_t samples_per_row_ = 0;
  std::vector<uint16_t> samples_;       // relative field-start offsets, every Nth field

  bool fixed_width_ = false;
  uint64_t fixed_row_width_ = 0;        // including newline
  uint64_t first_row_offset_ = 0;
  std::vector<uint16_t> fixed_field_off_;  // per column, relative to row start
};

}  // namespace proteus
