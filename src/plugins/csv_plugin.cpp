#include "src/plugins/csv_plugin.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/common/counters.h"
#include "src/common/task_scheduler.h"

namespace proteus {

Status CsvPlugin::Open(TaskScheduler* scheduler) {
  if (opened_) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(file_, MmapFile::Open(info_.path));
  for (const auto& f : info_.record_type().fields()) {
    if (!f.type->is_primitive()) {
      return Status::InvalidArgument("CSV dataset '" + info_.name +
                                     "' must have a flat schema; field '" + f.name +
                                     "' is " + f.type->ToString());
    }
    col_names_.push_back(f.name);
    col_types_.push_back(f.type->kind());
  }
  stride_ = info_.csv.index_stride > 0 ? info_.csv.index_stride : 10;
  PROTEUS_RETURN_NOT_OK(BuildIndex(scheduler));
  opened_ = true;
  return Status::OK();
}

namespace {

/// Pass 2 of one chunk: row layout facts the merge needs.
struct CsvChunkScan {
  Status error;                       ///< first bad row, in file order
  bool uniform = true;                ///< every row matches the chunk's first
  uint64_t first_width = 0;           ///< first row's width, newline included
  std::vector<uint16_t> first_offsets;  ///< first row's field offsets
};

}  // namespace

Status CsvPlugin::BuildIndex(TaskScheduler* scheduler) {
  const char* base = file_.data();
  const uint64_t size = file_.size();
  const char delim = info_.csv.delimiter;
  const uint32_t ncols = static_cast<uint32_t>(col_names_.size());
  samples_per_row_ = (ncols + stride_ - 1) / static_cast<uint32_t>(stride_);

  uint64_t data_begin = 0;
  if (info_.csv.has_header) {
    const void* nl = std::memchr(base, '\n', size);
    data_begin = nl != nullptr ? static_cast<uint64_t>(static_cast<const char*>(nl) - base) + 1
                               : size;
  }
  const std::vector<uint64_t> cuts =
      LineAlignedCuts(base, data_begin, size, OpenChunks(scheduler));
  const size_t nchunks = cuts.size() - 1;

  // Pass 1: every line is a row, so a chunk's row count is its newline
  // count (plus an unterminated last line).
  std::vector<uint64_t> row_at(nchunks + 1, 0);
  PROTEUS_RETURN_NOT_OK(ForEachChunk(scheduler, nchunks, [&](uint64_t c) {
    const char* b = base + cuts[c];
    const char* e = base + cuts[c + 1];
    row_at[c + 1] = static_cast<uint64_t>(std::count(b, e, '\n')) + (e > b && e[-1] != '\n');
  }));
  for (size_t c = 0; c < nchunks; ++c) row_at[c + 1] += row_at[c];
  num_rows_ = row_at[nchunks];
  row_offsets_.resize(num_rows_ + 1);
  row_offsets_[num_rows_] = size;
  samples_.resize(num_rows_ * samples_per_row_);

  // Pass 2: validate each row and fill its offset and samples in place.
  std::vector<CsvChunkScan> scans(nchunks);
  PROTEUS_RETURN_NOT_OK(ForEachChunk(scheduler, nchunks, [&](uint64_t c) {
    CsvChunkScan& k = scans[c];
    std::vector<uint16_t> offsets;
    offsets.reserve(ncols);
    const char* p = base + cuts[c];
    const char* end = base + cuts[c + 1];
    for (uint64_t row = row_at[c]; p < end; ++row) {
      const uint64_t row_start = static_cast<uint64_t>(p - base);
      row_offsets_[row] = row_start;
      const char* q = p;
      offsets.assign(1, 0);
      while (p < end && *p != '\n') {
        if (*p == delim) {
          uint64_t rel = static_cast<uint64_t>(p + 1 - q);
          if (rel > 0xFFFF) {
            k.error = Status::ParseError("CSV row longer than 64KB at offset " +
                                         std::to_string(row_start));
            return;
          }
          offsets.push_back(static_cast<uint16_t>(rel));
        }
        ++p;
      }
      if (offsets.size() != ncols) {
        k.error = Status::ParseError("CSV row " + std::to_string(row) + " has " +
                                     std::to_string(offsets.size()) + " fields, schema expects " +
                                     std::to_string(ncols));
        return;
      }
      for (uint32_t s = 0; s < samples_per_row_; ++s) {
        samples_[row * samples_per_row_ + s] = offsets[s * static_cast<uint32_t>(stride_)];
      }
      const uint64_t width = static_cast<uint64_t>(p - q) + 1;  // + newline
      if (row == row_at[c]) {
        k.first_width = width;
        k.first_offsets = offsets;
      } else if (k.uniform && (width != k.first_width || offsets != k.first_offsets)) {
        k.uniform = false;
      }
      if (p < end) ++p;  // skip newline
    }
  }));

  // Merge in file order: the first error, and whether all rows share one
  // layout (each chunk uniform, and all chunks agreeing with the first).
  bool uniform = true;
  const CsvChunkScan* first = nullptr;
  for (size_t c = 0; c < nchunks; ++c) {
    PROTEUS_RETURN_NOT_OK(scans[c].error);
    if (row_at[c + 1] == row_at[c]) continue;
    if (first == nullptr) first = &scans[c];
    uniform = uniform && scans[c].uniform && scans[c].first_width == first->first_width &&
              scans[c].first_offsets == first->first_offsets;
  }

  if (uniform && num_rows_ > 0) {
    // Specialize per dataset contents: deterministic positions, no samples.
    fixed_width_ = true;
    fixed_row_width_ = first->first_width;
    first_row_offset_ = row_offsets_[0];
    fixed_field_off_ = first->first_offsets;
    samples_.clear();
    samples_.shrink_to_fit();
    row_offsets_.clear();
    row_offsets_.shrink_to_fit();
  }
  return Status::OK();
}

size_t CsvPlugin::StructuralIndexBytes() const {
  return row_offsets_.capacity() * sizeof(uint64_t) + samples_.capacity() * sizeof(uint16_t) +
         fixed_field_off_.capacity() * sizeof(uint16_t);
}

std::vector<ScanRange> CsvPlugin::Split(uint64_t max_morsels) const {
  if (fixed_width_) return InputPlugin::Split(max_morsels);  // rows equal by construction
  return SplitByByteOffsets(row_offsets_, num_rows_, row_offsets_.back(), max_morsels);
}

int CsvPlugin::ColumnIndex(const std::string& name) const {
  for (size_t j = 0; j < col_names_.size(); ++j) {
    if (col_names_[j] == name) return static_cast<int>(j);
  }
  return -1;
}

std::string_view CsvPlugin::FieldText(uint64_t oid, uint32_t col) const {
  GlobalCounters().raw_field_accesses++;
  const char* base = file_.data();
  const char delim = info_.csv.delimiter;
  const char* field;
  const char* row_end;
  if (fixed_width_) {
    const char* row = base + first_row_offset_ + oid * fixed_row_width_;
    field = row + fixed_field_off_[col];
    row_end = row + fixed_row_width_ - 1;
  } else {
    const char* row = base + row_offsets_[oid];
    row_end = base + row_offsets_[oid + 1];
    if (row_end > row && row_end[-1] == '\n') --row_end;
    // Closest indexed field at or before `col`, then seek forward.
    uint32_t sample = col / static_cast<uint32_t>(stride_);
    field = row + samples_[oid * samples_per_row_ + sample];
    uint32_t remaining = col - sample * static_cast<uint32_t>(stride_);
    while (remaining > 0 && field < row_end) {
      if (*field == delim) --remaining;
      ++field;
    }
  }
  const char* fe = field;
  while (fe < row_end && *fe != delim) ++fe;
  return {field, static_cast<size_t>(fe - field)};
}

void CsvPlugin::AccumulateStats(uint64_t begin, uint64_t end,
                                const std::vector<FieldPath>& leaves,
                                ColumnStatsAccumulator* acc, Status* errors) {
  std::vector<int> col_of;
  col_of.reserve(leaves.size());
  for (const FieldPath& leaf : leaves) col_of.push_back(ColumnIndex(leaf[0]));
  const char* base = file_.data();
  const char delim = info_.csv.delimiter;
  std::vector<std::string_view> fields(col_names_.size());
  uint64_t accesses = 0;
  // One pass per row: split it into fields once, then parse each numeric
  // field as ReadValue would (an empty field is a null). A field ReadValue
  // would reject goes back through ReadValue for its exact error.
  for (uint64_t oid = begin; oid < end; ++oid) {
    const char* row;
    const char* row_end;
    if (fixed_width_) {
      row = base + first_row_offset_ + oid * fixed_row_width_;
      row_end = row + fixed_row_width_ - 1;
    } else {
      row = base + row_offsets_[oid];
      row_end = base + row_offsets_[oid + 1];
      if (row_end > row && row_end[-1] == '\n') --row_end;
    }
    const char* field = row;
    for (std::string_view& f : fields) {
      const char* fe = field;
      while (fe < row_end && *fe != delim) ++fe;
      f = {field, static_cast<size_t>(fe - field)};
      field = fe + 1;
    }
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (!errors[i].ok() || col_of[i] < 0) continue;
      const std::string_view text = fields[col_of[i]];
      ++accesses;
      if (text.empty()) continue;
      const char* e = text.data() + text.size();
      if (col_types_[col_of[i]] == TypeKind::kFloat64) {
        double d = 0;
        auto [ptr, ec] = std::from_chars(text.data(), e, d);
        if (ec == std::errc() && ptr == e) {
          acc[i].Add(d, Value::HashFloat(d));
          continue;
        }
      } else {
        int64_t v = 0;
        auto [ptr, ec] = std::from_chars(text.data(), e, v);
        if (ec == std::errc() && ptr == e) {
          acc[i].Add(static_cast<double>(v), Value::HashInt(v));
          continue;
        }
      }
      errors[i] = ReadValue(oid, leaves[i]).status();
    }
  }
  GlobalCounters().raw_field_accesses += accesses;
}

Result<Value> CsvPlugin::ReadValue(uint64_t oid, const FieldPath& path) {
  if (path.size() != 1) {
    return Status::InvalidArgument("CSV is flat; bad path " + DottedPath(path));
  }
  int j = ColumnIndex(path[0]);
  if (j < 0) return Status::NotFound("CSV has no column '" + path[0] + "'");
  std::string_view text = FieldText(oid, static_cast<uint32_t>(j));
  if (text.empty()) return Value::Null();
  switch (col_types_[j]) {
    case TypeKind::kInt64:
    case TypeKind::kDate: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::ParseError("bad int '" + std::string(text) + "' in " + info_.name);
      }
      return Value::Int(v);
    }
    case TypeKind::kFloat64: {
      double v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::ParseError("bad float '" + std::string(text) + "' in " + info_.name);
      }
      return Value::Float(v);
    }
    case TypeKind::kBool:
      return Value::Boolean(text == "true" || text == "1");
    case TypeKind::kString:
      return Value::Str(std::string(text));
    default:
      return Status::Internal("unexpected CSV column type");
  }
}

}  // namespace proteus
