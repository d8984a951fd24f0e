// Baseline engines standing in for the systems the paper compares against
// (§7 Experimental Setup). Each reproduces the architectural property that
// drives its published behaviour — not the systems' code, but their cost
// shape:
//
//   RowStoreEngine   ≈ PostgreSQL / DBMS X: tuple-at-a-time interpreted
//     execution over loaded row storage; JSON is a loaded binary document
//     value (jsonb-like) whose every field access is a dynamic lookup; data
//     must be loaded before first query.
//
//   ColumnarEngine   ≈ MonetDB / DBMS C: operator-at-a-time execution with
//     full materialization of intermediate results (selection vectors,
//     gathered columns); optionally sorts on a key at load and skips blocks
//     via zone maps (DBMS C's behaviour on its sort key); JSON is stored as
//     VARCHAR and re-parsed per access (the "immature JSON support" the
//     paper observes).
//
//   DocStoreEngine   ≈ MongoDB: documents in a packed BSON-like binary
//     encoding; per-document interpreted evaluation (cheap count, extra walk
//     per additional aggregate); native array unnest; joins only via a
//     map-reduce-style boxed materialization.
//
// Benchmarks drive all engines through the BenchQuery mini-spec, which
// covers exactly the paper's query templates (selections, projections with
// 1-4 aggregates, equi-joins, unnests, group-bys).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/engine/result.h"
#include "src/storage/table.h"

namespace proteus {
namespace baselines {

enum class AggKind { kCount, kMax, kMin, kSum };

struct BenchPred {
  std::string col;   ///< dotted path for nested docs ("origin.country")
  char cmp = '<';    ///< '<', '>', '='
  double val = 0;
  std::string sval{};  ///< set for string equality
  bool is_string = false;
};

struct BenchAgg {
  AggKind kind = AggKind::kCount;
  std::string col;  ///< unused for count
};

/// One benchmark query over a primary table, with optional equi-join,
/// group-by, or array unnest.
struct BenchQuery {
  std::string table;
  std::vector<BenchPred> where{};
  std::vector<BenchAgg> aggs;
  std::string group_by{};

  // Optional equi-join: `table` is the probe side, `join_table` the build.
  std::string join_table{};
  std::string probe_key{}, build_key{};
  std::vector<BenchPred> build_where{};
  std::vector<BenchAgg> build_aggs{};  ///< aggregates over build-side columns
  /// Forces a nested-loop join in the RowStoreEngine — models an optimizer
  /// that treats one side as an opaque BLOB and cannot hash it (the paper's
  /// PostgreSQL Q39 outlier).
  bool nested_loop = false;

  // Optional unnest of an embedded array field of `table`.
  std::string unnest_path{};
  std::vector<BenchPred> unnest_where{};  ///< preds on element fields
};

// ---------------------------------------------------------------------------
// Row store (PostgreSQL-class)
// ---------------------------------------------------------------------------

class RowStoreEngine {
 public:
  /// Loads a flat table into row storage. Returns load time in ms.
  Result<double> LoadTable(const std::string& name, const RowTable& data);
  /// Loads documents (possibly nested) into jsonb-like binary values.
  Result<double> LoadDocuments(const std::string& name, const RowTable& data);

  Result<QueryResult> Execute(const BenchQuery& q) const;

 private:
  struct Stored {
    TypePtr schema;
    std::vector<Value> docs;  ///< one boxed record per row
  };
  Result<const Stored*> Find(const std::string& name) const;
  std::map<std::string, Stored> tables_;
};

// ---------------------------------------------------------------------------
// Column store (MonetDB / DBMS C class)
// ---------------------------------------------------------------------------

struct ColumnarOptions {
  /// Sort rows on this column at load; selections on it skip zone-mapped
  /// blocks (DBMS C behaviour).
  std::string sort_key;
};

class ColumnarEngine {
 public:
  Result<double> LoadTable(const std::string& name, const RowTable& data,
                           const ColumnarOptions& opts = {});
  /// JSON stored as one VARCHAR column, re-parsed on access.
  Result<double> LoadJSONAsVarchar(const std::string& name, const RowTable& data);

  Result<QueryResult> Execute(const BenchQuery& q) const;

  /// Bytes materialized into intermediates by the last query.
  size_t last_materialized_bytes() const { return last_materialized_; }

 private:
  struct Column {
    TypeKind type;
    std::vector<int64_t> ints;
    std::vector<double> floats;
    std::vector<std::string> strs;
  };
  struct Stored {
    uint64_t rows = 0;
    std::map<std::string, Column> cols;
    std::string sort_key;
    std::vector<std::pair<double, double>> zones;  ///< min/max per 1024-row block
    bool varchar_json = false;
    std::vector<std::string> raw_docs;
  };
  Result<const Stored*> Find(const std::string& name) const;
  Result<std::vector<uint32_t>> EvalPreds(const Stored& t,
                                          const std::vector<BenchPred>& preds) const;
  Result<double> ColValue(const Stored& t, const std::string& col, uint32_t row) const;

  std::map<std::string, Stored> tables_;
  mutable size_t last_materialized_ = 0;
};

// ---------------------------------------------------------------------------
// Document store (MongoDB class)
// ---------------------------------------------------------------------------

class DocStoreEngine {
 public:
  /// Serializes rows into the packed binary document log. Returns ms.
  Result<double> LoadDocuments(const std::string& name, const RowTable& data);

  Result<QueryResult> Execute(const BenchQuery& q) const;

  size_t storage_bytes(const std::string& name) const;

 private:
  struct Stored {
    std::string buf;                 ///< concatenated binary docs
    std::vector<uint64_t> offsets;   ///< start of each doc
  };
  Result<const Stored*> Find(const std::string& name) const;
  std::map<std::string, Stored> tables_;
};

/// BSON-lite encoding helpers (exposed for tests).
void EncodeDocument(const Value& record, std::string* out);
/// Finds a (possibly dotted) field in an encoded doc; returns false if
/// absent. Numeric results land in *num (strings in *str, arrays: *arr gets
/// the span of the embedded array region).
bool DocGetNumeric(const char* doc, const std::string& dotted, double* num);
bool DocGetString(const char* doc, const std::string& dotted, std::string_view* str);
bool DocGetArray(const char* doc, const std::string& dotted, const char** begin,
                 uint32_t* count);
const char* DocArrayElem(const char* elem);  ///< advances to the next element

}  // namespace baselines
}  // namespace proteus
