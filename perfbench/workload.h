// The benchmark's raw-file corpus and its three workloads.
//
// The corpus follows the paper's Symantec spam analysis (§7): mails as
// nested JSON (an origin record and a classes array), classifier output as
// CSV, and a history table as binary columns. Every byte is generated from
// the run's seed; sizes are fixed per workload and never depend on the seed.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/status.h"

namespace perfbench {

/// Row counts of the three raw files a workload queries.
struct Scale {
  uint64_t json_mails = 0;
  uint64_t csv_mails = 0;  ///< CSV holds 1-3 classifier iterations per mail
  uint64_t bin_rows = 0;
};

struct Corpus {
  std::vector<proteus::DatasetInfo> datasets;
  std::map<std::string, uint64_t> bytes;  ///< raw bytes on disk per dataset
  double gen_s = 0;    ///< in-memory generation
  double write_s = 0;  ///< serialization to JSON / CSV / binary columns
};

/// Generates spam_json / spam_csv / spam_bin from `seed`, writes them under
/// `dir`, and drops the in-memory tables before returning.
proteus::Result<Corpus> BuildCorpus(const std::string& dir, const Scale& scale, uint64_t seed);

struct QuerySpec {
  std::string text;
  std::vector<std::string> datasets;  ///< datasets the query reads
};

enum class Kind { kColdAdhoc, kLiteralDrift, kWarmConcurrent };

struct Workload {
  std::string name;
  Kind kind = Kind::kColdAdhoc;
  int clients = 1;
  Scale scale;
  /// Distinct query texts; set-up computes a reference result for each.
  std::vector<QuerySpec> queries;
  /// The texts of one template, as indexes into `queries`: one text for a
  /// fixed query, the whole literal domain for a drifting one.
  std::vector<std::vector<uint32_t>> groups;
  /// Set-up runs these (indexes into `queries`) to open plug-ins and fill
  /// the compiled-query cache before the measured phase.
  std::vector<uint32_t> warmup;
  int warmup_passes = 1;

  /// The i-th query client `client` sends: templates come round-robin in a
  /// seeded order (client c starts c templates in), so every run sends the
  /// same template mix; within a template the text is drawn uniformly.
  uint32_t Pick(int client, uint64_t i, std::mt19937_64* rng) const;
};

/// Builds the named workload (cold_adhoc, literal_drift, warm_concurrent) at
/// full or tiny scale. Literal values are drawn from `seed`.
proteus::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                                       int nproc);

}  // namespace perfbench
