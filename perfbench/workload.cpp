#include "perfbench/workload.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "perfbench/util.h"
#include "src/datagen/spam.h"
#include "src/storage/bincol_format.h"
#include "src/storage/text_writers.h"

namespace perfbench {

using proteus::DataFormat;
using proteus::DatasetInfo;
using proteus::Result;
using proteus::Status;

namespace {

uint64_t PathBytes(const std::string& path) {
  namespace fs = std::filesystem;
  if (fs::is_regular_file(path)) return fs::file_size(path);
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(path)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

const std::vector<std::string> kJSON{"spam_json"};
const std::vector<std::string> kCSV{"spam_csv"};
const std::vector<std::string> kBin{"spam_bin"};

std::string Fraction(std::mt19937_64* rng, int lo_pct, int hi_pct) {
  const int pct = std::uniform_int_distribution<int>(lo_pct, hi_pct)(*rng);
  return "0." + std::string(pct < 10 ? "0" : "") + std::to_string(pct);
}

int64_t Int(std::mt19937_64* rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
}

/// `n` distinct integers from [lo, hi], drawn with `rng`, ascending.
std::vector<int64_t> DistinctInts(std::mt19937_64* rng, int64_t lo, int64_t hi, size_t n) {
  std::set<int64_t> picked;
  while (picked.size() < n) picked.insert(Int(rng, lo, hi));
  return {picked.begin(), picked.end()};
}

const char* kCountries[] = {"US", "RU", "CN", "BR", "IN", "DE", "NG", "VN"};
const char* kLangs[] = {"en", "ru", "zh", "es", "de", "fr", "pt"};

/// The paper's Symantec-style ad-hoc mix: JSON (flat fields, the nested
/// origin record, the classes array), CSV, binary columns, and joins across
/// formats. One literal per template is drawn from the seed, from a narrow
/// window, so that the work per query barely depends on the seed.
std::vector<QuerySpec> AdhocQueries(std::mt19937_64* rng) {
  const std::string country = kCountries[Int(rng, 0, 7)];
  const std::string lang = kLangs[Int(rng, 0, 6)];
  return {
      {"SELECT count(*), max(score) FROM spam_json WHERE body_len > " +
           std::to_string(Int(rng, 950, 1050)),
       kJSON},
      {"SELECT lang, count(*), max(body_len) FROM spam_json WHERE score > " +
           Fraction(rng, 24, 26) + " GROUP BY lang",
       kJSON},
      {"for { s <- spam_json, k <- s.classes, k.label > " + std::to_string(Int(rng, 15, 17)) +
           " } yield count",
       kJSON},
      {"for { s <- spam_json, s.origin.country = '" + country + "' } yield count", kJSON},
      {"SELECT count(*), max(score_b) FROM spam_csv WHERE score_a > " + Fraction(rng, 68, 72),
       kCSV},
      {"SELECT label, count(*), sum(score_a) FROM spam_csv WHERE cls_a < " +
           std::to_string(Int(rng, 30, 34)) + " GROUP BY label",
       kCSV},
      {"SELECT day, count(*) FROM spam_bin WHERE spam_score > " + Fraction(rng, 48, 52) +
           " GROUP BY day",
       kBin},
      {"SELECT sum(hits), max(spam_score) FROM spam_bin WHERE day < " +
           std::to_string(Int(rng, 170, 190)),
       kBin},
      {"SELECT count(*), max(c.score_b) FROM spam_bin b JOIN spam_csv c ON "
       "b.mail_id = c.mail_id WHERE b.spam_score > " +
           Fraction(rng, 68, 72),
       {"spam_bin", "spam_csv"}},
      {"SELECT count(*), max(j.score) FROM spam_bin b JOIN spam_json j ON "
       "b.mail_id = j.mail_id WHERE j.body_len > " +
           std::to_string(Int(rng, 4400, 4600)),
       {"spam_bin", "spam_json"}},
      {"SELECT count(*) FROM spam_csv c JOIN spam_json j ON c.mail_id = j.mail_id "
       "WHERE j.lang = '" +
           lang + "' and c.score_a > " + Fraction(rng, 48, 52),
       {"spam_csv", "spam_json"}},
  };
}

/// Selective templates whose literal drifts over a domain far larger than
/// the compiled-query cache (32 entries). Literals are part of a plan's
/// signature, so nearly every query compiles a fresh module.
std::vector<std::vector<QuerySpec>> DriftQueries(std::mt19937_64* rng) {
  auto group = [&](int64_t lo, int64_t hi, size_t n, const std::string& prefix,
                   const std::string& suffix, const std::vector<std::string>& datasets) {
    std::vector<QuerySpec> texts;
    for (int64_t v : DistinctInts(rng, lo, hi, n)) {
      texts.push_back({prefix + std::to_string(v) + suffix, datasets});
    }
    return texts;
  };
  return {
      group(0, 9999, 64, "SELECT count(*), sum(hits) FROM spam_bin WHERE src = ", "", kBin),
      group(0, 63, 64, "SELECT count(*), max(score_b) FROM spam_csv WHERE cls_a = ", "", kCSV),
      group(8700, 8999, 32, "SELECT count(*), max(score) FROM spam_json WHERE body_len > ", "",
            kJSON),
      group(0, 31, 32, "for { s <- spam_json, k <- s.classes, k.label = ", " } yield count",
            kJSON),
      group(0, 63, 48,
            "SELECT count(*), sum(b.hits) FROM spam_bin b JOIN spam_csv c ON "
            "b.mail_id = c.mail_id WHERE c.cls_b = ",
            "", {"spam_bin", "spam_csv"}),
  };
}

/// A fixed dashboard of repeated texts (fewer than the cache's 32 entries)
/// over a corpus large enough that every query drives far more morsels than
/// there are workers.
std::vector<QuerySpec> DashboardQueries(std::mt19937_64* rng) {
  const std::string country = kCountries[Int(rng, 0, 7)];
  return {
      {"SELECT lang, count(*), max(body_len) FROM spam_json GROUP BY lang", kJSON},
      {"SELECT bot, count(*), sum(body_len) FROM spam_json WHERE score > " +
           Fraction(rng, 28, 32) + " GROUP BY bot",
       kJSON},
      {"SELECT count(*), max(score) FROM spam_json WHERE body_len > " +
           std::to_string(Int(rng, 3900, 4100)),
       kJSON},
      {"for { s <- spam_json, k <- s.classes, k.label > " + std::to_string(Int(rng, 15, 17)) +
           " } yield count",
       kJSON},
      {"for { s <- spam_json, s.origin.country = '" + country + "' } yield count", kJSON},
      {"SELECT label, count(*), max(score_b) FROM spam_csv WHERE score_a > " +
           Fraction(rng, 38, 42) + " GROUP BY label",
       kCSV},
      {"SELECT count(*), sum(cls_b) FROM spam_csv WHERE cls_a < " +
           std::to_string(Int(rng, 30, 34)),
       kCSV},
      {"SELECT day, count(*), sum(hits) FROM spam_bin WHERE spam_score > " +
           Fraction(rng, 48, 52) + " GROUP BY day",
       kBin},
      {"SELECT count(*), max(c.score_b) FROM spam_bin b JOIN spam_csv c ON "
       "b.mail_id = c.mail_id WHERE b.hits > " +
           std::to_string(Int(rng, 240, 260)),
       {"spam_bin", "spam_csv"}},
  };
}

}  // namespace

Result<Corpus> BuildCorpus(const std::string& dir, const Scale& scale, uint64_t seed) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  Corpus c;
  const std::string json_path = dir + "/spam.json";
  const std::string csv_path = dir + "/spam.csv";
  const std::string bin_path = dir + "/spam.bincol";
  // One table at a time: generate, write, drop — peak memory stays at the
  // largest single table.
  auto stage = [&](auto gen, auto write) -> Status {
    auto t0 = Clock::now();
    proteus::RowTable table = gen();
    auto t1 = Clock::now();
    PROTEUS_RETURN_NOT_OK(write(table));
    c.gen_s += MsBetween(t0, t1) / 1000.0;
    c.write_s += SecondsSince(t1);
    return Status::OK();
  };
  proteus::JSONWriteOptions shuffled;
  shuffled.shuffle_field_order = true;  // the paper's arbitrary field order
  shuffled.shuffle_seed = seed;
  PROTEUS_RETURN_NOT_OK(stage(
      [&] { return proteus::datagen::GenSpamJSON(scale.json_mails, seed * 3 + 1); },
      [&](const proteus::RowTable& t) { return proteus::WriteJSONFile(json_path, t, shuffled); }));
  PROTEUS_RETURN_NOT_OK(stage(
      [&] { return proteus::datagen::GenSpamCSV(scale.csv_mails, seed * 3 + 2); },
      [&](const proteus::RowTable& t) { return proteus::WriteCSVFile(csv_path, t); }));
  const double bin_per_mail =
      static_cast<double>(scale.bin_rows) / static_cast<double>(scale.json_mails);
  PROTEUS_RETURN_NOT_OK(stage(
      [&] {
        return proteus::datagen::GenSpamBinary(scale.json_mails, bin_per_mail, seed * 3 + 3);
      },
      [&](const proteus::RowTable& t) { return proteus::WriteBinaryColumnDir(bin_path, t); }));

  auto add = [&](const char* name, DataFormat format, const std::string& path,
                 proteus::TypePtr type) {
    DatasetInfo d;
    d.name = name;
    d.format = format;
    d.path = path;
    d.type = std::move(type);
    c.datasets.push_back(std::move(d));
  };
  add("spam_json", DataFormat::kJSON, json_path, proteus::datagen::SpamJSONSchema());
  add("spam_csv", DataFormat::kCSV, csv_path, proteus::datagen::SpamCSVSchema());
  add("spam_bin", DataFormat::kBinaryColumn, bin_path, proteus::datagen::SpamBinarySchema());
  for (const DatasetInfo& d : c.datasets) c.bytes[d.name] = PathBytes(d.path);
  return c;
}

uint32_t Workload::Pick(int client, uint64_t i, std::mt19937_64* rng) const {
  const std::vector<uint32_t>& g = groups[(i + static_cast<uint64_t>(client)) % groups.size()];
  return g.size() == 1 ? g[0] : g[std::uniform_int_distribution<size_t>(0, g.size() - 1)(*rng)];
}

namespace {

/// Adds one template's texts as a group.
void AddGroup(Workload* w, std::vector<QuerySpec> texts) {
  std::vector<uint32_t> g;
  for (QuerySpec& q : texts) {
    g.push_back(static_cast<uint32_t>(w->queries.size()));
    w->queries.push_back(std::move(q));
  }
  w->groups.push_back(std::move(g));
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool tiny, int nproc) {
  std::mt19937_64 rng(seed * 7919 + 17);
  Workload w;
  w.name = name;
  if (name == "cold_adhoc") {
    w.kind = Kind::kColdAdhoc;
    w.clients = 1;
    w.scale = tiny ? Scale{2000, 2000, 2500} : Scale{12000, 12000, 15000};
    for (QuerySpec& q : AdhocQueries(&rng)) AddGroup(&w, {std::move(q)});
  } else if (name == "literal_drift") {
    w.kind = Kind::kLiteralDrift;
    w.clients = 1;
    // Small files: the query is compile-bound, and set-up computes a
    // reference for every text of the literal domain.
    w.scale = tiny ? Scale{1000, 1000, 1200} : Scale{6000, 6000, 8000};
    for (auto& group : DriftQueries(&rng)) AddGroup(&w, std::move(group));
  } else if (name == "warm_concurrent") {
    w.kind = Kind::kWarmConcurrent;
    w.clients = nproc;
    w.scale = tiny ? Scale{4000, 4000, 5000} : Scale{330000, 170000, 330000};
    for (QuerySpec& q : DashboardQueries(&rng)) AddGroup(&w, {std::move(q)});
    // The first pass opens plug-ins after optimizing (no stats yet, so the
    // join strategy is the cold default); the second compiles the plans the
    // warm statistics choose.
    w.warmup_passes = 2;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (cold_adhoc, literal_drift, warm_concurrent)");
  }
  std::shuffle(w.groups.begin(), w.groups.end(), rng);
  // Warm-up: one text per template opens every plug-in; for warm_concurrent
  // that is every text, and literal_drift's domain stays out of the cache.
  for (const auto& g : w.groups) w.warmup.push_back(g[0]);
  return w;
}

}  // namespace perfbench
