// Tests for the input plug-ins and their structural indexes (Table 2 API).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <tuple>

#include "src/common/task_scheduler.h"
#include "src/datagen/spam.h"
#include "src/datagen/tpch.h"
#include "src/plugins/binary_plugins.h"
#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"
#include "src/storage/bincol_format.h"
#include "src/storage/binrow_format.h"
#include "src/storage/text_writers.h"

namespace proteus {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

RowTable FlatTable() {
  RowTable t(Type::Record({{"k", Type::Int64()},
                           {"v", Type::Float64()},
                           {"name", Type::String()}}));
  t.Append({Value::Int(10), Value::Float(0.5), Value::Str("ten")});
  t.Append({Value::Int(20), Value::Float(1.5), Value::Str("twenty")});
  t.Append({Value::Int(30), Value::Float(2.5), Value::Str("thirty")});
  return t;
}

DatasetInfo FlatInfo(DataFormat fmt, const std::string& path) {
  DatasetInfo info;
  info.name = "flat_" + std::string(DataFormatName(fmt));
  info.format = fmt;
  info.path = path;
  info.type = Type::Collection(CollectionKind::kBag, FlatTable().record_type());
  return info;
}

// ---------------------------------------------------------------------------
// Binary plug-ins
// ---------------------------------------------------------------------------

TEST(BinColPlugin, ReadsValuesByOid) {
  std::string dir = testing::TempDir() + "/p_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.NumRecords(), 3u);
  EXPECT_EQ(p.ReadValue(1, {"k"})->i(), 20);
  EXPECT_DOUBLE_EQ(p.ReadValue(2, {"v"})->f(), 2.5);
  EXPECT_EQ(p.ReadValue(0, {"name"})->s(), "ten");
  EXPECT_FALSE(p.ReadValue(0, {"missing"}).ok());
  EXPECT_FALSE(p.ReadValue(0, {"a", "b"}).ok());  // flat format
}

TEST(BinColPlugin, StatsMinMax) {
  std::string dir = testing::TempDir() + "/p_bincol_stats";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  StatsStore store;
  ASSERT_TRUE(p.CollectStats(&store).ok());
  const auto ds = store.Find(p.info().name);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->cardinality, 3u);
  EXPECT_DOUBLE_EQ(ds->columns.at("k").min, 10.0);
  EXPECT_DOUBLE_EQ(ds->columns.at("k").max, 30.0);
  EXPECT_DOUBLE_EQ(ds->columns.at("v").max, 2.5);
}

TEST(BinRowPlugin, ReadsValuesByOid) {
  std::string path = testing::TempDir() + "/p.binrow";
  ASSERT_TRUE(WriteBinaryRowFile(path, FlatTable()).ok());
  BinRowPlugin p(FlatInfo(DataFormat::kBinaryRow, path));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.NumRecords(), 3u);
  EXPECT_EQ(p.ReadValue(2, {"k"})->i(), 30);
  EXPECT_EQ(p.ReadValue(1, {"name"})->s(), "twenty");
  std::remove(path.c_str());
}

TEST(InputPlugin, ReadRecordProjectsRequestedFields) {
  std::string dir = testing::TempDir() + "/p_bincol_rec";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  ASSERT_TRUE(p.Open().ok());
  auto rec = p.ReadRecord(1, {{"name"}, {"k"}});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->record().names.size(), 2u);
  EXPECT_EQ(rec->GetField("name")->s(), "twenty");
  EXPECT_EQ(rec->GetField("k")->i(), 20);
  EXPECT_FALSE(rec->GetField("v").ok());  // not requested
}

// ---------------------------------------------------------------------------
// CSV plug-in
// ---------------------------------------------------------------------------

class CsvPluginTest : public ::testing::Test {
 protected:
  std::string WriteVarWidthCsv() {
    std::string path = testing::TempDir() + "/var.csv";
    std::ofstream f(path);
    f << "1,0.5,ten\n22,1.25,twenty two\n333,2.5,three thirty three\n";
    return path;
  }
};

TEST_F(CsvPluginTest, VariableWidthUsesSamples) {
  auto info = FlatInfo(DataFormat::kCSV, WriteVarWidthCsv());
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.fixed_width());
  EXPECT_EQ(p.NumRecords(), 3u);
  EXPECT_EQ(p.ReadValue(0, {"k"})->i(), 1);
  EXPECT_EQ(p.ReadValue(2, {"k"})->i(), 333);
  EXPECT_DOUBLE_EQ(p.ReadValue(1, {"v"})->f(), 1.25);
  EXPECT_EQ(p.ReadValue(2, {"name"})->s(), "three thirty three");
  EXPECT_GT(p.StructuralIndexBytes(), 0u);
}

TEST_F(CsvPluginTest, FixedWidthDropsIndex) {
  std::string path = testing::TempDir() + "/fixed.csv";
  {
    std::ofstream f(path);
    f << "11,1.5,aa\n22,2.5,bb\n33,3.5,cc\n";
  }
  auto info = FlatInfo(DataFormat::kCSV, path);
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_TRUE(p.fixed_width());
  EXPECT_EQ(p.ReadValue(1, {"k"})->i(), 22);
  EXPECT_EQ(p.ReadValue(2, {"name"})->s(), "cc");
  std::remove(path.c_str());
}

TEST_F(CsvPluginTest, HeaderSkipped) {
  std::string path = testing::TempDir() + "/hdr.csv";
  {
    std::ofstream f(path);
    f << "k,v,name\n1,0.5,x\n2,1.5,y\n";
  }
  auto info = FlatInfo(DataFormat::kCSV, path);
  info.csv.has_header = true;
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.NumRecords(), 2u);
  EXPECT_EQ(p.ReadValue(0, {"k"})->i(), 1);
  std::remove(path.c_str());
}

TEST_F(CsvPluginTest, ArityMismatchFails) {
  std::string path = testing::TempDir() + "/bad.csv";
  {
    std::ofstream f(path);
    f << "1,0.5\n";  // schema expects 3 fields
  }
  CsvPlugin p(FlatInfo(DataFormat::kCSV, path));
  EXPECT_FALSE(p.Open().ok());
  std::remove(path.c_str());
}

TEST_F(CsvPluginTest, StrideOneIndexesEveryField) {
  auto info = FlatInfo(DataFormat::kCSV, WriteVarWidthCsv());
  info.csv.index_stride = 1;
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.ReadValue(1, {"name"})->s(), "twenty two");
}

TEST_F(CsvPluginTest, EmptyCellIsNull) {
  std::string path = testing::TempDir() + "/nulls.csv";
  {
    std::ofstream f(path);
    f << "1,,x\n2,1.5,\n";
  }
  CsvPlugin p(FlatInfo(DataFormat::kCSV, path));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_TRUE(p.ReadValue(0, {"v"})->is_null());
  EXPECT_TRUE(p.ReadValue(1, {"name"})->is_null());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// JSON plug-in
// ---------------------------------------------------------------------------

TEST(ParseJson, Primitives) {
  auto check = [](const std::string& text, const Value& expected) {
    auto v = ParseJsonValue(text.data(), text.data() + text.size());
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->Equals(expected)) << text << " -> " << v->ToString();
  };
  check("42", Value::Int(42));
  check("-3.5", Value::Float(-3.5));
  check("1e3", Value::Float(1000.0));
  check("true", Value::Boolean(true));
  check("null", Value::Null());
  check("\"hi\\nthere\"", Value::Str("hi\nthere"));
  check("[1,2,3]", Value::MakeList({Value::Int(1), Value::Int(2), Value::Int(3)}));
  check("{\"a\":1}", Value::MakeRecord({"a"}, {Value::Int(1)}));
}

TEST(ParseJson, RejectsMalformed) {
  auto bad = [](const std::string& text) {
    auto v = ParseJsonValue(text.data(), text.data() + text.size());
    EXPECT_FALSE(v.ok()) << text;
  };
  bad("{\"a\":}");
  bad("[1,2");
  bad("\"unterminated");
}

DatasetInfo SpamJsonInfo(const std::string& path) {
  DatasetInfo info;
  info.name = "spam_json";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = datagen::SpamJSONSchema();
  return info;
}

class JsonPluginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = datagen::GenSpamJSON(50, 99);
    path_ = testing::TempDir() + "/spam.json";
  }

  void WriteData(bool shuffle) {
    JSONWriteOptions opts;
    opts.shuffle_field_order = shuffle;
    ASSERT_TRUE(WriteJSONFile(path_, table_, opts).ok());
  }

  RowTable table_;
  std::string path_;
};

TEST_F(JsonPluginTest, FixedSchemaModeDetected) {
  WriteData(/*shuffle=*/false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_TRUE(p.fixed_schema());
  EXPECT_EQ(p.NumRecords(), 50u);
}

TEST_F(JsonPluginTest, ShuffledFieldOrderFallsBackToLevel0) {
  WriteData(/*shuffle=*/true);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.fixed_schema());
  // Values must still resolve correctly despite arbitrary field order.
  for (uint64_t oid = 0; oid < 50; ++oid) {
    EXPECT_EQ(p.ReadValue(oid, {"mail_id"})->i(), table_.row(oid)[0].i());
  }
}

TEST_F(JsonPluginTest, ReadsTopLevelAndNestedFields) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  for (uint64_t oid = 0; oid < 50; ++oid) {
    EXPECT_EQ(p.ReadValue(oid, {"lang"})->s(), table_.row(oid)[1].s());
    EXPECT_EQ(p.ReadValue(oid, {"body_len"})->i(), table_.row(oid)[4].i());
    // Nested record path (Level 0 registers origin.country directly).
    EXPECT_EQ(p.ReadValue(oid, {"origin", "country"})->s(),
              table_.row(oid)[6].GetField("country")->s());
  }
}

TEST_F(JsonPluginTest, UnnestIteratesArrayElements) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  for (uint64_t oid = 0; oid < 50; ++oid) {
    auto cur = p.UnnestInit(oid, {"classes"});
    ASSERT_TRUE(cur.ok());
    const ValueList& expected = table_.row(oid)[7].list();
    size_t n = 0;
    while ((*cur)->HasNext()) {
      auto v = (*cur)->GetNext();
      ASSERT_TRUE(v.ok());
      EXPECT_TRUE(v->Equals(expected[n])) << v->ToString();
      ++n;
    }
    EXPECT_EQ(n, expected.size());
  }
}

TEST_F(JsonPluginTest, UnnestOnNonArrayFails) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.UnnestInit(0, {"lang"}).ok());
}

TEST_F(JsonPluginTest, MissingFieldIsNotFound) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  auto v = p.ReadValue(0, {"no_such_field"});
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST_F(JsonPluginTest, IndexSmallerThanFile) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_GT(p.StructuralIndexBytes(), 0u);
  // The paper reports index sizes of ~15-25% of the JSON file.
  EXPECT_LT(p.StructuralIndexBytes(), p.file().size());
}

TEST_F(JsonPluginTest, ReadRecordReconstructsNestedShape) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  auto rec = p.ReadRecord(3, {{"mail_id"}, {"origin", "country"}});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->GetField("mail_id")->i(), table_.row(3)[0].i());
  auto origin = rec->GetField("origin");
  ASSERT_TRUE(origin.ok());
  EXPECT_EQ(origin->GetField("country")->s(), table_.row(3)[6].GetField("country")->s());
}

TEST(JsonPluginEdge, MalformedObjectFailsValidation) {
  std::string path = testing::TempDir() + "/badobj.json";
  {
    std::ofstream f(path);
    f << "{\"a\": 1}\n{\"a\": }\n";
  }
  DatasetInfo info;
  info.name = "bad";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords({{"a", Type::Int64()}});
  JsonPlugin p(info);
  EXPECT_FALSE(p.Open().ok());
  std::remove(path.c_str());
}

TEST(JsonPluginEdge, OptionalFieldsVaryAcrossObjects) {
  // The paper stresses JSON schema flexibility: optional fields.
  std::string path = testing::TempDir() + "/optional.json";
  {
    std::ofstream f(path);
    f << "{\"a\": 1, \"b\": 2}\n{\"a\": 3}\n{\"b\": 4, \"a\": 5}\n";
  }
  DatasetInfo info;
  info.name = "optional";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords({{"a", Type::Int64()}, {"b", Type::Int64()}});
  JsonPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.fixed_schema());
  EXPECT_EQ(p.ReadValue(0, {"b"})->i(), 2);
  EXPECT_FALSE(p.ReadValue(1, {"b"}).ok());  // absent
  EXPECT_EQ(p.ReadValue(2, {"a"})->i(), 5);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel cold open: the two-pass chunked index build and the chunked stats
// pass must produce exactly the 1-worker result at every scheduler size.
// ---------------------------------------------------------------------------

const int kSchedulerSizes[] = {1, 2, 4};

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

/// Inserts a blank line after every `every`-th line and drops the trailing
/// newline — both must be skipped identically by every chunk layout.
std::string WithBlankLinesNoTrailingNewline(const std::string& text, int every) {
  std::string out;
  int line = 0;
  for (char ch : text) {
    out += ch;
    if (ch == '\n' && ++line % every == 0) out += '\n';
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Every DatasetStats field, bit for bit (NaN-safe).
void ExpectSameStats(const DatasetStats& got, const DatasetStats& want, int threads) {
  EXPECT_EQ(got.valid, want.valid) << threads;
  EXPECT_EQ(got.cardinality, want.cardinality) << threads;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << threads;
  for (const auto& [name, w] : want.columns) {
    auto it = got.columns.find(name);
    ASSERT_NE(it, got.columns.end()) << name;
    EXPECT_EQ(it->second.valid, w.valid) << name << " @" << threads;
    EXPECT_EQ(Bits(it->second.min), Bits(w.min)) << name << " @" << threads;
    EXPECT_EQ(Bits(it->second.max), Bits(w.max)) << name << " @" << threads;
    EXPECT_EQ(it->second.ndv, w.ndv) << name << " @" << threads;
  }
}

auto Key(const JsonToken& t) { return std::make_tuple(t.start, t.end, t.type); }
auto Key(const JsonElem& e) { return std::make_tuple(e.start, e.end, e.type); }
auto Key(const JsonArrayInfo& a) { return std::make_tuple(a.token_idx, a.elem_begin, a.elem_count); }
template <class T>
auto Keys(const std::vector<T>& v) {
  std::vector<decltype(Key(v[0]))> out;
  for (const T& x : v) out.push_back(Key(x));
  return out;
}

/// Opens `info` as JSON and gathers stats at every scheduler size; each
/// build must equal the 1-worker build array for array.
void ExpectJsonBuildsIdentical(const DatasetInfo& info, bool want_fixed) {
  TaskScheduler ref_sched(1);
  JsonPlugin ref(info);
  ASSERT_TRUE(ref.Open(&ref_sched).ok());
  auto ref_stats = ref.ComputeStats(&ref_sched);
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();
  EXPECT_EQ(ref.fixed_schema(), want_fixed);
  for (int threads : kSchedulerSizes) {
    TaskScheduler sched(threads);
    JsonPlugin p(info);
    ASSERT_TRUE(p.Open(&sched).ok()) << threads;
    EXPECT_EQ(p.NumRecords(), ref.NumRecords()) << threads;
    EXPECT_EQ(p.fixed_schema(), ref.fixed_schema()) << threads;
    EXPECT_EQ(p.StructuralIndexBytes(), ref.StructuralIndexBytes()) << threads;
    EXPECT_EQ(p.object_offsets(), ref.object_offsets()) << threads;
    EXPECT_EQ(Keys(p.tokens()), Keys(ref.tokens())) << threads;
    EXPECT_EQ(p.token_begins(), ref.token_begins()) << threads;
    EXPECT_EQ(Keys(p.elems()), Keys(ref.elems())) << threads;
    EXPECT_EQ(Keys(p.arrays()), Keys(ref.arrays())) << threads;
    EXPECT_EQ(p.level0(), ref.level0()) << threads;
    EXPECT_EQ(p.level0_begins(), ref.level0_begins()) << threads;
    auto stats = p.ComputeStats(&sched);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectSameStats(*stats, *ref_stats, threads);
  }
}

class ParallelJsonOpenTest : public ::testing::Test {
 protected:
  void SetUp() override { table_ = datagen::GenSpamJSON(300, 7); }

  /// Spam mails (nested `origin` record, `classes` array) with blank lines
  /// and no trailing newline.
  DatasetInfo Write(const std::string& file, bool shuffle) {
    const std::string path = testing::TempDir() + "/" + file;
    JSONWriteOptions opts;
    opts.shuffle_field_order = shuffle;
    EXPECT_TRUE(WriteJSONFile(path, table_, opts).ok());
    WriteFile(path, WithBlankLinesNoTrailingNewline(ReadFile(path), 7));
    return SpamJsonInfo(path);
  }

  RowTable table_;
};

TEST_F(ParallelJsonOpenTest, FixedSchemaIdenticalAcrossSchedulerSizes) {
  ExpectJsonBuildsIdentical(Write("par_fixed.json", /*shuffle=*/false), /*want_fixed=*/true);
}

TEST_F(ParallelJsonOpenTest, ShuffledSchemaIdenticalAcrossSchedulerSizes) {
  auto info = Write("par_shuffled.json", /*shuffle=*/true);
  ExpectJsonBuildsIdentical(info, /*want_fixed=*/false);
  // And the index still answers lookups: nested path and array elements.
  TaskScheduler sched(4);
  JsonPlugin p(info);
  ASSERT_TRUE(p.Open(&sched).ok());
  ASSERT_EQ(p.NumRecords(), 300u);
  for (uint64_t oid = 0; oid < 300; oid += 37) {
    EXPECT_EQ(p.ReadValue(oid, {"mail_id"})->i(), table_.row(oid)[0].i());
    EXPECT_EQ(p.ReadValue(oid, {"origin", "country"})->s(),
              table_.row(oid)[6].GetField("country")->s());
    auto cur = p.UnnestInit(oid, {"classes"});
    ASSERT_TRUE(cur.ok());
    size_t n = 0;
    while ((*cur)->HasNext()) {
      ASSERT_TRUE((*cur)->GetNext().ok());
      ++n;
    }
    EXPECT_EQ(n, table_.row(oid)[7].list().size());
  }
}

DatasetInfo IntJsonInfo(const std::string& name, const std::string& text) {
  DatasetInfo info;
  info.name = name;
  info.format = DataFormat::kJSON;
  info.path = testing::TempDir() + "/" + name + ".json";
  info.type = Type::BagOfRecords({{"a", Type::Int64()}});
  WriteFile(info.path, text);
  return info;
}

TEST(ParallelJsonOpen, FieldOrderChangesBetweenChunks) {
  // 40 objects of equal length; objects 21.. swap the field order. The
  // line-aligned cuts fall exactly at object 21 (2 chunks) and at objects
  // 11, 21, 31 (4 chunks), so every chunk is uniform on its own: only
  // comparing chunks' first objects shows the dataset is not fixed-schema.
  std::string text;
  for (int i = 0; i < 40; ++i) {
    const std::string a = "\"a\": " + std::to_string(10 + i);
    text += i < 21 ? "{" + a + ", \"b\": 1}\n" : "{\"b\": 1, " + a + "}\n";
  }
  ExpectJsonBuildsIdentical(IntJsonInfo("order_flip", text), /*want_fixed=*/false);
}

TEST(ParallelJsonOpen, FewerObjectsThanChunks) {
  ExpectJsonBuildsIdentical(IntJsonInfo("two_objs", "{\"a\": 1}\n{\"a\": 2}\n"),
                            /*want_fixed=*/true);
}

TEST(ParallelJsonOpen, EmptyFile) {
  auto info = IntJsonInfo("empty_json", "");
  ExpectJsonBuildsIdentical(info, /*want_fixed=*/false);
  TaskScheduler sched(4);
  JsonPlugin p(info);
  ASSERT_TRUE(p.Open(&sched).ok());
  EXPECT_EQ(p.NumRecords(), 0u);
  auto stats = p.ComputeStats(&sched);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->columns.at("a").valid);
}

TEST(ParallelJsonOpen, FirstMalformedObjectReportedAtEveryChunking) {
  // Objects 13 and 31 are malformed; with 4 chunks they land in different
  // chunks. The error must name object 13 regardless of which chunk's
  // failure the scheduler happens to see first.
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += (i == 13 || i == 31) ? "{\"a\": }\n" : "{\"a\": " + std::to_string(i) + "}\n";
  }
  auto info = IntJsonInfo("two_bad", text);
  for (int threads : kSchedulerSizes) {
    TaskScheduler sched(threads);
    JsonPlugin p(info);
    Status st = p.Open(&sched);
    ASSERT_FALSE(st.ok()) << threads;
    EXPECT_NE(st.message().find("object 13 in"), std::string::npos)
        << threads << ": " << st.message();
  }
}

DatasetInfo CsvInfo(const std::string& name, const std::string& text) {
  auto info = FlatInfo(DataFormat::kCSV, testing::TempDir() + "/" + name + ".csv");
  info.name = name;
  WriteFile(info.path, text);
  return info;
}

/// Opens `info` as CSV and gathers stats at every scheduler size against
/// the 1-worker build.
void ExpectCsvBuildsIdentical(const DatasetInfo& info, bool want_fixed) {
  TaskScheduler ref_sched(1);
  CsvPlugin ref(info);
  ASSERT_TRUE(ref.Open(&ref_sched).ok());
  auto ref_stats = ref.ComputeStats(&ref_sched);
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();
  EXPECT_EQ(ref.fixed_width(), want_fixed);
  for (int threads : kSchedulerSizes) {
    TaskScheduler sched(threads);
    CsvPlugin p(info);
    ASSERT_TRUE(p.Open(&sched).ok()) << threads;
    EXPECT_EQ(p.NumRecords(), ref.NumRecords()) << threads;
    EXPECT_EQ(p.fixed_width(), ref.fixed_width()) << threads;
    EXPECT_EQ(p.StructuralIndexBytes(), ref.StructuralIndexBytes()) << threads;
    EXPECT_EQ(p.row_offsets(), ref.row_offsets()) << threads;
    EXPECT_EQ(p.samples(), ref.samples()) << threads;
    auto stats = p.ComputeStats(&sched);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectSameStats(*stats, *ref_stats, threads);
  }
}

TEST(ParallelCsvOpen, WidthDiffersOnlyInLastChunk) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "1" + std::to_string(i % 10) + ",1.5,aa\n";
  text += "333,2.5,bbb\n";  // the only row of another layout, in the last chunk
  ExpectCsvBuildsIdentical(CsvInfo("last_differs", text), /*want_fixed=*/false);
}

TEST(ParallelCsvOpen, ChunksUniformButOfAnotherLayout) {
  // 40 rows of 10 bytes; rows 21.. move the field offsets but keep the
  // width. Line-aligned cuts then fall exactly at row 21 (2 chunks) and at
  // rows 11, 21, 31 (4 chunks), so every chunk is uniform on its own: only
  // comparing chunks with the first one shows the file is not fixed-width.
  std::string text;
  for (int i = 0; i < 40; ++i) text += i < 21 ? "11,1.5,aa\n" : "1,1.5,aaa\n";
  ExpectCsvBuildsIdentical(CsvInfo("chunk_layouts", text), /*want_fixed=*/false);
}

TEST(ParallelCsvOpen, UniformRowsStayFixedWidth) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "1" + std::to_string(i % 10) + ",1." + std::to_string(i % 7) + ",aa\n";
  ExpectCsvBuildsIdentical(CsvInfo("uniform", text), /*want_fixed=*/true);
}

TEST(ParallelCsvOpen, VariableWidthWithNullsAndNoTrailingNewline) {
  std::string text;
  for (int i = 0; i < 150; ++i) {
    text += std::to_string(i * 37 % 1000) + "," + (i % 11 == 0 ? "" : std::to_string(i) + ".25") +
            ",name" + std::to_string(i) + "\n";
  }
  text.pop_back();
  ExpectCsvBuildsIdentical(CsvInfo("var_nulls", text), /*want_fixed=*/false);
}

TEST(ParallelCsvOpen, FirstBadRowReportedAtEveryChunking) {
  std::string text;
  for (int i = 0; i < 60; ++i) text += (i == 17 || i == 50) ? "1,2\n" : "1,0.5,x\n";
  auto info = CsvInfo("two_bad_rows", text);
  for (int threads : kSchedulerSizes) {
    TaskScheduler sched(threads);
    CsvPlugin p(info);
    Status st = p.Open(&sched);
    ASSERT_FALSE(st.ok()) << threads;
    EXPECT_NE(st.message().find("CSV row 17 "), std::string::npos) << threads << ": "
                                                                    << st.message();
  }
}

/// The reference the typed passes must match: InputPlugin's default
/// statistics pass, boxed values through ReadValue, one leaf at a time.
template <class Plugin>
class BoxedStats : public Plugin {
 public:
  using Plugin::Plugin;

 protected:
  void AccumulateStats(uint64_t begin, uint64_t end, const std::vector<FieldPath>& leaves,
                       ColumnStatsAccumulator* acc, Status* errors) override {
    InputPlugin::AccumulateStats(begin, end, leaves, acc, errors);
  }
};

TEST(TypedStats, JsonMatchesBoxedReadValuePass) {
  const std::string path = testing::TempDir() + "/typed_stats.json";
  JSONWriteOptions opts;
  opts.shuffle_field_order = true;
  ASSERT_TRUE(WriteJSONFile(path, datagen::GenSpamJSON(500, 11), opts).ok());
  TaskScheduler sched(4);
  JsonPlugin typed(SpamJsonInfo(path));
  BoxedStats<JsonPlugin> boxed(SpamJsonInfo(path));
  auto want = boxed.ComputeStats(nullptr);
  auto got = typed.ComputeStats(&sched);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_FALSE(want->columns.empty());
  ExpectSameStats(*got, *want, 4);
}

TEST(TypedStats, CsvMatchesBoxedReadValuePass) {
  const std::string path = testing::TempDir() + "/typed_stats.csv";
  ASSERT_TRUE(WriteCSVFile(path, datagen::GenSpamCSV(500, 12)).ok());
  DatasetInfo info;
  info.name = "typed_csv";
  info.format = DataFormat::kCSV;
  info.path = path;
  info.type = datagen::SpamCSVSchema();
  TaskScheduler sched(4);
  CsvPlugin typed(info);
  BoxedStats<CsvPlugin> boxed(info);
  auto want = boxed.ComputeStats(nullptr);
  auto got = typed.ComputeStats(&sched);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_FALSE(want->columns.empty());
  ExpectSameStats(*got, *want, 4);
}

TEST(TypedStats, CsvBadFieldReportsReadValueError) {
  std::string text;
  for (int i = 0; i < 40; ++i) text += (i == 9 || i == 30) ? "1,oops,x\n" : "1,0.5,x\n";
  auto info = CsvInfo("bad_float", text);
  BoxedStats<CsvPlugin> boxed(info);
  auto want = boxed.ComputeStats(nullptr);
  ASSERT_FALSE(want.ok());
  for (int threads : kSchedulerSizes) {
    TaskScheduler sched(threads);
    CsvPlugin typed(info);
    auto got = typed.ComputeStats(&sched);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << threads;
  }
}

TEST(NdvSketch, SplitThenMergeEqualsWhole) {
  NdvSketch whole, a, b, c;
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t h = Value::HashInt(static_cast<int64_t>(i * 7919));
    whole.Add(h);
    (i < 1000 ? a : i < 3500 ? b : c).Add(h);
  }
  NdvSketch merged;
  merged.Merge(a);
  merged.Merge(b);
  merged.Merge(c);
  EXPECT_EQ(merged.Estimate(), whole.Estimate());
  EXPECT_GT(whole.Estimate(), 4000u);
}

TEST(ColumnStatsAccumulator, MergedSlicesMatchOneSerialPass) {
  const double nan = std::nan("");
  const std::vector<std::vector<double>> columns = {
      {3, 1, -0.0, 0.0, 7, -2, 7, 1},
      {3, nan, 1, 8, nan, -2},  // later NaNs are ignored
      {nan, 3, -5, 9},          // a leading NaN pins min and max
      {0.0, -0.0, 0.0},         // ties keep the first value seen
  };
  for (const auto& col : columns) {
    ColumnStatsAccumulator whole;
    for (double d : col) whole.Add(d, Value::HashFloat(d));
    const ColumnStats want = whole.Finish();
    // Every two-way and three-way split point.
    for (size_t i = 0; i <= col.size(); ++i) {
      for (size_t j = i; j <= col.size(); ++j) {
        ColumnStatsAccumulator part[3];
        for (size_t k = 0; k < col.size(); ++k) {
          part[k < i ? 0 : k < j ? 1 : 2].Add(col[k], Value::HashFloat(col[k]));
        }
        part[0].Merge(part[1]);
        part[0].Merge(part[2]);
        const ColumnStats got = part[0].Finish();
        EXPECT_EQ(got.valid, want.valid);
        EXPECT_EQ(Bits(got.min), Bits(want.min)) << i << "," << j;
        EXPECT_EQ(Bits(got.max), Bits(want.max)) << i << "," << j;
        EXPECT_EQ(got.ndv, want.ndv);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Plug-in registry + Table 2 defaults
// ---------------------------------------------------------------------------

TEST(PluginRegistry, OpensOnceAndCollectsStats) {
  std::string dir = testing::TempDir() + "/reg_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  auto info = FlatInfo(DataFormat::kBinaryColumn, dir);
  PluginRegistry reg;
  StatsStore stats;
  auto p1 = reg.GetOrOpen(info, &stats);
  ASSERT_TRUE(p1.ok());
  auto p2 = reg.GetOrOpen(info, &stats);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);  // same instance, index kept alive
  EXPECT_NE(stats.Find(info.name), nullptr);
  EXPECT_EQ(stats.Find(info.name)->cardinality, 3u);
}

TEST(PluginRegistry, ConcurrentColdOpensAreSingleFlight) {
  JSONWriteOptions opts;
  opts.shuffle_field_order = true;
  const std::string path = testing::TempDir() + "/reg_spam.json";
  ASSERT_TRUE(WriteJSONFile(path, datagen::GenSpamJSON(2000, 3), opts).ok());
  const DatasetInfo info = SpamJsonInfo(path);
  TaskScheduler sched(4);
  PluginRegistry reg(&sched);
  StatsStore stats;
  constexpr int kCallers = 8;
  std::vector<InputPlugin*> got(kCallers, nullptr);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      auto p = reg.GetOrOpen(info, &stats);
      if (p.ok()) got[t] = *p;
    });
  }
  for (auto& th : callers) th.join();
  ASSERT_NE(got[0], nullptr);
  for (InputPlugin* p : got) EXPECT_EQ(p, got[0]);
  EXPECT_EQ(stats.publishes(), 1u);
  EXPECT_EQ(stats.Find(info.name)->cardinality, 2000u);

  // Evicting and reopening builds a fresh plug-in; present stats are kept.
  reg.Evict(info.name);
  auto again = reg.GetOrOpen(info, &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->NumRecords(), 2000u);
  EXPECT_EQ(stats.publishes(), 1u);
}

TEST(PluginRegistry, SlowColdOpenDoesNotBlockWarmLookups) {
  // Dataset A is a FIFO: opening it blocks in open(2) until a writer shows
  // up, which stands in for an arbitrarily slow structural-index build.
  const std::string fifo = testing::TempDir() + "/reg_slow.json";
  std::remove(fifo.c_str());
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  auto slow = IntJsonInfo("reg_slow_placeholder", "");
  slow.name = "reg_slow";
  slow.path = fifo;
  auto warm = IntJsonInfo("reg_warm", "{\"a\": 1}\n");

  TaskScheduler sched(2);
  PluginRegistry reg(&sched);
  StatsStore stats;
  ASSERT_TRUE(reg.GetOrOpen(warm, &stats).ok());
  auto slow_open = std::async(std::launch::async, [&] { return reg.GetOrOpen(slow, &stats); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it reach open(2)
  auto warm_lookup =
      std::async(std::launch::async, [&] { return reg.GetOrOpen(warm, &stats).ok(); });
  const bool served = warm_lookup.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(served) << "a warm lookup waited for another dataset's cold open";
  // Release the slow open: a writer that closes at once leaves it empty.
  const int fd = open(fifo.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  close(fd);
  auto slow_result = slow_open.get();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status().ToString();
  EXPECT_EQ((*slow_result)->NumRecords(), 0u);
  EXPECT_TRUE(warm_lookup.get());
  std::remove(fifo.c_str());
}

TEST(PluginRegistry, FailedOpenIsNotCached) {
  auto info = IntJsonInfo("reg_bad", "{\"a\": }\n");
  TaskScheduler sched(2);
  PluginRegistry reg(&sched);
  StatsStore stats;
  EXPECT_FALSE(reg.GetOrOpen(info, &stats).ok());
  WriteFile(info.path, "{\"a\": 1}\n");
  auto p = reg.GetOrOpen(info, &stats);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ((*p)->NumRecords(), 1u);
  EXPECT_EQ(stats.publishes(), 1u);
}

TEST(PluginDefaults, HashAndFlush) {
  std::string dir = testing::TempDir() + "/hf_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  ASSERT_TRUE(p.Open().ok());
  auto h = p.HashValue(0, {"k"});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, Value::Int(10).Hash());
  std::string out;
  ASSERT_TRUE(p.FlushValue(0, {"name"}, &out).ok());
  EXPECT_EQ(out, "\"ten\"");
}

TEST(PathHelpers, DottedRoundTrip) {
  FieldPath p{"origin", "country"};
  EXPECT_EQ(DottedPath(p), "origin.country");
  EXPECT_EQ(SplitPath("origin.country"), p);
  EXPECT_EQ(SplitPath("plain"), FieldPath{"plain"});
}

}  // namespace
}  // namespace proteus
