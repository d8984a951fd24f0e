#include "src/plugins/json_plugin.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>

#include "src/common/counters.h"
#include "src/common/hash.h"
#include "src/common/task_scheduler.h"

namespace proteus {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parsing machinery
// ---------------------------------------------------------------------------

namespace {

struct JsonCursor {
  const char* p;
  const char* end;

  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
  }
  bool Eof() const { return p >= end; }
  char Peek() const { return *p; }

  Status Expect(char c) {
    SkipWs();
    if (Eof() || *p != c) {
      return Status::ParseError(std::string("expected '") + c + "' in JSON at offset " +
                                std::to_string(end - p));
    }
    ++p;
    return Status::OK();
  }

  /// Skips a string literal (cursor at opening quote).
  Status SkipString() {
    ++p;  // opening quote
    while (p < end) {
      if (*p == '\\') {
        p += 2;
        continue;
      }
      if (*p == '"') {
        ++p;
        return Status::OK();
      }
      ++p;
    }
    return Status::ParseError("unterminated JSON string");
  }

  /// Parses a field name into `out` (no unescaping: names are plain).
  Status ParseName(std::string_view* out) {
    SkipWs();
    if (Eof() || *p != '"') return Status::ParseError("expected field name");
    const char* s = ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') ++p;
      ++p;
    }
    if (Eof()) return Status::ParseError("unterminated field name");
    *out = {s, static_cast<size_t>(p - s)};
    ++p;
    return Status::OK();
  }

  /// Skips any JSON value; reports its span and type.
  Status SkipValue(const char** vstart, const char** vend, JsonTokenType* type) {
    SkipWs();
    if (Eof()) return Status::ParseError("unexpected end of JSON");
    *vstart = p;
    char c = *p;
    if (c == '"') {
      *type = JsonTokenType::kString;
      PROTEUS_RETURN_NOT_OK(SkipString());
    } else if (c == '{' || c == '[') {
      *type = c == '{' ? JsonTokenType::kObject : JsonTokenType::kArray;
      int depth = 0;
      while (p < end) {
        char d = *p;
        if (d == '"') {
          PROTEUS_RETURN_NOT_OK(SkipString());
          continue;
        }
        if (d == '{' || d == '[') ++depth;
        if (d == '}' || d == ']') {
          --depth;
          ++p;
          if (depth == 0) break;
          continue;
        }
        ++p;
      }
      if (depth != 0) return Status::ParseError("unbalanced JSON brackets");
    } else if (c == 't' || c == 'f') {
      *type = JsonTokenType::kBool;
      p += (c == 't') ? 4 : 5;
      if (p > end) return Status::ParseError("truncated JSON literal");
    } else if (c == 'n') {
      *type = JsonTokenType::kNull;
      p += 4;
      if (p > end) return Status::ParseError("truncated JSON literal");
    } else {
      bool is_float = false;
      while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) || *p == '-' ||
                         *p == '+' || *p == '.' || *p == 'e' || *p == 'E')) {
        if (*p == '.' || *p == 'e' || *p == 'E') is_float = true;
        ++p;
      }
      if (p == *vstart) return Status::ParseError("invalid JSON value");
      *type = is_float ? JsonTokenType::kFloat : JsonTokenType::kInt;
    }
    *vend = p;
    return Status::OK();
  }
};

std::string UnescapeJsonString(const char* s, const char* e) {
  std::string out;
  out.reserve(static_cast<size_t>(e - s));
  for (const char* p = s; p < e; ++p) {
    if (*p == '\\' && p + 1 < e) {
      ++p;
      switch (*p) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        default: out += *p;
      }
    } else {
      out += *p;
    }
  }
  return out;
}

}  // namespace

Result<Value> ParseJsonValue(const char* begin, const char* end) {
  JsonCursor c{begin, end};
  c.SkipWs();
  if (c.Eof()) return Status::ParseError("empty JSON value");
  char ch = c.Peek();
  if (ch == '{') {
    std::vector<std::string> names;
    std::vector<Value> values;
    PROTEUS_RETURN_NOT_OK(c.Expect('{'));
    c.SkipWs();
    if (!c.Eof() && c.Peek() == '}') {
      ++c.p;
      return Value::MakeRecord({}, {});
    }
    while (true) {
      std::string_view name;
      PROTEUS_RETURN_NOT_OK(c.ParseName(&name));
      PROTEUS_RETURN_NOT_OK(c.Expect(':'));
      const char *vs, *ve;
      JsonTokenType vt;
      PROTEUS_RETURN_NOT_OK(c.SkipValue(&vs, &ve, &vt));
      PROTEUS_ASSIGN_OR_RETURN(Value v, ParseJsonValue(vs, ve));
      names.emplace_back(name);
      values.push_back(std::move(v));
      c.SkipWs();
      if (!c.Eof() && c.Peek() == ',') {
        ++c.p;
        continue;
      }
      break;
    }
    PROTEUS_RETURN_NOT_OK(c.Expect('}'));
    return Value::MakeRecord(std::move(names), std::move(values));
  }
  if (ch == '[') {
    ValueList elems;
    PROTEUS_RETURN_NOT_OK(c.Expect('['));
    c.SkipWs();
    if (!c.Eof() && c.Peek() == ']') {
      ++c.p;
      return Value::MakeList({});
    }
    while (true) {
      const char *vs, *ve;
      JsonTokenType vt;
      PROTEUS_RETURN_NOT_OK(c.SkipValue(&vs, &ve, &vt));
      PROTEUS_ASSIGN_OR_RETURN(Value v, ParseJsonValue(vs, ve));
      elems.push_back(std::move(v));
      c.SkipWs();
      if (!c.Eof() && c.Peek() == ',') {
        ++c.p;
        continue;
      }
      break;
    }
    PROTEUS_RETURN_NOT_OK(c.Expect(']'));
    return Value::MakeList(std::move(elems));
  }
  if (ch == '"') {
    const char *vs, *ve;
    JsonTokenType vt;
    PROTEUS_RETURN_NOT_OK(c.SkipValue(&vs, &ve, &vt));
    return Value::Str(UnescapeJsonString(vs + 1, ve - 1));
  }
  if (ch == 't') return Value::Boolean(true);
  if (ch == 'f') return Value::Boolean(false);
  if (ch == 'n') return Value::Null();
  // number
  std::string_view text(begin, static_cast<size_t>(end - begin));
  bool is_float = text.find('.') != std::string_view::npos ||
                  text.find('e') != std::string_view::npos ||
                  text.find('E') != std::string_view::npos;
  if (is_float) {
    double d = 0;
    auto [ptr, ec] = std::from_chars(c.p, end, d);
    if (ec != std::errc()) return Status::ParseError("bad JSON number");
    return Value::Float(d);
  }
  int64_t i = 0;
  auto [ptr, ec] = std::from_chars(c.p, end, i);
  if (ec != std::errc()) return Status::ParseError("bad JSON number");
  return Value::Int(i);
}

// ---------------------------------------------------------------------------
// Structural index construction
// ---------------------------------------------------------------------------

namespace {

/// Walks one object depth-first in document order, reporting every record
/// field's value token to `sink` (nested record fields too, under their
/// dotted path) and, for array tokens, the element spans first. The count
/// and fill passes share this walker, so they agree on every object by
/// construction.
///
/// Path hashes equal HashString(dotted path) without building the path:
/// FNV-1a streams, so hashing "." and then the name from the prefix's hash
/// continues the prefix's hash. They are computed only when the sink asks.
template <class Sink>
Status WalkObject(JsonCursor* c, const char* obj_base, uint64_t prefix_hash, bool prefix_empty,
                  Sink* sink) {
  PROTEUS_RETURN_NOT_OK(c->Expect('{'));
  c->SkipWs();
  if (!c->Eof() && c->Peek() == '}') {
    ++c->p;
    return Status::OK();
  }
  auto rel = [obj_base](const char* q) { return static_cast<uint32_t>(q - obj_base); };
  while (true) {
    std::string_view name;
    PROTEUS_RETURN_NOT_OK(c->ParseName(&name));
    PROTEUS_RETURN_NOT_OK(c->Expect(':'));
    const char *vs, *ve;
    JsonTokenType vt;
    PROTEUS_RETURN_NOT_OK(c->SkipValue(&vs, &ve, &vt));
    uint64_t path_hash = 0;
    if (sink->wants_hashes()) {
      path_hash = prefix_empty ? HashString(name)
                               : HashBytes(name.data(), name.size(), HashBytes(".", 1, prefix_hash));
    }
    if (vt == JsonTokenType::kArray) {
      JsonCursor ac{vs, ve};
      PROTEUS_RETURN_NOT_OK(ac.Expect('['));
      ac.SkipWs();
      uint32_t count = 0;
      if (!ac.Eof() && ac.Peek() != ']') {
        while (true) {
          const char *es, *ee;
          JsonTokenType et;
          PROTEUS_RETURN_NOT_OK(ac.SkipValue(&es, &ee, &et));
          sink->Elem({rel(es), rel(ee), et});
          ++count;
          ac.SkipWs();
          if (!ac.Eof() && ac.Peek() == ',') {
            ++ac.p;
            continue;
          }
          break;
        }
      }
      sink->Array(count);
    }
    sink->Token(path_hash, {rel(vs), rel(ve), vt});
    if (vt == JsonTokenType::kObject) {
      // Register nested record fields too (Fig 4: c.d.d1 is in Level 0).
      JsonCursor nested{vs, ve};
      PROTEUS_RETURN_NOT_OK(
          WalkObject(&nested, obj_base, path_hash, prefix_empty && name.empty(), sink));
    }
    c->SkipWs();
    if (!c->Eof() && c->Peek() == ',') {
      ++c->p;
      continue;
    }
    break;
  }
  return c->Expect('}');
}

/// Visits the objects (non-blank lines) of bytes [p, end); stops at the
/// first `fn` failure and returns it with the chunk-local object index.
template <class Fn>
Status ForEachObject(const char* p, const char* end, uint64_t* objects, Fn fn) {
  while (p < end) {
    const char* line_end = static_cast<const char*>(memchr(p, '\n', end - p));
    if (line_end == nullptr) line_end = end;
    if (line_end != p) {  // blank lines hold no object
      PROTEUS_RETURN_NOT_OK(fn(p, line_end));
      ++*objects;
    }
    p = line_end < end ? line_end + 1 : end;
  }
  return Status::OK();
}

/// Pass 1 of one chunk: index sizes, plus whether every object in the chunk
/// has the path sequence of the chunk's first object.
struct JsonChunkCount {
  uint64_t objects = 0, tokens = 0, elems = 0, arrays = 0;
  Status error;  ///< first malformed object; `objects` is its local index
  bool check_schema = false;
  std::vector<uint64_t> first_paths;  ///< path hashes of the first object
  bool uniform = true;
  size_t pos = 0;  ///< current object's token position in first_paths

  bool wants_hashes() const { return check_schema; }
  void Elem(const JsonElem&) { ++elems; }
  void Array(uint32_t) { ++arrays; }
  void Token(uint64_t path_hash, const JsonToken&) {
    ++tokens;
    if (!check_schema) return;
    if (objects == 0) {
      first_paths.push_back(path_hash);
    } else if (uniform && (pos >= first_paths.size() || first_paths[pos] != path_hash)) {
      uniform = false;
    }
    ++pos;
  }
  void EndObject() {
    if (objects > 0 && pos != first_paths.size()) uniform = false;
    pos = 0;
  }
};

/// Pass 2 of one chunk: writes the chunk's slice of the exactly-sized index
/// arrays in place, starting at the chunk's offsets from pass 1.
struct JsonChunkFill {
  JsonToken* tokens;
  JsonElem* elems;
  JsonArrayInfo* arrays;
  std::pair<uint64_t, uint32_t>* level0;  ///< null in fixed-schema mode
  uint32_t tok, elem, arr;

  bool wants_hashes() const { return level0 != nullptr; }
  void Elem(const JsonElem& e) { elems[elem++] = e; }
  void Array(uint32_t count) { arrays[arr++] = {tok, elem - count, count}; }
  void Token(uint64_t path_hash, const JsonToken& t) {
    if (level0 != nullptr) level0[tok] = {path_hash, tok};
    tokens[tok++] = t;
  }
};

}  // namespace

Status JsonPlugin::Open(TaskScheduler* scheduler) {
  if (opened_) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(file_, MmapFile::Open(info_.path));
  PROTEUS_RETURN_NOT_OK(BuildIndex(scheduler));
  opened_ = true;
  return Status::OK();
}

Status JsonPlugin::BuildIndex(TaskScheduler* scheduler) {
  const char* base = file_.data();
  const std::vector<uint64_t> cuts =
      LineAlignedCuts(base, 0, file_.size(), OpenChunks(scheduler));
  const size_t nchunks = cuts.size() - 1;

  // Pass 1: count each chunk's objects, tokens, elements and arrays, and
  // check the schema. Validation happens here, so pass 2 cannot fail.
  std::vector<JsonChunkCount> counts(nchunks);
  PROTEUS_RETURN_NOT_OK(ForEachChunk(scheduler, nchunks, [&](uint64_t c) {
    JsonChunkCount& k = counts[c];
    k.check_schema = info_.json.exploit_fixed_schema;
    k.error = ForEachObject(base + cuts[c], base + cuts[c + 1], &k.objects,
                            [&](const char* p, const char* line_end) {
                              JsonCursor cur{p, line_end};
                              PROTEUS_RETURN_NOT_OK(WalkObject(&cur, p, 0, true, &k));
                              k.EndObject();
                              return Status::OK();
                            });
  }));

  // Chunk starts in the final arrays (prefix sums), the first error in file
  // order, and whether every object shares the first object's paths.
  struct Offsets {
    uint64_t obj = 0, tok = 0, elem = 0, arr = 0;
  };
  std::vector<Offsets> at(nchunks + 1);
  const std::vector<uint64_t>* first_paths = nullptr;
  bool uniform = info_.json.exploit_fixed_schema;
  for (size_t c = 0; c < nchunks; ++c) {
    const JsonChunkCount& k = counts[c];
    if (!k.error.ok()) {
      return Status::ParseError("object " + std::to_string(at[c].obj + k.objects) + " in " +
                                info_.path + ": " + k.error.message());
    }
    if (k.objects > 0) {
      if (first_paths == nullptr) first_paths = &k.first_paths;
      uniform = uniform && k.uniform && k.first_paths == *first_paths;
    }
    at[c + 1] = {at[c].obj + k.objects, at[c].tok + k.tokens, at[c].elem + k.elems,
                 at[c].arr + k.arrays};
  }
  num_objects_ = at[nchunks].obj;
  // Machine-generated data: every object has the same paths, so Level 0 is
  // never built and lookups become deterministic.
  fixed_schema_ = uniform && num_objects_ > 0;

  obj_offsets_.resize(num_objects_);
  tok_begin_.resize(num_objects_ + 1);
  tokens_.resize(at[nchunks].tok);
  elems_.resize(at[nchunks].elem);
  arrays_.resize(at[nchunks].arr);
  if (!fixed_schema_) {
    level0_.resize(tokens_.size());
    level0_begin_.resize(num_objects_ + 1);
  }

  // Pass 2: fill each chunk's slices in place; nothing large is allocated
  // on the workers.
  std::vector<Status> fill_errors(nchunks);
  PROTEUS_RETURN_NOT_OK(ForEachChunk(scheduler, nchunks, [&](uint64_t c) {
    JsonChunkFill f{tokens_.data(),
                    elems_.data(),
                    arrays_.data(),
                    fixed_schema_ ? nullptr : level0_.data(),
                    static_cast<uint32_t>(at[c].tok),
                    static_cast<uint32_t>(at[c].elem),
                    static_cast<uint32_t>(at[c].arr)};
    uint64_t obj = at[c].obj;
    fill_errors[c] = ForEachObject(
        base + cuts[c], base + cuts[c + 1], &obj, [&](const char* p, const char* line_end) {
          obj_offsets_[obj] = static_cast<uint64_t>(p - base);
          tok_begin_[obj] = f.tok;
          JsonCursor cur{p, line_end};
          PROTEUS_RETURN_NOT_OK(WalkObject(&cur, p, 0, true, &f));
          if (!fixed_schema_) {
            // Level 0 for this object: its (hash, token) slice, sorted.
            level0_begin_[obj] = tok_begin_[obj];
            std::sort(level0_.begin() + tok_begin_[obj], level0_.begin() + f.tok);
          }
          return Status::OK();
        });
  }));
  for (const Status& st : fill_errors) PROTEUS_RETURN_NOT_OK(st);
  tok_begin_[num_objects_] = static_cast<uint32_t>(tokens_.size());
  if (!fixed_schema_) {
    level0_begin_[num_objects_] = static_cast<uint32_t>(level0_.size());
  } else {
    for (uint32_t k = 0; k < first_paths->size(); ++k) {
      fixed_slots_.emplace((*first_paths)[k], k);
    }
  }
  return Status::OK();
}

size_t JsonPlugin::StructuralIndexBytes() const {
  return tokens_.capacity() * sizeof(JsonToken) + tok_begin_.capacity() * sizeof(uint32_t) +
         elems_.capacity() * sizeof(JsonElem) + arrays_.capacity() * sizeof(JsonArrayInfo) +
         level0_.capacity() * sizeof(std::pair<uint64_t, uint32_t>) +
         level0_begin_.capacity() * sizeof(uint32_t) +
         obj_offsets_.capacity() * sizeof(uint64_t) +
         fixed_slots_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + 16);
}

std::vector<ScanRange> JsonPlugin::Split(uint64_t max_morsels) const {
  return SplitByByteOffsets(obj_offsets_, num_objects_, file_.size(), max_morsels);
}

// ---------------------------------------------------------------------------
// Lookups
// ---------------------------------------------------------------------------

const JsonToken* JsonPlugin::FindTokenByHash(uint64_t oid, uint64_t path_hash) const {
  if (fixed_schema_) {
    auto it = fixed_slots_.find(path_hash);
    if (it == fixed_slots_.end()) return nullptr;
    return &tokens_[tok_begin_[oid] + it->second];
  }
  auto begin = level0_.begin() + level0_begin_[oid];
  auto end = level0_.begin() + level0_begin_[oid + 1];
  auto it = std::lower_bound(begin, end, std::make_pair(path_hash, uint32_t(0)));
  if (it == end || it->first != path_hash) return nullptr;
  return &tokens_[it->second];
}

Result<const JsonToken*> JsonPlugin::FindToken(uint64_t oid, const FieldPath& path) const {
  const JsonToken* tok = FindTokenByHash(oid, HashString(DottedPath(path)));
  if (tok == nullptr) {
    return Status::NotFound("object " + std::to_string(oid) + " has no field '" +
                            DottedPath(path) + "'");
  }
  return tok;
}

Result<Value> JsonPlugin::SpanToValue(const char* s, const char* e, JsonTokenType type) const {
  GlobalCounters().raw_field_accesses++;
  switch (type) {
    case JsonTokenType::kNull:
      return Value::Null();
    case JsonTokenType::kBool:
      return Value::Boolean(*s == 't');
    case JsonTokenType::kInt: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(s, e, v);
      if (ec != std::errc()) return Status::ParseError("bad int token");
      return Value::Int(v);
    }
    case JsonTokenType::kFloat: {
      double v = 0;
      auto [ptr, ec] = std::from_chars(s, e, v);
      if (ec != std::errc()) return Status::ParseError("bad float token");
      return Value::Float(v);
    }
    case JsonTokenType::kString:
      return Value::Str(UnescapeJsonString(s + 1, e - 1));
    case JsonTokenType::kObject:
    case JsonTokenType::kArray:
      return ParseJsonValue(s, e);
  }
  return Status::Internal("bad token type");
}

Result<Value> JsonPlugin::TokenToValue(uint64_t oid, const JsonToken& tok) const {
  const char* ob = ObjectBase(oid);
  return SpanToValue(ob + tok.start, ob + tok.end, tok.type);
}

void JsonPlugin::AccumulateStats(uint64_t begin, uint64_t end,
                                 const std::vector<FieldPath>& leaves,
                                 ColumnStatsAccumulator* acc, Status* errors) {
  std::vector<uint64_t> path_hashes;
  path_hashes.reserve(leaves.size());
  for (const FieldPath& leaf : leaves) path_hashes.push_back(HashString(DottedPath(leaf)));
  uint64_t accesses = 0;
  // Object-major: each object's tokens are touched once for all its leaves.
  // Int and float tokens parse straight into the accumulator, as ReadValue
  // would box them; anything else takes the boxed path for its exact error.
  for (uint64_t oid = begin; oid < end; ++oid) {
    const char* ob = ObjectBase(oid);
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (!errors[i].ok()) continue;
      const JsonToken* tok = FindTokenByHash(oid, path_hashes[i]);
      if (tok == nullptr) continue;  // an absent optional field is a null
      const char* s = ob + tok->start;
      const char* e = ob + tok->end;
      if (tok->type == JsonTokenType::kNull) {
        ++accesses;
        continue;
      }
      if (tok->type == JsonTokenType::kInt) {
        int64_t v = 0;
        if (std::from_chars(s, e, v).ec == std::errc()) {
          ++accesses;
          acc[i].Add(static_cast<double>(v), Value::HashInt(v));
          continue;
        }
      } else if (tok->type == JsonTokenType::kFloat) {
        double d = 0;
        if (std::from_chars(s, e, d).ec == std::errc()) {
          ++accesses;
          acc[i].Add(d, Value::HashFloat(d));
          continue;
        }
      }
      auto v = TokenToValue(oid, *tok);
      errors[i] = v.ok() ? Status::TypeError("field '" + DottedPath(leaves[i]) + "' of object " +
                                             std::to_string(oid) + " is not numeric")
                         : v.status();
    }
  }
  GlobalCounters().raw_field_accesses += accesses;
}

Result<Value> JsonPlugin::ReadValue(uint64_t oid, const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(const JsonToken* tok, FindToken(oid, path));
  return TokenToValue(oid, *tok);
}

// ---------------------------------------------------------------------------
// Unnest
// ---------------------------------------------------------------------------

namespace {

/// Lazy element cursor: parses one element per GetNext() call — the unnest
/// code path converts values only when consumed (paper §5.2: lazy plug-ins).
class JsonElemUnnestCursorImpl : public UnnestCursor {
 public:
  JsonElemUnnestCursorImpl(const char* obj_base, const std::vector<JsonElem>* elems,
                           uint32_t begin, uint32_t count)
      : obj_base_(obj_base), elems_(elems), pos_(begin), end_(begin + count) {}

  bool HasNext() override { return pos_ < end_; }

  Result<Value> GetNext() override {
    const JsonElem& e = (*elems_)[pos_++];
    GlobalCounters().raw_field_accesses++;
    return ParseJsonValue(obj_base_ + e.start, obj_base_ + e.end);
  }

 private:
  const char* obj_base_;
  const std::vector<JsonElem>* elems_;
  uint32_t pos_;
  uint32_t end_;
};

}  // namespace

const JsonArrayInfo* JsonPlugin::FindArrayInfo(const JsonToken* tok) const {
  auto idx = static_cast<uint32_t>(tok - tokens_.data());
  auto it = std::lower_bound(arrays_.begin(), arrays_.end(), idx,
                             [](const JsonArrayInfo& a, uint32_t i) { return a.token_idx < i; });
  if (it == arrays_.end() || it->token_idx != idx) return nullptr;
  return &*it;
}

Result<std::unique_ptr<UnnestCursor>> JsonPlugin::UnnestInit(uint64_t oid,
                                                             const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(const JsonToken* tok, FindToken(oid, path));
  if (tok->type == JsonTokenType::kNull) {
    return std::unique_ptr<UnnestCursor>(new ValueListUnnestCursor({}));
  }
  if (tok->type != JsonTokenType::kArray) {
    return Status::TypeError("field '" + DottedPath(path) + "' is not an array");
  }
  const JsonArrayInfo* ai = FindArrayInfo(tok);
  if (ai == nullptr) return Status::Internal("array token without element info");
  return std::unique_ptr<UnnestCursor>(new JsonElemUnnestCursorImpl(
      ObjectBase(oid), &elems_, ai->elem_begin, ai->elem_count));
}

}  // namespace proteus
