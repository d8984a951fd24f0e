// Runtime Value: the boxed representation used by the interpreter engine,
// the plug-in boundary, and test oracles. The JIT engine never boxes — it
// keeps field values in LLVM virtual registers (the paper's "virtual
// buffers") — but both engines must agree on these semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/types/type.h"

namespace proteus {

class Value;
using ValueList = std::vector<Value>;

/// An ordered set of named field values. Field order is significant and
/// matches the record's Type.
struct RecordValue {
  std::vector<std::string> names;
  std::vector<Value> values;
};

/// A dynamically-typed value. Null is represented by monostate.
class Value {
 public:
  Value() = default;  // null
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { Value x; x.v_ = v; return x; }
  static Value Float(double v) { Value x; x.v_ = v; return x; }
  static Value Boolean(bool v) { Value x; x.v_ = v; return x; }
  static Value Str(std::string v) { Value x; x.v_ = std::move(v); return x; }
  static Value Record(std::shared_ptr<RecordValue> r) { Value x; x.v_ = std::move(r); return x; }
  static Value List(std::shared_ptr<ValueList> l) { Value x; x.v_ = std::move(l); return x; }

  static Value MakeRecord(std::vector<std::string> names, std::vector<Value> values) {
    auto r = std::make_shared<RecordValue>();
    r->names = std::move(names);
    r->values = std::move(values);
    return Record(std::move(r));
  }
  static Value MakeList(ValueList vals) {
    return List(std::make_shared<ValueList>(std::move(vals)));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_float() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_record() const { return std::holds_alternative<std::shared_ptr<RecordValue>>(v_); }
  bool is_list() const { return std::holds_alternative<std::shared_ptr<ValueList>>(v_); }

  int64_t i() const { return std::get<int64_t>(v_); }
  double f() const { return std::get<double>(v_); }
  bool b() const { return std::get<bool>(v_); }
  const std::string& s() const { return std::get<std::string>(v_); }
  const RecordValue& record() const { return *std::get<std::shared_ptr<RecordValue>>(v_); }
  const ValueList& list() const { return *std::get<std::shared_ptr<ValueList>>(v_); }

  /// Numeric widening: int/date read as double.
  double AsFloat() const { return is_float() ? f() : static_cast<double>(i()); }

  /// Field lookup on a record value.
  Result<Value> GetField(const std::string& name) const;

  /// Total order used by min/max monoids and sorting; null sorts first.
  /// Comparable types only (both numeric, both string, both bool).
  int Compare(const Value& other) const;
  bool Equals(const Value& other) const;

  uint64_t Hash() const;
  /// Hash() of Value::Int(v) / Value::Float(d), without boxing (the typed
  /// statistics passes hash parsed fields directly).
  static uint64_t HashInt(int64_t v) { return HashMix64(static_cast<uint64_t>(v)); }
  static uint64_t HashFloat(double d);
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, bool, std::string,
               std::shared_ptr<RecordValue>, std::shared_ptr<ValueList>>
      v_;
};

}  // namespace proteus
