#include "record/record.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "record/spill_file.h"

namespace blackbox {
namespace {

/// Strings on both sides of the 15-byte inline limit and up to 64 KiB, each
/// also with a leading byte >= 0x80 and a trailing NUL.
std::vector<std::string> ContractStrings() {
  std::vector<std::string> out;
  for (size_t n : {0, 1, 15, 16, 17, 32, 33, 255, 65536}) {
    std::string s(n, '\0');
    for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(i * 131 + n);
    out.push_back(s);
    if (n == 0) continue;
    s[0] = '\xff';
    s[n - 1] = '\0';
    out.push_back(s);
  }
  return out;
}

/// Every value kind, strings at every contract length among them.
std::vector<Value> ContractValues() {
  std::vector<Value> out = {Value::Null(), Value(int64_t{0}),
                            Value(std::numeric_limits<int64_t>::min()),
                            Value(-0.0), Value(1e300)};
  for (const std::string& s : ContractStrings()) out.emplace_back(s);
  return out;
}

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("abc")).AsString(), "abc");
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{1}).type(), ValueType::kInt);
}

TEST(Value, EqualityIsTypeSensitive) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(3.0));  // int and double never equal
  EXPECT_NE(Value(std::string("3")), Value(int64_t{3}));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(Value, CoercionToDouble) {
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).ToDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value::Null().ToDouble(), 0.0);
}

TEST(Value, HashDistinguishesValues) {
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
  EXPECT_EQ(Value(std::string("x")).Hash(), Value(std::string("x")).Hash());
}

TEST(Value, SerializedSizeCountsPayload) {
  EXPECT_EQ(Value::Null().SerializedSize(), 1u);
  EXPECT_EQ(Value(int64_t{5}).SerializedSize(), 9u);
  EXPECT_EQ(Value(std::string("abcd")).SerializedSize(), 1u + 4u + 4u);
}

TEST(Value, TotalOrderAcrossTypes) {
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(std::string("a")) < Value(std::string("b")));
}

TEST(Value, StringsRoundTripAtEveryLength) {
  for (const std::string& s : ContractStrings()) {
    SCOPED_TRACE(s.size());
    Value v(s);
    ASSERT_EQ(v.type(), ValueType::kString);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.SerializedSize(), 1 + 4 + s.size());
  }
}

TEST(Value, CopyMoveAndAssignPreserveTheValue) {
  for (const Value& v : ContractValues()) {
    SCOPED_TRACE(v.SerializedSize());
    Value copy(v);
    EXPECT_EQ(copy, v);
    Value moved(std::move(copy));
    EXPECT_EQ(moved, v);
    Value copy_assigned(std::string(40, 'c'));
    copy_assigned = v;
    EXPECT_EQ(copy_assigned, v);
    Value move_assigned(std::string(40, 'm'));
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, v);
    Value self(v);
    Value& alias = self;
    self = alias;
    EXPECT_EQ(self, v);
    self = std::move(alias);
    EXPECT_EQ(self, v);

    std::string buf;
    EncodeRecord(Record({v}), &buf);
    StatusOr<Record> back = DecodeRecord(buf.data(), buf.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->num_fields(), 1u);
    EXPECT_EQ(back->field(0), v);
  }
}

TEST(Value, MovedFromIsNullAndAssignable) {
  for (const Value& v : ContractValues()) {
    Value src(v);
    Value dst(std::move(src));
    EXPECT_TRUE(src.is_null());
    src = Value(int64_t{7});
    EXPECT_EQ(src.AsInt(), 7);

    Value target;
    target = std::move(dst);
    EXPECT_TRUE(dst.is_null());
    dst = target;
    EXPECT_EQ(dst, v);
  }
}

TEST(Value, StringHashIsStdHashOfTheBytes) {
  // Hash partitioning, and with it every network_bytes meter, depends on
  // this exact function.
  for (const std::string& s : ContractStrings()) {
    EXPECT_EQ(Value(s).Hash(),
              std::hash<std::string>{}(s) ^ 0x9E3779B97F4A7C15ULL)
        << "length " << s.size();
  }
}

TEST(Value, StringOrderAndEqualityMatchStdString) {
  // A small alphabet with NUL and high bytes makes shared prefixes common;
  // truncated copies add exact prefixes.
  const char kAlphabet[] = {'\0', 'a', 'b', '\x7f', '\x80', '\xff'};
  Rng rng(2012);
  std::vector<std::string> strs = ContractStrings();
  std::erase_if(strs, [](const std::string& s) { return s.size() > 255; });
  for (int i = 0; i < 150; ++i) {
    std::string s(static_cast<size_t>(rng.Uniform(0, 40)), '\0');
    for (char& c : s) c = kAlphabet[rng.Uniform(0, 5)];
    strs.push_back(s);
    strs.push_back(s.substr(0, static_cast<size_t>(rng.Uniform(0, 20))));
  }
  for (const std::string& a : strs) {
    const Value va(a);
    for (const std::string& b : strs) {
      const Value vb(b);
      ASSERT_EQ(va < vb, a < b) << a.size() << " vs " << b.size();
      ASSERT_EQ(va == vb, a == b) << a.size() << " vs " << b.size();
    }
  }
}

TEST(Value, ConcatMatchesStringConcatenation) {
  const std::string parts[] = {"", "a", std::string(7, 'x'), std::string(8, 'y'),
                               std::string(15, 'z'), std::string(16, 'w')};
  for (const std::string& a : parts) {
    for (const std::string& b : parts) {
      EXPECT_EQ(Value::Concat(a, b), Value(a + b));
    }
  }
}

TEST(Record, SetFieldGrowsWithNulls) {
  Record r;
  r.SetField(2, Value(int64_t{9}));
  EXPECT_EQ(r.num_fields(), 3u);
  EXPECT_TRUE(r.field(0).is_null());
  EXPECT_EQ(r.field(2).AsInt(), 9);
}

TEST(Record, ConcatPreservesOrder) {
  Record a({Value(int64_t{1}), Value(int64_t{2})});
  Record b({Value(std::string("x"))});
  Record c = Record::Concat(a, b);
  ASSERT_EQ(c.num_fields(), 3u);
  EXPECT_EQ(c.field(2).AsString(), "x");
}

TEST(Record, EqualityPerPaperDefinition) {
  // r1 ≡ r2 iff same arity and pairwise equal values (§2.2).
  Record a({Value(int64_t{1}), Value(int64_t{2})});
  Record b({Value(int64_t{1}), Value(int64_t{2})});
  Record c({Value(int64_t{1})});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DataSet, BagEqualityIgnoresOrder) {
  Record r1({Value(int64_t{1})});
  Record r2({Value(int64_t{2})});
  DataSet a({std::vector<Record>{r1, r2}});
  DataSet b({std::vector<Record>{r2, r1}});
  EXPECT_TRUE(a.BagEquals(b));
}

TEST(DataSet, BagEqualityCountsDuplicates) {
  Record r1({Value(int64_t{1})});
  Record r2({Value(int64_t{2})});
  DataSet a({std::vector<Record>{r1, r1, r2}});
  DataSet b({std::vector<Record>{r1, r2, r2}});
  EXPECT_FALSE(a.BagEquals(b));
}

TEST(DataSet, AppendMovesRecords) {
  DataSet a({std::vector<Record>{Record({Value(int64_t{1})})}});
  DataSet b({std::vector<Record>{Record({Value(int64_t{2})})}});
  a.Append(std::move(b));
  EXPECT_EQ(a.size(), 2u);
}

}  // namespace
}  // namespace blackbox
