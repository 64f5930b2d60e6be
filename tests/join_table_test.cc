// Differential test of the hash joins' JoinTable against the std::map build
// table it replaced: randomized build and probe sets over mixed value types,
// with every probe's matches compared in build arrival order.

#include "engine/join_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/rng.h"

namespace blackbox {
namespace engine {
namespace {

using dataflow::AttrId;

/// The reference: the std::map table the hash joins used before JoinTable,
/// mapping each key to its build indices in arrival order.
class MapTable {
 public:
  MapTable(const std::vector<Record>& build, const std::vector<AttrId>& key) {
    for (uint32_t i = 0; i < build.size(); ++i) {
      table_[KeyOf(build[i], key)].push_back(i);
    }
  }

  std::vector<uint32_t> Find(const Record& probe,
                             const std::vector<AttrId>& key) const {
    auto it = table_.find(KeyOf(probe, key));
    return it == table_.end() ? std::vector<uint32_t>{} : it->second;
  }

 private:
  std::map<std::vector<Value>, std::vector<uint32_t>> table_;
};

/// The table borrows `build`'s records: keep the vector alive and unchanged.
JoinTable Build(const std::vector<Record>& build,
                const std::vector<AttrId>& key) {
  JoinTable t(key, build.size());
  for (const Record& r : build) t.Insert(&r);
  return t;
}

std::vector<uint32_t> Matches(const JoinTable& t, const Record& probe,
                              const std::vector<AttrId>& key) {
  std::vector<uint32_t> out;
  for (uint32_t e = t.Find(probe, key); e != JoinTable::kEnd; e = t.Next(e)) {
    out.push_back(e);
  }
  return out;
}

/// A value from a small domain, so keys repeat: ints, doubles (signed
/// zeros, NaNs of several payloads, and 5.0 beside the int 5), strings and
/// null.
Value RandomValue(Rng* rng) {
  switch (rng->Uniform(0, 3)) {
    case 0:
      return Value(rng->Uniform(3, 6));
    case 1: {
      static const double kDoubles[] = {
          0.0,
          -0.0,
          1.5,
          5.0,
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::nan("7")};
      return Value(kDoubles[rng->Uniform(0, 6)]);
    }
    case 2:
      return Value(std::string(1, static_cast<char>('a' + rng->Uniform(0, 2))));
    default:
      return Value::Null();
  }
}

/// A record of width 0..max_width: key positions past the width read null.
Record RandomRecord(Rng* rng, int max_width) {
  Record r;
  const int64_t width = rng->Uniform(0, max_width);
  for (int64_t f = 0; f < width; ++f) r.Append(RandomValue(rng));
  return r;
}

TEST(JoinTable, MatchesMapTableOnRandomBuildAndProbeSets) {
  constexpr int kWidth = 4;
  Rng rng(20261017);
  int64_t matched_probes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Build and probe keys sit at different positions of their records.
    const size_t key_cols = static_cast<size_t>(rng.Uniform(1, 3));
    std::vector<AttrId> build_key, probe_key;
    for (size_t k = 0; k < key_cols; ++k) {
      build_key.push_back(static_cast<AttrId>(rng.Uniform(0, kWidth)));
      probe_key.push_back(static_cast<AttrId>(rng.Uniform(0, kWidth)));
    }
    std::vector<Record> build, probe;
    const int64_t build_rows = rng.Uniform(0, 120);
    for (int64_t i = 0; i < build_rows; ++i) {
      build.push_back(RandomRecord(&rng, kWidth));
    }
    for (int i = 0; i < 60; ++i) probe.push_back(RandomRecord(&rng, kWidth));

    const MapTable reference(build, build_key);
    const JoinTable table = Build(build, build_key);
    for (const Record& p : probe) {
      std::vector<uint32_t> want = reference.Find(p, probe_key);
      ASSERT_EQ(Matches(table, p, probe_key), want)
          << "trial " << trial << " probe " << p.ToString();
      if (!want.empty()) ++matched_probes;
    }
  }
  // The domain is small enough that most probes hit duplicate keys.
  EXPECT_GT(matched_probes, 300 * 60 / 4);
}

TEST(JoinTable, DuplicateKeysMatchInArrivalOrder) {
  std::vector<Record> build;
  for (int64_t i = 0; i < 10; ++i) {
    build.push_back(Record({Value(i % 3), Value(i)}));
  }
  const std::vector<AttrId> key = {0};
  const JoinTable table = Build(build, key);
  EXPECT_EQ(Matches(table, Record({Value(int64_t{1})}), key),
            (std::vector<uint32_t>{1, 4, 7}));
  EXPECT_EQ(Matches(table, Record({Value(int64_t{3})}), key),
            std::vector<uint32_t>{});
}

TEST(JoinTable, IntNeverMatchesDouble) {
  const std::vector<AttrId> key = {0};
  const std::vector<Record> build = {Record({Value(int64_t{5})})};
  const JoinTable table = Build(build, key);
  EXPECT_EQ(Matches(table, Record({Value(5.0)}), key),
            std::vector<uint32_t>{});
  EXPECT_EQ(Matches(table, Record({Value(int64_t{5})}), key),
            std::vector<uint32_t>{0});
}

TEST(JoinTable, SignedZerosAndNaNsAreOneKeyEach) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<AttrId> key = {0};
  const std::vector<Record> build = {Record({Value(0.0)}), Record({Value(nan)}),
                                     Record({Value(-0.0)}),
                                     Record({Value(-nan)})};
  const JoinTable table = Build(build, key);
  EXPECT_EQ(Matches(table, Record({Value(-0.0)}), key),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Matches(table, Record({Value(std::nan("3"))}), key),
            (std::vector<uint32_t>{1, 3}));
}

TEST(JoinTable, PositionsPastTheWidthReadAsNull) {
  // Build key at position 2: a width-1 record reads null there, like an
  // explicit null.
  const std::vector<AttrId> build_key = {2};
  const std::vector<Record> build = {
      Record({Value(int64_t{1})}),
      Record({Value(int64_t{1}), Value(int64_t{2}), Value::Null()}),
      Record({Value(int64_t{1}), Value(int64_t{2}), Value(0.0)})};
  const JoinTable table = Build(build, build_key);
  const std::vector<AttrId> probe_key = {0};
  EXPECT_EQ(Matches(table, Record({Value::Null()}), probe_key),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Matches(table, Record(), probe_key),
            (std::vector<uint32_t>{0, 1}));
}

TEST(JoinTable, EmptyTableMatchesNothing) {
  const std::vector<AttrId> key = {0, 1};
  const JoinTable table(key, 0);
  EXPECT_EQ(table.Find(Record({Value(int64_t{1}), Value::Null()}), key),
            JoinTable::kEnd);
}

}  // namespace
}  // namespace engine
}  // namespace blackbox
