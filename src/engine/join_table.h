// JoinTable: the build table of the engine's hash joins (DESIGN.md §2.1).
// Open hashing over borrowed build records, so neither building nor probing
// allocates per record:
//
//   heads_    bucket heads, sized once from the build row count;
//   groups_   one per distinct key: its hash, first and last entry, and the
//             next group of the same bucket;
//   entries_  the build records, numbered in insertion order, each chained
//             to the next record of its group.
//
// Key fields are hashed (KeyHash, the partitioning hash) and compared where
// they sit in the records; a position past a record's width reads as null,
// as KeyOf does. Two keys match iff they are equivalent under KeyLess, the
// order the sort-based strategies group by: 0.0 matches -0.0, NaN matches
// NaN, and Value(5) never matches Value(5.0). A probe's matches come out in
// insertion order, so a table filled in build arrival order emits them in
// build arrival order.

#ifndef BLACKBOX_ENGINE_JOIN_TABLE_H_
#define BLACKBOX_ENGINE_JOIN_TABLE_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "dataflow/attr_set.h"
#include "engine/spill_manager.h"
#include "record/record.h"

namespace blackbox {
namespace engine {

class JoinTable {
 public:
  /// Ends a match chain.
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// An empty table over build records keyed at `build_key` (borrowed: it
  /// must outlive the table), with bucket heads for `build_rows` inserts.
  JoinTable(const std::vector<dataflow::AttrId>& build_key, size_t build_rows)
      : key_(&build_key) {
    assert(build_rows < kEnd);
    const size_t buckets = std::bit_ceil(std::max<size_t>(build_rows, 2));
    shift_ = 64 - std::countr_zero(buckets);
    heads_.assign(buckets, kEnd);
    groups_.reserve(build_rows);
    entries_.reserve(build_rows);
  }

  /// Adds a build record (borrowed: it must outlive the table) as the next
  /// entry: entries are numbered 0, 1, 2, ... in insertion order.
  void Insert(const Record* r) {
    const uint64_t h = KeyHash(*r, *key_);
    const uint32_t e = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{r, kEnd});
    uint32_t& head = heads_[Bucket(h)];
    for (uint32_t g = head; g != kEnd; g = groups_[g].next_group) {
      Group& grp = groups_[g];
      if (grp.hash == h && KeysMatch(record(grp.first), *key_, *r, *key_)) {
        entries_[grp.last].next = e;
        grp.last = e;
        return;
      }
    }
    groups_.push_back(Group{h, e, e, head});
    head = static_cast<uint32_t>(groups_.size() - 1);
  }

  /// The first entry whose key matches `probe`'s key at `probe_key`, or
  /// kEnd; Next() walks the rest of the matches in insertion order.
  uint32_t Find(const Record& probe,
                const std::vector<dataflow::AttrId>& probe_key) const {
    const uint64_t h = KeyHash(probe, probe_key);
    for (uint32_t g = heads_[Bucket(h)]; g != kEnd;
         g = groups_[g].next_group) {
      const Group& grp = groups_[g];
      if (grp.hash == h && KeysMatch(record(grp.first), *key_, probe,
                                     probe_key)) {
        return grp.first;
      }
    }
    return kEnd;
  }

  uint32_t Next(uint32_t entry) const { return entries_[entry].next; }
  const Record& record(uint32_t entry) const { return *entries_[entry].rec; }

 private:
  struct Group {
    uint64_t hash;
    uint32_t first, last;  // entries
    uint32_t next_group;   // same bucket
  };
  struct Entry {
    const Record* rec;
    uint32_t next;  // next entry of the same group
  };

  /// Fibonacci hashing: the top bits of the scrambled hash. All records of
  /// one hash partition share KeyHash modulo dop, so with a power-of-two
  /// dop their low bits are equal, and masking them would crowd a few
  /// buckets.
  size_t Bucket(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  static bool KeysMatch(const Record& a,
                        const std::vector<dataflow::AttrId>& akey,
                        const Record& b,
                        const std::vector<dataflow::AttrId>& bkey) {
    for (size_t k = 0; k < akey.size(); ++k) {
      const Value& x = KeyField(a, akey[k]);
      const Value& y = KeyField(b, bkey[k]);
      if (x < y || y < x) return false;
    }
    return true;
  }

  const std::vector<dataflow::AttrId>* key_;
  int shift_ = 0;  // 64 - log2(bucket count)
  std::vector<uint32_t> heads_;
  std::vector<Group> groups_;
  std::vector<Entry> entries_;
};

}  // namespace engine
}  // namespace blackbox

#endif  // BLACKBOX_ENGINE_JOIN_TABLE_H_
