// Process-wide plan cache (DESIGN.md §3.4): repeated pipelines skip UDF
// analysis, enumeration, and costing entirely. The key is the canonical flow
// shape — every operator's kind, keys, hints, source statistics, and a digest
// of its UDF's TAC code (or manual summary) — combined with the annotation
// provider's name and every knob that influences plan choice (resolved cost
// weights, enumeration budget, top_k / cost_epsilon). Anything
// semantically identical hits; anything that could change a single plan or
// cost misses. Execution-only knobs (thread count, spill directory, serving
// budget carves) are deliberately NOT part of the key: plans are
// deterministic functions of the key by construction, which the
// parallel-determinism suite pins.
//
// Values are type-erased: the optimizer layer cannot name the api layer's
// OptimizationResult, so callers store any immutable payload derived from
// PlanCacheValue. Entries are shared_ptr-held — a hit never copies a plan
// tree, and eviction never invalidates a program already handed out.
//
// Must-bypass rule: providers whose annotations depend on bound DATA (the
// profiler measures selectivities from samples) cannot use the cache — the
// key covers code and declared statistics, not data. The api layer routes
// those providers around the cache and counts the bypass.

#ifndef BLACKBOX_OPTIMIZER_PLAN_CACHE_H_
#define BLACKBOX_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "dataflow/flow.h"
#include "enumerate/enumerate.h"
#include "optimizer/physical.h"

namespace blackbox {
namespace optimizer {

/// Base class for cached payloads (type erasure across layers).
class PlanCacheValue {
 public:
  virtual ~PlanCacheValue() = default;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bypasses = 0;  // lookups skipped (provider uses bound data)
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Thread-safe bounded LRU cache. One process-wide instance (Global());
/// separate instances exist only for tests.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64) : capacity_(capacity) {}

  static PlanCache& Global();

  /// Returns the cached payload and refreshes its LRU position, or null.
  /// Counts a hit or a miss.
  std::shared_ptr<const PlanCacheValue> Lookup(const std::string& key);

  /// Inserts (or replaces) the payload for `key`, evicting the least
  /// recently used entry beyond capacity.
  void Insert(const std::string& key,
              std::shared_ptr<const PlanCacheValue> value);

  /// Counts a deliberate non-use (e.g. profiler-annotated optimization).
  void RecordBypass();

  PlanCacheStats stats() const;

  /// Drops all entries and resets the counters (test isolation).
  void Clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const PlanCacheValue> value;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
};

/// Deterministic cache key for optimizing `flow` under the given provider
/// and knobs. `weights` must be the RESOLVED weights the optimizer will
/// actually run with (with the exec cluster's dop and memory budget).
/// `top_k` and `cost_epsilon` describe the plan search.
std::string PlanCacheKey(const dataflow::DataFlow& flow,
                         const std::string& provider_name,
                         const CostWeights& weights,
                         const enumerate::EnumOptions& enum_options,
                         int top_k, double cost_epsilon);

}  // namespace optimizer
}  // namespace blackbox

#endif  // BLACKBOX_OPTIMIZER_PLAN_CACHE_H_
