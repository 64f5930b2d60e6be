// Tests for the process-wide plan cache (DESIGN.md §3.4): key construction
// (shape + annotation digest + resolved knobs), hit/miss/bypass accounting,
// LRU eviction, the api-layer wiring (cache-hit programs skip annotation and
// enumeration but execute byte-identically), and the ranked-search option
// validation that guards the cache key's search segment.

#include <gtest/gtest.h>

#include <string>

#include "api/optimized_program.h"
#include "api/pipeline.h"
#include "dataflow/annotate.h"
#include "optimizer/plan_cache.h"
#include "reorder/plan.h"
#include "tests/test_flows.h"
#include "workloads/clickstream.h"

namespace blackbox {
namespace {

using optimizer::PlanCache;
using optimizer::PlanCacheKey;
using optimizer::PlanCacheStats;

/// Every test starts from an empty global cache — the cache is process-wide
/// state and other suites in this binary use it too.
class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { PlanCache::Global().Clear(); }
};

std::string DefaultKey(const dataflow::DataFlow& flow) {
  return PlanCacheKey(flow, "sca", optimizer::CostWeights{},
                      enumerate::EnumOptions{}, /*top_k=*/8,
                      /*cost_epsilon=*/0);
}

/// Order-sensitive serialization: cache-hit and cold programs must agree on
/// the exact record sequence, not just the bag.
std::string OutputBytes(const DataSet& ds) {
  std::string out;
  for (size_t i = 0; i < ds.size(); ++i) {
    out += ds.record(i).ToString();
    out += '\n';
  }
  return out;
}

// --- Key construction -------------------------------------------------------

TEST_F(PlanCacheTest, IdenticalFlowsProduceIdenticalKeys) {
  dataflow::DataFlow a = testing::MakeSection3Flow();
  dataflow::DataFlow b = testing::MakeSection3Flow();
  EXPECT_EQ(DefaultKey(a), DefaultKey(b));
}

TEST_F(PlanCacheTest, HintChangesTheKey) {
  dataflow::DataFlow a = testing::MakeSection3Flow();
  dataflow::DataFlow b = testing::MakeSection3Flow();
  b.op(1).hints.selectivity = 0.25;
  EXPECT_NE(DefaultKey(a), DefaultKey(b));
}

TEST_F(PlanCacheTest, UdfCodeChangesTheKey) {
  // Same shape, same names, same keys — only the UDF body differs. The TAC
  // digest must catch it: this is the "black box opened" invalidation.
  dataflow::DataFlow a = testing::MakeSection3Flow();
  dataflow::DataFlow b = testing::MakeSection3Flow();
  b.op(2).udf = testing::MakeAbsUdf();  // was the filter UDF
  EXPECT_NE(DefaultKey(a), DefaultKey(b));
}

TEST_F(PlanCacheTest, ProviderWeightsAndSearchKnobsChangeTheKey) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  const std::string base = DefaultKey(flow);

  EXPECT_NE(base, PlanCacheKey(flow, "manual", optimizer::CostWeights{},
                               enumerate::EnumOptions{}, 8, 0));

  optimizer::CostWeights heavy_net;
  heavy_net.net_per_byte = heavy_net.net_per_byte * 2;
  EXPECT_NE(base, PlanCacheKey(flow, "sca", heavy_net,
                               enumerate::EnumOptions{}, 8, 0));

  optimizer::CostWeights no_combiner;
  no_combiner.enable_combiner = false;
  EXPECT_NE(base, PlanCacheKey(flow, "sca", no_combiner,
                               enumerate::EnumOptions{}, 8, 0));

  enumerate::EnumOptions small;
  small.max_plans = 7;
  EXPECT_NE(base, PlanCacheKey(flow, "sca", optimizer::CostWeights{}, small,
                               8, 0));

  EXPECT_NE(base, PlanCacheKey(flow, "sca", optimizer::CostWeights{},
                               enumerate::EnumOptions{}, core::kAllPlans, 0));
  EXPECT_NE(base, PlanCacheKey(flow, "sca", optimizer::CostWeights{},
                               enumerate::EnumOptions{}, 4, 0));
  EXPECT_NE(base, PlanCacheKey(flow, "sca", optimizer::CostWeights{},
                               enumerate::EnumOptions{}, 8, 0.5));
}

// --- LRU cache mechanics ----------------------------------------------------

class Payload : public optimizer::PlanCacheValue {
 public:
  explicit Payload(int id) : id(id) {}
  int id;
};

TEST_F(PlanCacheTest, LruEvictsOldestAndRefreshesOnLookup) {
  PlanCache cache(/*capacity=*/2);
  cache.Insert("a", std::make_shared<Payload>(1));
  cache.Insert("b", std::make_shared<Payload>(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refreshes "a"; "b" is now LRU
  cache.Insert("c", std::make_shared<Payload>(3));
  EXPECT_EQ(cache.Lookup("b"), nullptr) << "LRU entry was not evicted";
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  // A handed-out payload survives eviction of its entry (shared ownership).
  std::shared_ptr<const optimizer::PlanCacheValue> held = cache.Lookup("a");
  cache.Insert("d", std::make_shared<Payload>(4));
  cache.Insert("e", std::make_shared<Payload>(5));
  EXPECT_EQ(static_cast<const Payload&>(*held).id, 1);
}

// --- api-layer wiring -------------------------------------------------------

TEST_F(PlanCacheTest, SecondOptimizeIsAHitAndSkipsTheOptimizer) {
  workloads::ClickstreamScale scale;
  scale.sessions = 200;
  workloads::Workload w = workloads::MakeClickstream(scale);
  api::ScaProvider sca;

  StatusOr<api::OptimizedProgram> cold = api::OptimizeFlow(w.flow, sca);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->from_plan_cache());
  PlanCacheStats after_cold = PlanCache::Global().stats();
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.entries, 1u);

  StatusOr<api::OptimizedProgram> warm = api::OptimizeFlow(w.flow, sca);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->from_plan_cache());
  EXPECT_EQ(PlanCache::Global().stats().hits, 1u);

  // The hit aliases the cold result wholesale: same plans, same counters
  // (SCA + enumeration + costing all skipped, nothing re-derived).
  ASSERT_EQ(warm->ranked().size(), cold->ranked().size());
  for (size_t i = 0; i < cold->ranked().size(); ++i) {
    EXPECT_EQ(reorder::CanonicalString(warm->ranked()[i].logical),
              reorder::CanonicalString(cold->ranked()[i].logical));
    EXPECT_DOUBLE_EQ(warm->ranked()[i].cost, cold->ranked()[i].cost);
  }
  EXPECT_EQ(warm->plans_enumerated(), cold->plans_enumerated());
  EXPECT_EQ(&warm->annotated(), &cold->annotated())
      << "a hit must share the cold optimization's result, not copy it";
}

TEST_F(PlanCacheTest, CacheHitExecutesByteIdenticalToCold) {
  api::Pipeline build_a, build_b;
  std::string bytes[2];
  int i = 0;
  DataSet data = testing::MakeSection3Data();
  for (api::Pipeline* p : {&build_a, &build_b}) {
    api::Stream src = p->Source("I", 2, {.rows = 1000, .avg_bytes = 18});
    src.Map("map1_abs", testing::MakeAbsUdf())
        .Map("map2_filter", testing::MakeFilterNonNegUdf())
        .Map("map3_sum", testing::MakeSumUdf())
        .Sink("O");
    StatusOr<api::OptimizedProgram> program = p->Optimize();
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(program->from_plan_cache(), i == 1)
        << "second, identical pipeline must hit the first's entry";
    ASSERT_TRUE(program->BindSource(src, &data).ok());
    StatusOr<DataSet> out = program->RunBest();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    bytes[i++] = OutputBytes(*out);
  }
  EXPECT_EQ(bytes[0], bytes[1])
      << "cache-hit program produced different output than the cold one";
}

TEST_F(PlanCacheTest, DifferentHintsMissTheCache) {
  api::Pipeline a, b;
  dataflow::Hints filter_hints;
  filter_hints.selectivity = 0.5;
  for (api::Pipeline* p : {&a, &b}) {
    api::Stream src = p->Source("I", 2, {.rows = 1000, .avg_bytes = 18});
    auto chain = src.Map("map1_abs", testing::MakeAbsUdf());
    if (p == &b) {
      chain = chain.Map("map2_filter", testing::MakeFilterNonNegUdf(),
                        {.hints = filter_hints});
    } else {
      chain = chain.Map("map2_filter", testing::MakeFilterNonNegUdf());
    }
    chain.Sink("O");
    StatusOr<api::OptimizedProgram> program = p->Optimize();
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_FALSE(program->from_plan_cache());
  }
  EXPECT_EQ(PlanCache::Global().stats().misses, 2u);
}

TEST_F(PlanCacheTest, ProfilerProviderBypassesTheCache) {
  // Profiled hints are measured from bound data: serving another dataset a
  // cached plan ranked for this one would be wrong, so the provider's
  // deterministic() == false must route around the cache entirely.
  workloads::ClickstreamScale scale;
  scale.sessions = 120;
  workloads::Workload w = workloads::MakeClickstream(scale);
  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;
  api::ProfilerProvider profiler;
  for (int round = 0; round < 2; ++round) {
    StatusOr<api::OptimizedProgram> program =
        api::OptimizeFlow(w.flow, profiler, {}, sources);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_FALSE(program->from_plan_cache());
  }
  PlanCacheStats stats = PlanCache::Global().stats();
  EXPECT_EQ(stats.bypasses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(PlanCacheTest, DisabledCacheNeitherHitsNorCounts) {
  workloads::ClickstreamScale scale;
  scale.sessions = 120;
  workloads::Workload w = workloads::MakeClickstream(scale);
  api::ScaProvider sca;
  api::OptimizeOptions options;
  options.use_plan_cache = false;
  for (int round = 0; round < 2; ++round) {
    StatusOr<api::OptimizedProgram> program =
        api::OptimizeFlow(w.flow, sca, options);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_FALSE(program->from_plan_cache());
  }
  PlanCacheStats stats = PlanCache::Global().stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.bypasses + stats.entries, 0u);
}

// --- Ranked-search option validation ---------------------------------------

TEST_F(PlanCacheTest, InvalidSearchBudgetsAreRejected) {
  workloads::ClickstreamScale scale;
  scale.sessions = 120;
  workloads::Workload w = workloads::MakeClickstream(scale);
  api::ScaProvider sca;
  for (int bad_top_k : {0, -3}) {
    api::OptimizeOptions options;
    options.top_k = bad_top_k;
    StatusOr<api::OptimizedProgram> program =
        api::OptimizeFlow(w.flow, sca, options);
    ASSERT_FALSE(program.ok()) << "top_k = " << bad_top_k;
    EXPECT_EQ(program.status().code(), Status::Code::kInvalidArgument);
  }
  api::OptimizeOptions options;
  options.cost_epsilon = -0.25;
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, sca, options);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), Status::Code::kInvalidArgument);
  // Nothing was inserted on the rejected paths.
  EXPECT_EQ(PlanCache::Global().stats().entries, 0u);
}

}  // namespace
}  // namespace blackbox
