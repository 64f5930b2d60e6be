// Differential memory-budget oracle for the spill-to-disk breakers
// (DESIGN.md §2.3): optimize each seed workload, a CoGroup flow and a Cross
// flow once, then execute EVERY ranked closure alternative at budgets
// {unbounded, 256 KB, 32 KB, 4 KB} × {1, 8} worker threads, asserting
//   * the sorted sink bytes of every run equal the original plan's
//     unbounded-run output (spilling — including the hash-join's external
//     sort-merge fallback — may permute record order, never the bag),
//   * peak_bytes respects the per-instance budget (plus one batch of slack)
//     at every finite budget — the by-construction contract,
//   * disk_bytes == 0 on unbounded runs and > 0 whenever the workload's
//     working set cannot fit (every alternative at the 4 KB budget),
//   * both meters are identical at 1 and 8 worker threads, and
//   * re-running with fused-chain TAC specialization off (DESIGN.md §2.6)
//     reproduces the identical sorted sink and the EXACT same
//     network/disk/peak/skipped-spill meters at every budget — on the
//     Map-chain text-mining workload specialization must also cut
//     interp_instructions >= 2x at every budget point.
//
// Every meter of every serial, skipping-off and specialization-off run is
// folded into one FNV-1a digest per workload and chain mode, pinned below:
// an engine refactor that moves any meter of any closure plan at any budget
// fails here, even where every bag and bound above still holds.
//
// Also pins the estimate/measurement coupling: the optimizer's spill cost
// term and the engine's measured disk bytes are zero/nonzero together at
// the same budget, and CostWeights::enable_spill ablates the term away.
//
// Registered under the `differential` ctest label (CMakeLists.txt); CI runs
// it in the ASan/UBSan job as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/optimized_program.h"
#include "api/pipeline.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "reorder/plan.h"
#include "tests/test_flows.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

/// Small batches so "one batch of slack" is small against the 4 KB budget.
constexpr size_t kBatchCapacity = 16;
/// One batch of the widest workload records, rounded up.
constexpr int64_t kSlackBytes = 8 << 10;
constexpr double kUnbounded = 1 << 30;

/// Meter digests of the closure sweeps (SweepCounts::Digest), one per
/// workload and chain mode. A change that moves a meter on purpose
/// regenerates them from the lines the failure prints.
constexpr uint64_t kQ7MeterDigest = 0x267d8d9c228d86f3;
constexpr uint64_t kTextMiningFusedMeterDigest = 0x131239c55921c275;
constexpr uint64_t kTextMiningUnfusedMeterDigest = 0x35ef1f8cca5c950c;
constexpr uint64_t kClickstreamMeterDigest = 0x29942cab6910753b;
constexpr uint64_t kCoGroupMeterDigest = 0xb6f806739457394b;
constexpr uint64_t kCrossMeterDigest = 0x9c94d6fc7d849bb4;

std::string SortedOutputBytes(const DataSet& ds) {
  std::vector<Record> sorted = ds.records();
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Record& r : sorted) {
    out += r.ToString();
    out += '\n';
  }
  return out;
}

/// One run's meters: every ExecStats field except wall_seconds, then each
/// operator's per_op UDF meters.
std::string MeterLine(const engine::ExecStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "net=%" PRId64 " disk=%" PRId64 " peak=%" PRId64
                " calls=%" PRId64 " instrs=%" PRId64 " burn=%" PRId64
                " records=%" PRId64 " out=%" PRId64 " skipped=%" PRId64
                " skipped_spill=%" PRId64 " fused=%" PRId64
                " saved=%" PRId64 " proj=%" PRId64 " sim=%.17g",
                s.network_bytes, s.disk_bytes, s.peak_bytes, s.udf_calls,
                s.interp_instructions, s.cpu_burn_units, s.records_processed,
                s.output_rows, s.skipped_batches, s.skipped_spill_bytes,
                s.fused_chains, s.specialized_instructions_saved,
                s.projected_fields_skipped, s.simulated_seconds);
  std::string line = buf;
  for (const engine::ExecStats::OpMeters& m : s.per_op) {
    std::snprintf(buf, sizeof(buf), " %" PRId64 "/%" PRId64 "/%" PRId64
                  "/%" PRId64,
                  m.udf_calls, m.rows_out, m.interp_instructions,
                  m.cpu_burn_units);
    line += buf;
  }
  return line;
}

/// The physical strategies of a plan, operator by operator, without any
/// estimate: with the canonical logical form it names an alternative
/// independently of its rank.
std::string Strategies(const optimizer::PhysicalNode& n) {
  std::string out = std::to_string(n.op_id) + ":" +
                    optimizer::LocalStrategyName(n.local);
  for (size_t i = 0; i < n.ships.size(); ++i) {
    out += std::string(",") + optimizer::ShipStrategyName(n.ships[i]);
    if (i < n.input_presorted.size() && n.input_presorted[i]) out += "+sorted";
  }
  out += "(";
  for (const auto& c : n.children) out += Strategies(*c);
  return out + ")";
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct SweepCounts {
  size_t runs = 0;
  size_t spilled_at_4k = 0;
  /// One line per (alternative, budget): the alternative's canonical plan
  /// and strategies, then its serial, skipping-off and specialization-off
  /// meters.
  std::vector<std::string> meter_lines;

  /// FNV-1a over the sorted meter lines: a ranking change alone does not
  /// move it.
  uint64_t Digest() const {
    std::vector<std::string> lines = meter_lines;
    std::sort(lines.begin(), lines.end());
    std::string all;
    for (const std::string& l : lines) all += l + "\n";
    return Fnv1a(all);
  }
};

/// Requires `counts`' meter digest to equal `pinned`; on a mismatch, prints
/// every meter line so the moved meter can be found.
void ExpectMeterDigest(const SweepCounts& counts, uint64_t pinned) {
  uint64_t digest = counts.Digest();
  if (digest == pinned) return;
  std::string lines;
  for (const std::string& l : counts.meter_lines) lines += l + "\n";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
  ADD_FAILURE() << "meter digest " << hex << " differs from the pinned one; "
                << "meters per alternative and budget:\n"
                << lines;
}

/// Sum of the estimated disk (spill) cost components over a physical tree.
double TreeDiskCost(const optimizer::PhysicalNode& n) {
  double total = n.cost_disk;
  for (const auto& c : n.children) total += TreeDiskCost(*c);
  return total;
}

/// Optimizes once, then sweeps every ranked alternative across the budget ×
/// thread matrix against the original plan's unbounded reference output.
/// `min_instr_ratio` > 0 additionally requires every serial run to execute
/// at least that many times fewer interp instructions specialized than
/// interpreted (the §2.6 bar, held at EVERY budget point).
SweepCounts RunBudgetSweep(const workloads::Workload& w,
                           const api::AnnotationProvider& provider,
                           bool fuse_chains = true,
                           double min_instr_ratio = 0.0) {
  SweepCounts counts;
  api::OptimizeOptions options;
  options.exec.dop = 8;
  options.exec.batch_capacity = kBatchCapacity;
  options.exec.fuse_chains = fuse_chains;
  options.enum_options.max_plans = 512;
  // The oracle quantifies over the FULL closure and needs the implemented
  // plan in it; the ranked default keeps only a top-k.
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;

  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, provider, options, sources);
  if (!program.ok()) {
    ADD_FAILURE() << w.name
                  << ": optimize failed: " << program.status().ToString();
    return counts;
  }
  EXPECT_FALSE(program->truncated())
      << w.name << ": closure truncated at max_plans — oracle is partial";

  int original = program->ImplementedIndex();
  if (original < 0) {
    ADD_FAILURE() << w.name << ": original plan missing from closure";
    return counts;
  }
  program->mutable_exec_options().mem_budget_bytes = kUnbounded;
  program->mutable_exec_options().num_threads = 1;
  StatusOr<DataSet> ref = program->Run(static_cast<size_t>(original));
  if (!ref.ok() || ref->empty()) {
    ADD_FAILURE() << w.name << ": reference run failed or empty: "
                  << ref.status().ToString();
    return counts;
  }
  std::string reference = SortedOutputBytes(*ref);

  const double budgets[] = {kUnbounded, 256 << 10, 32 << 10, 4 << 10};
  for (size_t i = 0; i < program->ranked().size(); ++i) {
    const core::PlannedAlternative& alt = program->ranked()[i];
    for (double budget : budgets) {
      SCOPED_TRACE(w.name + " rank " + std::to_string(alt.rank) +
                   " budget " + std::to_string(static_cast<int64_t>(budget)));
      program->mutable_exec_options().mem_budget_bytes = budget;

      program->mutable_exec_options().num_threads = 1;
      engine::ExecStats serial;
      StatusOr<DataSet> out1 = program->Run(i, &serial);
      if (!out1.ok()) {
        ADD_FAILURE() << out1.status().ToString();
        return counts;
      }
      program->mutable_exec_options().num_threads = 8;
      engine::ExecStats parallel;
      StatusOr<DataSet> out8 = program->Run(i, &parallel);
      if (!out8.ok()) {
        ADD_FAILURE() << out8.status().ToString();
        return counts;
      }
      ++counts.runs;

      // Bag-identical sinks at every budget, vs the unbounded original.
      EXPECT_EQ(SortedOutputBytes(*out1), reference)
          << "serial sorted sink diverges.\nlogical: "
          << reorder::PlanToString(alt.logical, w.flow);
      EXPECT_EQ(SortedOutputBytes(*out8), reference)
          << "parallel sorted sink diverges";

      // Thread-count invariance of both spill meters (and the rest).
      EXPECT_EQ(serial.disk_bytes, parallel.disk_bytes);
      EXPECT_EQ(serial.peak_bytes, parallel.peak_bytes);
      EXPECT_EQ(serial.network_bytes, parallel.network_bytes);
      EXPECT_EQ(serial.output_rows, parallel.output_rows);
      EXPECT_EQ(serial.skipped_batches, parallel.skipped_batches);
      EXPECT_EQ(serial.skipped_spill_bytes, parallel.skipped_spill_bytes);

      // Data-skipping differential (DESIGN.md §2.5): the same alternative
      // with skipping off must produce the identical sink at this budget,
      // and every file byte skipping elided from a run re-scan must be
      // accounted for: disk(on) + skipped_spill(on) == disk(off).
      program->mutable_exec_options().enable_data_skipping = false;
      engine::ExecStats noskip;
      StatusOr<DataSet> out_ns = program->Run(i, &noskip);
      program->mutable_exec_options().enable_data_skipping = true;
      if (!out_ns.ok()) {
        ADD_FAILURE() << out_ns.status().ToString();
        return counts;
      }
      EXPECT_EQ(SortedOutputBytes(*out_ns), reference)
          << "skipping-off sorted sink diverges";
      EXPECT_EQ(noskip.skipped_batches, 0);
      EXPECT_EQ(noskip.skipped_spill_bytes, 0);
      EXPECT_EQ(serial.disk_bytes + serial.skipped_spill_bytes,
                noskip.disk_bytes)
          << "skipped run bytes must exactly cover the disk traffic delta";
      EXPECT_EQ(serial.network_bytes, noskip.network_bytes);
      EXPECT_EQ(serial.output_rows, noskip.output_rows);

      // Chain-specialization differential (DESIGN.md §2.6): the fused TAC
      // program is a pure CPU-side rewrite, so turning it off must leave
      // every byte meter EXACTLY equal — not just the sink bag — at this
      // budget. (udf_calls and skipped_batches legitimately differ: the
      // fused path meters one call per record and refutes at an adapted
      // batch granularity.)
      program->mutable_exec_options().num_threads = 1;
      program->mutable_exec_options().enable_chain_specialization = false;
      engine::ExecStats nospec;
      StatusOr<DataSet> out_np = program->Run(i, &nospec);
      program->mutable_exec_options().enable_chain_specialization = true;
      if (!out_np.ok()) {
        ADD_FAILURE() << out_np.status().ToString();
        return counts;
      }
      EXPECT_EQ(SortedOutputBytes(*out_np), reference)
          << "specialization-off sorted sink diverges";
      EXPECT_EQ(serial.network_bytes, nospec.network_bytes);
      EXPECT_EQ(serial.disk_bytes, nospec.disk_bytes);
      EXPECT_EQ(serial.peak_bytes, nospec.peak_bytes);
      EXPECT_EQ(serial.skipped_spill_bytes, nospec.skipped_spill_bytes);
      EXPECT_EQ(serial.output_rows, nospec.output_rows);
      if (min_instr_ratio > 0.0) {
        EXPECT_GE(static_cast<double>(nospec.interp_instructions),
                  min_instr_ratio *
                      static_cast<double>(serial.interp_instructions))
            << "specialization fell below the " << min_instr_ratio
            << "x instruction bar at this budget";
      }

      counts.meter_lines.push_back(
          reorder::CanonicalString(alt.logical) + " " +
          Strategies(*alt.physical.root) + " budget=" +
          std::to_string(static_cast<int64_t>(budget)) +
          "\n  serial: " + MeterLine(serial) +
          "\n  noskip: " + MeterLine(noskip) +
          "\n  nospec: " + MeterLine(nospec));

      if (budget >= kUnbounded) {
        EXPECT_EQ(serial.disk_bytes, 0)
            << "an unbounded run must never touch disk";
      } else {
        // The by-construction contract: no instance ever held more than the
        // budget plus the batch in flight, spill or no spill.
        EXPECT_LE(serial.peak_bytes,
                  static_cast<int64_t>(budget) + kSlackBytes);
      }
      if (budget == 4 << 10 && serial.disk_bytes > 0) ++counts.spilled_at_4k;
      if (::testing::Test::HasFailure()) return counts;
    }
  }
  return counts;
}

TEST(SpillEquivalence, TpchQ7ClosureSurvivesEveryBudget) {
  workloads::TpchScale scale;
  scale.lineitems = 1200;
  scale.orders = 300;
  scale.customers = 60;
  scale.suppliers = 12;
  scale.nations = 8;
  workloads::Workload w = workloads::MakeTpchQ7(scale);
  api::ScaProvider sca;
  SweepCounts counts = RunBudgetSweep(w, sca);
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(counts.runs, 0u);
  // At 4 KB per instance the Q7 working set cannot fit: every alternative
  // must actually spill (disk_bytes > 0), not just meter.
  EXPECT_EQ(counts.spilled_at_4k, counts.runs / 4)
      << "every Q7 alternative must spill at the 4 KB budget";
  ExpectMeterDigest(counts, kQ7MeterDigest);
}

TEST(SpillEquivalence, TextMiningClosureSurvivesEveryBudget) {
  workloads::TextMiningScale scale;
  scale.documents = 500;
  workloads::Workload w = workloads::MakeTextMining(scale);
  api::ScaProvider sca;

  // Fused, the 8-node pipeline has no breaker except the (heavily filtered,
  // tiny) sink gather: nothing to spill even at 4 KB — fusion eliminated
  // the very buffers a budget would have forced to disk. The Map-dominated
  // chain also carries the §2.6 specialization bar at every budget point.
  SweepCounts fused = RunBudgetSweep(w, sca, /*fuse_chains=*/true,
                                     /*min_instr_ratio=*/2.0);
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(fused.runs, 0u);
  EXPECT_EQ(fused.spilled_at_4k, 0u)
      << "the fused text-mining pipeline has no buffer worth spilling";

  // Unfused, every Map's full output materializes — at 4 KB per instance
  // those buffers must really spill, exercising the chain-output spill path
  // on the Map-heavy workload.
  SweepCounts unfused = RunBudgetSweep(w, sca, /*fuse_chains=*/false);
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(unfused.spilled_at_4k, unfused.runs / 4)
      << "every unfused text-mining run must spill at the 4 KB budget";
  ExpectMeterDigest(fused, kTextMiningFusedMeterDigest);
  ExpectMeterDigest(unfused, kTextMiningUnfusedMeterDigest);
}

TEST(SpillEquivalence, ClickstreamClosureSurvivesEveryBudget) {
  workloads::ClickstreamScale scale;
  scale.sessions = 600;
  scale.users = 80;
  workloads::Workload w = workloads::MakeClickstream(scale);
  api::ManualProvider manual;  // SCA loses the rotation; manual opens it
  SweepCounts counts = RunBudgetSweep(w, manual);
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(counts.runs, 0u);
  EXPECT_EQ(counts.spilled_at_4k, counts.runs / 4)
      << "every clickstream alternative must spill at the 4 KB budget";
  ExpectMeterDigest(counts, kClickstreamMeterDigest);
}

// CoGroup under a budget: at 4 KB both sides' external sorts spill. R has
// 2,000 rows over keys 0–99 and S 800 rows over keys 0–149, so some keys
// have an empty R side.
TEST(SpillEquivalence, CoGroupClosureSurvivesEveryBudget) {
  workloads::Workload w;
  w.name = "cogroup";
  w.flow = testing::MakeCoGroupFlow();
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    w.source_data[0].Add(Record({Value(rng.Uniform(0, 99)),
                                 Value(rng.Uniform(0, 99)),
                                 Value(rng.Uniform(0, 9))}));
  }
  for (int i = 0; i < 800; ++i) {
    w.source_data[1].Add(
        Record({Value(rng.Uniform(0, 149)), Value(rng.Uniform(0, 99))}));
  }
  api::ScaProvider sca;
  SweepCounts counts = RunBudgetSweep(w, sca);
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(counts.runs, 2u * 4u);  // both orders of MakeCoGroupFlow
  EXPECT_EQ(counts.spilled_at_4k, counts.runs / 4)
      << "every CoGroup alternative must spill at the 4 KB budget";
  ExpectMeterDigest(counts, kCoGroupMeterDigest);
}

// Cross under a budget: the broadcast params side (300 rows, about 4.5 KB
// per instance) outgrows a 4 KB instance, so the product runs as a block
// nested loop that re-reads it from disk once per left batch; at 32 KB it
// stays resident and the product's output spills instead.
TEST(SpillEquivalence, CrossClosureSurvivesEveryBudget) {
  workloads::Workload w;
  w.name = "cross";
  w.flow = testing::MakeCrossFlow(300);
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    w.source_data[0].Add(
        Record({Value(rng.Uniform(0, 99)), Value(rng.Uniform(0, 9))}));
  }
  for (int i = 0; i < 300; ++i) {
    w.source_data[1].Add(Record({Value(rng.Uniform(0, 99))}));
  }
  api::ScaProvider sca;
  SweepCounts counts = RunBudgetSweep(w, sca);
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(counts.runs, 4u);  // MakeCrossFlow has one order
  EXPECT_EQ(counts.spilled_at_4k, 1u)
      << "the Cross must spill at the 4 KB budget";
  ExpectMeterDigest(counts, kCrossMeterDigest);
}

// The optimizer's spill estimate and the engine's measurement must flip
// together at the same budget — and CostWeights::enable_spill must ablate
// the estimate (never the measured behavior).
TEST(SpillEquivalence, SpillCostEstimateTracksMeasurement) {
  workloads::TpchScale scale;
  scale.lineitems = 1200;
  scale.orders = 300;
  scale.customers = 60;
  scale.suppliers = 12;
  scale.nations = 8;
  workloads::Workload w = workloads::MakeTpchQ7(scale);
  api::ScaProvider sca;
  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;

  auto optimize = [&](double budget, bool enable_spill) {
    api::OptimizeOptions options;
    options.exec.dop = 8;
    options.exec.mem_budget_bytes = budget;
    options.weights.enable_spill = enable_spill;
    // "Worst plan" below means worst of the FULL closure.
    options.top_k = core::kAllPlans;
    options.use_plan_cache = false;
    return api::OptimizeFlow(w.flow, sca, options, sources);
  };

  {  // Tight budget: the worst plan is priced with a disk term and measures
     // real disk traffic when run at that budget.
    StatusOr<api::OptimizedProgram> p = optimize(4 << 10, true);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    const core::PlannedAlternative& worst = p->ranked().back();
    EXPECT_GT(TreeDiskCost(*worst.physical.root), 0)
        << "worst Q7 plan at 4 KB must carry an estimated spill cost";
    engine::ExecStats stats;
    StatusOr<DataSet> out = p->Run(p->ranked().size() - 1, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GT(stats.disk_bytes, 0);
  }
  {  // Unbounded: estimate and measurement are both zero.
    StatusOr<api::OptimizedProgram> p = optimize(1 << 30, true);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    for (const core::PlannedAlternative& alt : p->ranked()) {
      EXPECT_EQ(TreeDiskCost(*alt.physical.root), 0);
    }
    engine::ExecStats stats;
    StatusOr<DataSet> out = p->Run(p->ranked().size() - 1, &stats);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(stats.disk_bytes, 0);
  }
  {  // Ablation: enable_spill=false zeroes every estimated disk term while
     // the engine still spills (and meters) for real.
    StatusOr<api::OptimizedProgram> p = optimize(4 << 10, false);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    for (const core::PlannedAlternative& alt : p->ranked()) {
      EXPECT_EQ(TreeDiskCost(*alt.physical.root), 0);
    }
    engine::ExecStats stats;
    StatusOr<DataSet> out = p->Run(p->ranked().size() - 1, &stats);
    ASSERT_TRUE(out.ok());
    EXPECT_GT(stats.disk_bytes, 0);
  }
}

// Satellite: a mid-spill write failure surfaces a clean Status and leaves no
// temp files behind (ExecOptions::spill_fault_after_bytes).
TEST(SpillEquivalence, SpillFaultSurfacesCleanStatusAndLeaksNothing) {
  workloads::TpchScale scale;
  scale.lineitems = 1200;
  scale.orders = 300;
  scale.customers = 60;
  scale.suppliers = 12;
  scale.nations = 8;
  workloads::Workload w = workloads::MakeTpchQ7(scale);
  api::ScaProvider sca;
  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;

  std::filesystem::path sandbox =
      std::filesystem::temp_directory_path() / "blackbox-spill-fault-test";
  std::filesystem::remove_all(sandbox);
  ASSERT_TRUE(std::filesystem::create_directories(sandbox));

  api::OptimizeOptions options;
  options.exec.dop = 8;
  options.exec.mem_budget_bytes = 4 << 10;
  options.exec.spill_dir = sandbox.string();
  // The fault is injected into the closure's WORST plan — the one sure to
  // spill at this budget; a ranked top-k might hold only non-spilling plans.
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;
  StatusOr<api::OptimizedProgram> p = api::OptimizeFlow(w.flow, sca, options,
                                                        sources);
  ASSERT_TRUE(p.ok()) << p.status().ToString();

  // Healthy run first: spills happen under the sandbox and are cleaned up.
  engine::ExecStats stats;
  StatusOr<DataSet> ok_run = p->Run(p->ranked().size() - 1, &stats);
  ASSERT_TRUE(ok_run.ok()) << ok_run.status().ToString();
  ASSERT_GT(stats.disk_bytes, 0) << "test needs a budget that forces spills";
  EXPECT_TRUE(std::filesystem::is_empty(sandbox))
      << "successful run left temp files behind";

  // Now fail the spill mid-way.
  p->mutable_exec_options().spill_fault_after_bytes = 8 << 10;
  StatusOr<DataSet> failed = p->Run(p->ranked().size() - 1);
  ASSERT_FALSE(failed.ok()) << "fault injection did not fire";
  EXPECT_EQ(failed.status().code(), Status::Code::kInternal);
  EXPECT_NE(failed.status().message().find("injected spill fault"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_TRUE(std::filesystem::is_empty(sandbox))
      << "failed run leaked temp files";

  std::filesystem::remove_all(sandbox);

  // An unwritable spill directory is a clean error too, not a crash. (A
  // regular file as the "directory" fails even for a root test runner.)
  std::filesystem::path blocker =
      std::filesystem::temp_directory_path() / "blackbox-spill-eq-blocker";
  std::FILE* bf = std::fopen(blocker.c_str(), "wb");
  ASSERT_NE(bf, nullptr);
  std::fclose(bf);
  p->mutable_exec_options().spill_fault_after_bytes = 0;
  p->mutable_exec_options().spill_dir = (blocker / "sub").string();
  StatusOr<DataSet> unwritable = p->Run(p->ranked().size() - 1);
  ASSERT_FALSE(unwritable.ok());
  EXPECT_EQ(unwritable.status().code(), Status::Code::kInvalidArgument);
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace blackbox
