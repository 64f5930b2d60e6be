// Table 1: number of reordered alternatives enumerated with manually
// annotated read/write sets vs. sets automatically derived by static code
// analysis, for all four evaluation tasks. Paper values:
//
//   Clickstream   4      3 (75%)
//   TPC-H Q7      2518   2518 (100%)
//   TPC-H Q15     4      4 (100%)
//   Text Mining   24     24 (100%)

#include <cstdio>

#include "api/optimized_program.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace {

using namespace blackbox;

size_t Count(const dataflow::DataFlow& flow,
             const api::AnnotationProvider& provider) {
  // Table 1 reports the size of the FULL reorder closure each annotation
  // source admits — the exhaustive search, not the anytime one.
  api::OptimizeOptions options;
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(flow, provider, options);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 0;
  }
  return program->num_alternatives();
}

void Row(const char* task, const dataflow::DataFlow& flow, const char* paper) {
  size_t manual = Count(flow, api::ManualProvider());
  size_t sca = Count(flow, api::ScaProvider());
  std::printf("  %-14s %-18zu %zu (%.0f%%)%-6s paper: %s\n", task, manual, sca,
              manual ? 100.0 * sca / manual : 0, "", paper);
}

}  // namespace

int main() {
  std::printf(
      "Table 1 — enumerated orders: manual annotations vs. static code "
      "analysis\n");
  std::printf("  %-14s %-18s %-18s\n", "PACT Task", "Manual Annotation",
              "SCA");
  workloads::TpchScale small;
  small.lineitems = 1000;
  small.orders = 200;
  small.customers = 50;
  small.suppliers = 20;
  workloads::ClickstreamScale cs;
  cs.sessions = 200;
  workloads::TextMiningScale tm;
  tm.documents = 200;

  Row("Clickstream", workloads::MakeClickstream(cs).flow, "4 / 3 (75%)");
  Row("TPC-H Q7", workloads::MakeTpchQ7(small).flow, "2518 / 2518 (100%)");
  Row("TPC-H Q15", workloads::MakeTpchQ15(small).flow, "4 / 4 (100%)");
  Row("Text Mining", workloads::MakeTextMining(tm).flow, "24 / 24 (100%)");
  std::printf("\n");
  return 0;
}
