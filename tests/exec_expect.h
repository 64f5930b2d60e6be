// Expectations on engine results shared by the engine test suites: the
// determinism contract's byte-identical output and meters (DESIGN.md §2.1).

#ifndef BLACKBOX_TESTS_EXEC_EXPECT_H_
#define BLACKBOX_TESTS_EXEC_EXPECT_H_

#include <gtest/gtest.h>

#include <string>

#include "engine/executor.h"
#include "record/record.h"

namespace blackbox {
namespace testing {

/// Byte-identical: same record sequence, not just bag equality — partition
/// gather order is part of the determinism contract.
inline void ExpectIdenticalOutput(const DataSet& a, const DataSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.record(i), b.record(i)) << "record " << i << ": "
                                        << a.record(i).ToString() << " vs "
                                        << b.record(i).ToString();
  }
}

/// All meters and the derived simulated time must match exactly;
/// wall_seconds is the one field allowed to vary with thread count.
inline void ExpectIdenticalMeters(const engine::ExecStats& a,
                                  const engine::ExecStats& b) {
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
  EXPECT_EQ(a.udf_calls, b.udf_calls);
  EXPECT_EQ(a.interp_instructions, b.interp_instructions);
  EXPECT_EQ(a.cpu_burn_units, b.cpu_burn_units);
  EXPECT_EQ(a.records_processed, b.records_processed);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.skipped_batches, b.skipped_batches);
  EXPECT_EQ(a.skipped_spill_bytes, b.skipped_spill_bytes);
  EXPECT_EQ(a.fused_chains, b.fused_chains);
  EXPECT_EQ(a.specialized_instructions_saved,
            b.specialized_instructions_saved);
  EXPECT_EQ(a.projected_fields_skipped, b.projected_fields_skipped);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  ASSERT_EQ(a.per_op.size(), b.per_op.size());
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    SCOPED_TRACE("per_op[" + std::to_string(i) + "]");
    EXPECT_EQ(a.per_op[i].udf_calls, b.per_op[i].udf_calls);
    EXPECT_EQ(a.per_op[i].rows_out, b.per_op[i].rows_out);
    EXPECT_EQ(a.per_op[i].interp_instructions,
              b.per_op[i].interp_instructions);
    EXPECT_EQ(a.per_op[i].cpu_burn_units, b.per_op[i].cpu_burn_units);
    EXPECT_EQ(a.per_op[i].singleton_groups, b.per_op[i].singleton_groups);
  }
}

}  // namespace testing
}  // namespace blackbox

#endif  // BLACKBOX_TESTS_EXEC_EXPECT_H_
