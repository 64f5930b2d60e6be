// Shared defaults for the simulated cluster. The execution engine
// (engine::ExecOptions) and the cost model (optimizer::CostWeights) must
// describe the same machine by default — estimates and measured runs diverge
// silently otherwise (they once defaulted to dop 8 vs dop 32). Single source
// of truth lives here; OptimizeFlow() copies the exec cluster into the cost
// weights and rejects weights that contradict it.

#ifndef BLACKBOX_COMMON_DEFAULTS_H_
#define BLACKBOX_COMMON_DEFAULTS_H_

namespace blackbox {

/// Default degree of parallelism of the simulated cluster (number of
/// simulated instances / hash partitions).
inline constexpr int kDefaultDop = 8;

/// Default per-instance memory budget in bytes before local strategies spill.
inline constexpr double kDefaultMemBudgetBytes = 16.0 * (1 << 20);

}  // namespace blackbox

#endif  // BLACKBOX_COMMON_DEFAULTS_H_
