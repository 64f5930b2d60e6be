#include "optimizer/physical.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>

namespace blackbox {
namespace optimizer {

using dataflow::AttrId;
using dataflow::OpKind;
using dataflow::OpProperties;
using reorder::PlanPtr;

// NOTE: the strategy-name switches are deliberately exhaustive with no
// default case and no trailing fallback return, so adding an enum value
// without a name is a compile error (-Wswitch / -Wreturn-type under -Werror).
const char* ShipStrategyName(ShipStrategy s) {
  switch (s) {
    case ShipStrategy::kForward: return "forward";
    case ShipStrategy::kPartitionHash: return "hash-partition";
    case ShipStrategy::kBroadcast: return "broadcast";
  }
  __builtin_unreachable();
}

const char* LocalStrategyName(LocalStrategy s) {
  switch (s) {
    case LocalStrategy::kNone: return "stream";
    case LocalStrategy::kSortGroup: return "sort-group";
    case LocalStrategy::kHashJoinBuildLeft: return "hash-join(build=left)";
    case LocalStrategy::kHashJoinBuildRight: return "hash-join(build=right)";
    case LocalStrategy::kNestedLoop: return "nested-loop";
    case LocalStrategy::kSortCoGroup: return "sort-cogroup";
    case LocalStrategy::kSortMergeJoin: return "sort-merge-join";
    case LocalStrategy::kPreAggregate: return "combine+sort-group";
  }
  __builtin_unreachable();
}

namespace {

/// A partitioning property: the data is hash-partitioned on this attribute
/// set (empty = no useful partitioning / random).
using Partitioning = std::set<AttrId>;

/// A per-partition sort order: records are sorted lexicographically by these
/// attributes, most significant first (empty = no useful order). Produced by
/// sort-based local strategies, destroyed by any shuffle, and truncated when
/// an operator rewrites one of the attributes.
using Ordering = std::vector<AttrId>;

struct Candidate {
  std::shared_ptr<PhysicalNode> node;  // shared: candidates share subtrees
  Partitioning partitioning;
  Ordering ordering;
  double cost = 0;
  double est_rows = 0;
  double est_bytes_per_row = 0;
};

std::unique_ptr<PhysicalNode> ClonePhysical(const PhysicalNode& n) {
  auto out = std::make_unique<PhysicalNode>();
  out->op_id = n.op_id;
  out->ships = n.ships;
  out->local = n.local;
  out->input_presorted = n.input_presorted;
  out->sort_order = n.sort_order;
  out->chain_id = n.chain_id;
  out->est_rows = n.est_rows;
  out->est_bytes_per_row = n.est_bytes_per_row;
  out->cost_network = n.cost_network;
  out->cost_disk = n.cost_disk;
  out->cost_cpu = n.cost_cpu;
  for (const auto& c : n.children) out->children.push_back(ClonePhysical(*c));
  return out;
}

/// Canonical strategy string of a physical subtree — the deterministic
/// tie-break key for equal-cost candidates (the new strategies routinely
/// produce cost ties, e.g. two merge-join candidates declaring the left vs
/// the right key property).
std::string PhysicalKey(const PhysicalNode& n) {
  std::string out = std::to_string(n.op_id);
  out += '/';
  out += std::to_string(static_cast<int>(n.local));
  for (ShipStrategy s : n.ships) {
    out += ',';
    out += std::to_string(static_cast<int>(s));
  }
  out += '[';
  for (AttrId a : n.sort_order) {
    out += std::to_string(a);
    out += ' ';
  }
  out += ']';
  out += '(';
  for (const auto& c : n.children) {
    out += PhysicalKey(*c);
    out += ';';
  }
  out += ')';
  return out;
}

class PhysicalPlanner {
 public:
  PhysicalPlanner(const dataflow::AnnotatedFlow& af, const CostWeights& w)
      : af_(af), w_(w) {}

  StatusOr<PhysicalPlan> Plan(const PlanPtr& plan) {
    StatusOr<std::vector<Candidate>> cands = PlanNodeCands(plan);
    if (!cands.ok()) return cands.status();
    if (cands->empty()) return Status::Internal("no physical candidates");
    // Cheapest wins; ties break on the canonical strategy string so the
    // choice is independent of candidate generation order.
    const Candidate* best = &cands->front();
    std::string best_key = PhysicalKey(*best->node);
    for (const Candidate& c : *cands) {
      if (&c == best) continue;
      if (c.cost > best->cost) continue;
      std::string key = PhysicalKey(*c.node);
      if (c.cost < best->cost || key < best_key) {
        best = &c;
        best_key = std::move(key);
      }
    }
    PhysicalPlan out;
    out.root = ClonePhysical(*best->node);
    out.total_cost = best->cost;
    out.num_chains = AssignChainIds(*af_.flow, out.root.get());
    return out;
  }

 private:
  /// True if `partitioning` guarantees co-location of groups keyed on `key`:
  /// a non-empty partitioning on a subset of the key attributes.
  static bool PartitioningServesKey(const Partitioning& partitioning,
                                    const std::vector<AttrId>& key) {
    if (partitioning.empty()) return false;
    for (AttrId a : partitioning) {
      if (std::find(key.begin(), key.end(), a) == key.end()) return false;
    }
    return true;
  }

  /// True if data sorted by `ordering` is also sorted by the key vector:
  /// the key must be an exact prefix of the ordering (the executor's sort
  /// comparator is lexicographic in key-vector order).
  static bool OrderingServesKey(const Ordering& ordering,
                                const std::vector<AttrId>& key) {
    if (key.empty() || key.size() > ordering.size()) return false;
    for (size_t i = 0; i < key.size(); ++i) {
      if (ordering[i] != key[i]) return false;
    }
    return true;
  }

  /// The longest prefix of `ordering` that survives an operator with the
  /// given write set (a rewritten attribute invalidates it and everything
  /// less significant).
  static Ordering SurvivingOrdering(const Ordering& ordering,
                                    const dataflow::AttrSet& write) {
    Ordering out;
    for (AttrId a : ordering) {
      if (write.Contains(a)) break;
      out.push_back(a);
    }
    return out;
  }

  double ShipCost(ShipStrategy s, double rows, double bytes_per_row) const {
    double bytes = rows * bytes_per_row;
    switch (s) {
      case ShipStrategy::kForward:
        return 0;
      case ShipStrategy::kPartitionHash:
        // (dop-1)/dop of the data crosses the network.
        return w_.net_per_byte * bytes * (w_.dop - 1) / w_.dop;
      case ShipStrategy::kBroadcast:
        return w_.net_per_byte * bytes * (w_.dop - 1);
    }
    return 0;
  }

  /// Disk cost of materializing `bytes` per instance when it exceeds the
  /// memory budget (sort spill / hash-table spill): write + re-read. This
  /// stays an estimate — the engine's measured disk_bytes may differ (it
  /// spills only the overflow, and merge passes re-read runs; DESIGN.md
  /// §2.3) — but both are zero/nonzero together at the same budget, which
  /// the spill-equivalence oracle checks.
  double SpillCost(double total_bytes) const {
    if (!w_.enable_spill) return 0;
    double per_instance = total_bytes / w_.dop;
    if (per_instance <= w_.mem_budget_bytes) return 0;
    return w_.disk_per_byte * 2 * total_bytes;
  }

  /// CPU of sorting `rows` per-partition (also the cost of the engine's
  /// sort-based grouping): n log(n/dop) comparisons.
  double SortCpu(double rows) const {
    return w_.cpu_per_record * rows *
           std::max(1.0, std::log2(std::max(2.0, rows / w_.dop)));
  }

  /// Per-lookup log(build/dop) factor over `build_rows` per instance,
  /// charged per build insert and per probe. The engine's JoinTable is an
  /// open hash table; the factor stays on purpose until hash joins are
  /// re-priced, because re-pricing changes plan choice, the cost-snapshot
  /// goldens and the bench baseline.
  double LookupFactor(double build_rows) const {
    return std::max(1.0, std::log2(std::max(2.0, build_rows / w_.dop)));
  }

  /// Keeps the cheapest candidate per distinct (partitioning, ordering)
  /// property pair plus the overall cheapest (principle of optimality with
  /// interesting properties).
  static void Prune(std::vector<Candidate>* cands) {
    std::vector<Candidate> kept;
    for (Candidate& c : *cands) {
      bool dominated = false;
      for (Candidate& k : kept) {
        if (k.partitioning == c.partitioning && k.ordering == c.ordering &&
            k.cost <= c.cost) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      kept.erase(std::remove_if(kept.begin(), kept.end(),
                                [&](const Candidate& k) {
                                  return k.partitioning == c.partitioning &&
                                         k.ordering == c.ordering &&
                                         k.cost > c.cost;
                                }),
                 kept.end());
      kept.push_back(std::move(c));
    }
    *cands = std::move(kept);
  }

  Candidate MakeCand(const PlanPtr& plan,
                     std::vector<const Candidate*> child_cands,
                     std::vector<ShipStrategy> ships, LocalStrategy local,
                     Partitioning out_partitioning, Ordering out_ordering,
                     double est_rows, double est_bpr, double local_net,
                     double local_disk, double local_cpu,
                     double ship_rows_override = -1,
                     double ship_bpr_override = -1,
                     std::vector<uint8_t> presorted = {}) const {
    auto node = std::make_shared<PhysicalNode>();
    node->op_id = plan->op_id;
    node->ships = ships;
    node->local = local;
    node->input_presorted = std::move(presorted);
    node->sort_order = out_ordering;
    node->est_rows = est_rows;
    node->est_bytes_per_row = est_bpr;
    double child_cost = 0;
    for (size_t i = 0; i < child_cands.size(); ++i) {
      node->children.push_back(ClonePhysical(*child_cands[i]->node));
      child_cost += child_cands[i]->cost;
      // A combiner shrinks the shipped volume below the child's output
      // estimate; the override carries the post-combine volume (input 0).
      double srows = child_cands[i]->est_rows;
      double sbpr = child_cands[i]->est_bytes_per_row;
      if (i == 0 && ship_rows_override >= 0) {
        srows = ship_rows_override;
        sbpr = ship_bpr_override;
      }
      local_net += ShipCost(ships[i], srows, sbpr);
    }
    node->cost_network = local_net;
    node->cost_disk = local_disk;
    node->cost_cpu = local_cpu;
    Candidate c;
    c.cost = child_cost + local_net + local_disk + local_cpu;
    c.node = std::move(node);
    c.partitioning = std::move(out_partitioning);
    c.ordering = std::move(out_ordering);
    c.est_rows = est_rows;
    c.est_bytes_per_row = est_bpr;
    return c;
  }

  StatusOr<std::vector<Candidate>> PlanNodeCands(const PlanPtr& plan) {
    const dataflow::Operator& op = af_.flow->op(plan->op_id);
    const OpProperties& p = af_.of(plan->op_id);
    std::vector<Candidate> out;

    switch (op.kind) {
      case OpKind::kSource: {
        out.push_back(MakeCand(plan, {}, {}, LocalStrategy::kNone, {}, {},
                               static_cast<double>(op.source_rows),
                               op.source_avg_bytes, 0, 0, 0));
        break;
      }
      case OpKind::kSink: {
        StatusOr<std::vector<Candidate>> child = PlanNodeCands(plan->children[0]);
        if (!child.ok()) return child.status();
        for (const Candidate& c : *child) {
          out.push_back(MakeCand(plan, {&c}, {ShipStrategy::kForward},
                                 LocalStrategy::kNone, c.partitioning,
                                 c.ordering, c.est_rows, c.est_bytes_per_row,
                                 0, 0, 0));
        }
        break;
      }
      case OpKind::kMap: {
        StatusOr<std::vector<Candidate>> child = PlanNodeCands(plan->children[0]);
        if (!child.ok()) return child.status();
        for (const Candidate& c : *child) {
          double rows = c.est_rows * op.hints.selectivity;
          double bpr = c.est_bytes_per_row + 9.0 * p.introduced.listed().size();
          // A Map always consumes a forward-shipped stream, so with chain
          // fusion its input edge is fused: records flow through the chain
          // without a per-record materialize/dispatch step, and the engine
          // overhead term (cpu_per_record) is not charged (DESIGN.md §2.2).
          // The UDF's own cost is unchanged.
          // With specialization the Map runs inside the chain's fused TAC
          // program — no inter-stage handoff, dead stores folded away — so
          // its per-call term is discounted (DESIGN.md §2.6).
          double call_unit =
              w_.enable_chain_fusion && w_.enable_chain_specialization
                  ? w_.cpu_per_call_unit * optimizer::kSpecializationCpuDiscount
                  : w_.cpu_per_call_unit;
          double cpu = call_unit * c.est_rows * op.hints.cpu_cost_per_call +
                       (w_.enable_chain_fusion ? 0.0
                                               : w_.cpu_per_record * c.est_rows);
          // A Map invalidates a partitioning if it rewrites partition attrs;
          // a sort order survives up to the first rewritten attribute.
          Partitioning part = c.partitioning;
          for (AttrId a : part) {
            if (p.write.Contains(a)) {
              part.clear();
              break;
            }
          }
          out.push_back(MakeCand(plan, {&c}, {ShipStrategy::kForward},
                                 LocalStrategy::kNone, part,
                                 SurvivingOrdering(c.ordering, p.write), rows,
                                 bpr, 0, 0, cpu));
        }
        break;
      }
      case OpKind::kReduce: {
        StatusOr<std::vector<Candidate>> child = PlanNodeCands(plan->children[0]);
        if (!child.ok()) return child.status();
        const std::vector<AttrId>& key = p.keys[0];
        for (const Candidate& c : *child) {
          double groups = op.hints.distinct_keys > 0
                              ? std::min<double>(
                                    static_cast<double>(op.hints.distinct_keys),
                                    c.est_rows)
                              : std::max(1.0, c.est_rows / 16.0);
          double rows = groups * op.hints.selectivity;
          double bpr = c.est_bytes_per_row + 9.0 * p.introduced.listed().size();
          double in_bytes = c.est_rows * c.est_bytes_per_row;
          double call_cpu = w_.cpu_per_call_unit * groups *
                            op.hints.cpu_cost_per_call;
          double disk = SpillCost(in_bytes);
          Partitioning key_part(key.begin(), key.end());
          // Sort-grouping emits groups in key order: the output carries the
          // key as its sort order (truncated if the UDF rewrites key attrs —
          // impossible for a valid Reduce, but keep the invariant uniform).
          Ordering out_order = SurvivingOrdering(key, p.write);
          // (a) Reuse an existing partitioning that serves the key. If the
          // input also arrives sorted on the key, the grouping sort is free
          // (the §7.1 interesting-order payoff).
          if (w_.enable_partition_reuse &&
              PartitioningServesKey(c.partitioning, key)) {
            bool presorted =
                w_.enable_sort_merge && OrderingServesKey(c.ordering, key);
            double sort_cpu = presorted ? 0 : SortCpu(c.est_rows);
            out.push_back(MakeCand(plan, {&c}, {ShipStrategy::kForward},
                                   LocalStrategy::kSortGroup, c.partitioning,
                                   out_order, rows, bpr, 0,
                                   presorted ? 0 : disk, call_cpu + sort_cpu,
                                   -1, -1, {static_cast<uint8_t>(presorted)}));
          }
          // (b) Hash-repartition on the key (the shuffle destroys any
          // incoming order, so the grouping sort is always paid).
          out.push_back(MakeCand(plan, {&c}, {ShipStrategy::kPartitionHash},
                                 LocalStrategy::kSortGroup, key_part,
                                 out_order, rows, bpr, 0, disk,
                                 call_cpu + SortCpu(c.est_rows)));
          // (c) Combiner: pre-aggregate partition-local groups before the
          // shuffle (legal iff the SCA summary proves combinability). Each
          // of the dop partitions holds at most `groups` distinct keys, so
          // at most groups*dop partials cross the network.
          if (w_.enable_combiner && p.combinable) {
            double partials = std::min(c.est_rows, groups * w_.dop);
            double pre_cpu = w_.cpu_per_call_unit * partials *
                                 op.hints.cpu_cost_per_call +
                             SortCpu(c.est_rows);
            double post_cpu = call_cpu + SortCpu(partials);
            double post_disk = SpillCost(partials * bpr);
            out.push_back(MakeCand(plan, {&c}, {ShipStrategy::kPartitionHash},
                                   LocalStrategy::kPreAggregate, key_part,
                                   out_order, rows, bpr, 0, disk + post_disk,
                                   pre_cpu + post_cpu, partials, bpr));
          }
        }
        break;
      }
      case OpKind::kMatch:
      case OpKind::kCross:
      case OpKind::kCoGroup: {
        StatusOr<std::vector<Candidate>> left_or = PlanNodeCands(plan->children[0]);
        if (!left_or.ok()) return left_or.status();
        StatusOr<std::vector<Candidate>> right_or =
            PlanNodeCands(plan->children[1]);
        if (!right_or.ok()) return right_or.status();
        for (const Candidate& l : *left_or) {
          for (const Candidate& r : *right_or) {
            AppendBinaryCands(plan, op, p, l, r, &out);
          }
        }
        break;
      }
    }
    Prune(&out);
    // Cap the frontier to keep optimization linear in practice. stable_sort:
    // equal-cost candidates keep generation order, so the surviving frontier
    // is deterministic.
    if (out.size() > 16) {
      std::stable_sort(out.begin(), out.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.cost < b.cost;
                       });
      out.resize(16);
    }
    return out;
  }

  void AppendBinaryCands(const PlanPtr& plan, const dataflow::Operator& op,
                         const OpProperties& p, const Candidate& l,
                         const Candidate& r, std::vector<Candidate>* out) {
    double lrows = l.est_rows, rrows = r.est_rows;
    double out_bpr = l.est_bytes_per_row + r.est_bytes_per_row +
                     9.0 * p.introduced.listed().size();

    if (op.kind == OpKind::kCross) {
      double rows = lrows * rrows * op.hints.selectivity;
      double cpu = w_.cpu_per_call_unit * lrows * rrows *
                       op.hints.cpu_cost_per_call +
                   w_.cpu_per_record * (lrows + rrows);
      // Broadcast the smaller side; nested loops locally.
      bool bc_left = lrows * l.est_bytes_per_row <= rrows * r.est_bytes_per_row;
      std::vector<ShipStrategy> ships = {
          bc_left ? ShipStrategy::kBroadcast : ShipStrategy::kForward,
          bc_left ? ShipStrategy::kForward : ShipStrategy::kBroadcast};
      Partitioning part = bc_left ? r.partitioning : l.partitioning;
      out->push_back(MakeCand(plan, {&l, &r}, ships, LocalStrategy::kNestedLoop,
                              part, {}, rows, out_bpr, 0, 0, cpu));
      return;
    }

    const std::vector<AttrId>& lkey = p.keys[0];
    const std::vector<AttrId>& rkey = p.keys[1];
    double domain = op.hints.distinct_keys > 0
                        ? static_cast<double>(op.hints.distinct_keys)
                        : std::max({lrows, rrows, 1.0});
    double rows = op.kind == OpKind::kCoGroup
                      ? domain * op.hints.selectivity
                      : lrows * rrows / domain * op.hints.selectivity;
    double calls = op.kind == OpKind::kCoGroup ? domain : rows;
    double call_cpu = w_.cpu_per_call_unit * calls * op.hints.cpu_cost_per_call;
    double record_cpu = w_.cpu_per_record * (lrows + rrows);

    bool l_served =
        w_.enable_partition_reuse && PartitioningServesKey(l.partitioning, lkey);
    bool r_served =
        w_.enable_partition_reuse && PartitioningServesKey(r.partitioning, rkey);
    std::vector<ShipStrategy> part_ships = {
        l_served ? ShipStrategy::kForward : ShipStrategy::kPartitionHash,
        r_served ? ShipStrategy::kForward : ShipStrategy::kPartitionHash};
    // Sort orders survive only a forward ship (a shuffle interleaves sorted
    // runs from all producer partitions).
    Ordering l_order = part_ships[0] == ShipStrategy::kForward ? l.ordering
                                                               : Ordering{};
    Ordering r_order = part_ships[1] == ShipStrategy::kForward ? r.ordering
                                                               : Ordering{};

    if (op.kind == OpKind::kCoGroup) {
      // Sort both sides, merge groups; a side arriving sorted on its key
      // skips its sort (and the sort's spill).
      bool l_pre = w_.enable_sort_merge && OrderingServesKey(l_order, lkey);
      bool r_pre = w_.enable_sort_merge && OrderingServesKey(r_order, rkey);
      double disk =
          (l_pre ? 0 : SpillCost(lrows * l.est_bytes_per_row)) +
          (r_pre ? 0 : SpillCost(rrows * r.est_bytes_per_row));
      double cpu = call_cpu + record_cpu + (l_pre ? 0 : SortCpu(lrows)) +
                   (r_pre ? 0 : SortCpu(rrows));
      std::vector<uint8_t> presorted = {static_cast<uint8_t>(l_pre),
                                        static_cast<uint8_t>(r_pre)};
      // Result is co-partitioned on both key sets and grouped in key order;
      // emit one candidate per declared property so downstream operators can
      // reuse either.
      out->push_back(MakeCand(plan, {&l, &r}, part_ships,
                              LocalStrategy::kSortCoGroup,
                              Partitioning(lkey.begin(), lkey.end()),
                              SurvivingOrdering(lkey, p.write), rows, out_bpr,
                              0, disk, cpu, -1, -1, presorted));
      out->push_back(MakeCand(plan, {&l, &r}, part_ships,
                              LocalStrategy::kSortCoGroup,
                              Partitioning(rkey.begin(), rkey.end()),
                              SurvivingOrdering(rkey, p.write), rows, out_bpr,
                              0, disk, cpu, -1, -1, presorted));
      return;
    }

    // --- Match ---
    bool build_left =
        lrows * l.est_bytes_per_row <= rrows * r.est_bytes_per_row;
    LocalStrategy join_local = build_left ? LocalStrategy::kHashJoinBuildLeft
                                          : LocalStrategy::kHashJoinBuildRight;
    double build_rows = build_left ? lrows : rrows;
    double build_bytes = std::min(lrows * l.est_bytes_per_row,
                                  rrows * r.est_bytes_per_row);
    double disk = SpillCost(build_bytes);
    // Inserts and probes both pay the log(build/dop) LookupFactor, kept on
    // purpose until hash joins are re-priced (see LookupFactor).
    double hash_cpu = call_cpu + record_cpu +
                      w_.cpu_per_record * (lrows + rrows) *
                          (LookupFactor(build_rows) - 1.0);

    // (a) Repartition both sides on the join keys (reusing served sides).
    // The join streams the probe side, so the probe side's surviving sort
    // order carries to the output.
    {
      Ordering probe_order = SurvivingOrdering(
          build_left ? r_order : l_order, p.write);
      out->push_back(MakeCand(plan, {&l, &r}, part_ships, join_local,
                              Partitioning(lkey.begin(), lkey.end()),
                              probe_order, rows, out_bpr, 0, disk, hash_cpu));
      out->push_back(MakeCand(plan, {&l, &r}, part_ships, join_local,
                              Partitioning(rkey.begin(), rkey.end()),
                              probe_order, rows, out_bpr, 0, disk, hash_cpu));
    }

    // (b) Sort-merge join: sort both sides by the join key and merge. A side
    // that already arrives sorted on its key (forward ship from a sort-based
    // producer) is merged for free — the payoff for tracking sort orders.
    if (w_.enable_sort_merge) {
      bool l_pre = OrderingServesKey(l_order, lkey);
      bool r_pre = OrderingServesKey(r_order, rkey);
      double merge_cpu = call_cpu + 0.5 * record_cpu +
                         (l_pre ? 0 : SortCpu(lrows)) +
                         (r_pre ? 0 : SortCpu(rrows));
      double merge_disk =
          (l_pre ? 0 : SpillCost(lrows * l.est_bytes_per_row)) +
          (r_pre ? 0 : SpillCost(rrows * r.est_bytes_per_row));
      std::vector<uint8_t> presorted = {static_cast<uint8_t>(l_pre),
                                        static_cast<uint8_t>(r_pre)};
      out->push_back(MakeCand(plan, {&l, &r}, part_ships,
                              LocalStrategy::kSortMergeJoin,
                              Partitioning(lkey.begin(), lkey.end()),
                              SurvivingOrdering(lkey, p.write), rows, out_bpr,
                              0, merge_disk, merge_cpu, -1, -1, presorted));
      out->push_back(MakeCand(plan, {&l, &r}, part_ships,
                              LocalStrategy::kSortMergeJoin,
                              Partitioning(rkey.begin(), rkey.end()),
                              SurvivingOrdering(rkey, p.write), rows, out_bpr,
                              0, merge_disk, merge_cpu, -1, -1, presorted));
    }

    // (c) Broadcast one side, preserve the other's partitioning and order.
    // Not applicable to CoGroup (a broadcast side would duplicate groups).
    // A broadcast build table holds the ENTIRE side in every instance, so
    // its lookup depth is log2(rows), not log2(rows/dop) — LookupFactor
    // divides by dop, hence the rows*dop argument.
    if (w_.enable_broadcast) {
      double bc_l_cpu = call_cpu + record_cpu +
                        w_.cpu_per_record * (lrows + rrows) *
                            (LookupFactor(lrows * w_.dop) - 1.0);
      double bc_r_cpu = call_cpu + record_cpu +
                        w_.cpu_per_record * (lrows + rrows) *
                            (LookupFactor(rrows * w_.dop) - 1.0);
      // Broadcast left.
      out->push_back(MakeCand(
          plan, {&l, &r},
          {ShipStrategy::kBroadcast, ShipStrategy::kForward},
          LocalStrategy::kHashJoinBuildLeft, r.partitioning,
          SurvivingOrdering(r.ordering, p.write), rows, out_bpr, 0,
          SpillCost(lrows * l.est_bytes_per_row * w_.dop), bc_l_cpu));
      // Broadcast right.
      out->push_back(MakeCand(
          plan, {&l, &r},
          {ShipStrategy::kForward, ShipStrategy::kBroadcast},
          LocalStrategy::kHashJoinBuildRight, l.partitioning,
          SurvivingOrdering(l.ordering, p.write), rows, out_bpr, 0,
          SpillCost(rrows * r.est_bytes_per_row * w_.dop), bc_r_cpu));
    }
  }

  const dataflow::AnnotatedFlow& af_;
  const CostWeights& w_;
};

}  // namespace

bool IsStreamingStage(const dataflow::Operator& op, const PhysicalNode& n) {
  if (n.children.size() != 1 || n.ships.size() != 1 ||
      n.ships[0] != ShipStrategy::kForward) {
    return false;
  }
  if (n.local != LocalStrategy::kNone) return false;
  return op.kind == OpKind::kMap || op.kind == OpKind::kSink;
}

int AssignChainIds(const dataflow::DataFlow& flow, PhysicalNode* root) {
  int next = 0;
  std::function<void(PhysicalNode&, int)> walk = [&](PhysicalNode& n,
                                                     int inherited) {
    n.chain_id = inherited >= 0 ? inherited : next++;
    // Children join this node's chain only when *this node* streams them
    // through; a breaker's children always open fresh chains.
    bool fuses_child = IsStreamingStage(flow.op(n.op_id), n);
    for (auto& c : n.children) {
      walk(*c, fuses_child ? n.chain_id : -1);
    }
  };
  if (root) walk(*root, -1);
  return next;
}

std::string PhysicalPlan::ToString(const dataflow::DataFlow& flow) const {
  std::ostringstream out;
  std::function<void(const PhysicalNode&, int)> walk = [&](const PhysicalNode& n,
                                                           int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
    const dataflow::Operator& op = flow.op(n.op_id);
    out << dataflow::OpKindName(op.kind) << " \"" << op.name << "\" ["
        << LocalStrategyName(n.local);
    for (size_t i = 0; i < n.ships.size(); ++i) {
      out << ", in" << i << "=" << ShipStrategyName(n.ships[i]);
      if (i < n.input_presorted.size() && n.input_presorted[i]) {
        out << "(presorted)";
      }
    }
    out << "] rows~" << static_cast<int64_t>(n.est_rows);
    if (n.chain_id >= 0) out << " chain=" << n.chain_id;
    out << "\n";
    for (const auto& c : n.children) walk(*c, depth + 1);
  };
  if (root) walk(*root, 0);
  out << "total estimated cost: " << total_cost << "\n";
  return out.str();
}

StatusOr<PhysicalPlan> OptimizePhysical(const dataflow::AnnotatedFlow& af,
                                        const reorder::PlanPtr& plan,
                                        const CostWeights& weights) {
  PhysicalPlanner planner(af, weights);
  return planner.Plan(plan);
}

// ---------------------------------------------------------------------------
// LowerBoundCost — admissible one-pass bound for the ranked enumerator.
//
// Mirrors the candidate generation above term by term, keeping only charges
// that EVERY candidate must pay: any edit to the cost model must keep each
// bound term <= the corresponding minimum over the candidates, or the ranked
// search loses its pruning guarantee (the ranked-vs-closure differential in
// tests/enum_random_chain_test.cc is the tripwire).
// ---------------------------------------------------------------------------

namespace {

/// Bottom-up bound state: exact logical cardinalities (strategy-independent)
/// plus an over-approximation of every partitioning some physical candidate
/// could offer at this subtree's output. Over-approximating can only zero a
/// shuffle charge that the bound might otherwise have made, never add one.
struct BoundInfo {
  double rows = 0;
  double bytes_per_row = 0;
  double lb = 0;                  // bound accumulated over the subtree
  std::set<Partitioning> parts;   // possibly-available partitionings
};

bool AnyPartitioningServes(const std::set<Partitioning>& parts,
                           const std::vector<AttrId>& key) {
  for (const Partitioning& p : parts) {
    if (p.empty()) continue;
    bool subset = true;
    for (AttrId a : p) {
      if (std::find(key.begin(), key.end(), a) == key.end()) {
        subset = false;
        break;
      }
    }
    if (subset) return true;
  }
  return false;
}

double HashShipLb(const CostWeights& w, double bytes) {
  return w.net_per_byte * bytes * (w.dop - 1) / w.dop;
}

/// Identical formula to PhysicalPlanner::SortCpu.
double SortCpuLb(const CostWeights& w, double rows) {
  return w.cpu_per_record * rows *
         std::max(1.0, std::log2(std::max(2.0, rows / w.dop)));
}

BoundInfo BoundNode(const dataflow::AnnotatedFlow& af,
                    const reorder::PlanPtr& plan, const CostWeights& w) {
  const dataflow::Operator& op = af.flow->op(plan->op_id);
  const OpProperties& p = af.of(plan->op_id);
  BoundInfo out;

  switch (op.kind) {
    case OpKind::kSource: {
      out.rows = static_cast<double>(op.source_rows);
      out.bytes_per_row = op.source_avg_bytes;
      return out;
    }
    case OpKind::kSink: {
      // Forward ship, no local work: the sink adds nothing to the bound.
      return BoundNode(af, plan->children[0], w);
    }
    case OpKind::kMap: {
      BoundInfo c = BoundNode(af, plan->children[0], w);
      // Exact: a Map's input is always forward-shipped and its CPU does not
      // depend on any strategy choice.
      // Same specialization discount as the candidate cost above — the bound
      // must price Maps identically to stay admissible.
      double call_unit = w.enable_chain_fusion && w.enable_chain_specialization
                             ? w.cpu_per_call_unit * kSpecializationCpuDiscount
                             : w.cpu_per_call_unit;
      out.lb = c.lb + call_unit * c.rows * op.hints.cpu_cost_per_call +
               (w.enable_chain_fusion ? 0.0 : w.cpu_per_record * c.rows);
      out.rows = c.rows * op.hints.selectivity;
      out.bytes_per_row =
          c.bytes_per_row + 9.0 * p.introduced.listed().size();
      for (const Partitioning& part : c.parts) {
        bool survives = true;
        for (AttrId a : part) {
          if (p.write.Contains(a)) {
            survives = false;
            break;
          }
        }
        if (survives) out.parts.insert(part);
      }
      return out;
    }
    case OpKind::kReduce: {
      BoundInfo c = BoundNode(af, plan->children[0], w);
      const std::vector<AttrId>& key = p.keys[0];
      double groups =
          op.hints.distinct_keys > 0
              ? std::min<double>(static_cast<double>(op.hints.distinct_keys),
                                 c.rows)
              : std::max(1.0, c.rows / 16.0);
      out.rows = groups * op.hints.selectivity;
      out.bytes_per_row =
          c.bytes_per_row + 9.0 * p.introduced.listed().size();
      double call_cpu =
          w.cpu_per_call_unit * groups * op.hints.cpu_cost_per_call;
      bool servable =
          w.enable_partition_reuse && AnyPartitioningServes(c.parts, key);
      // Cheapest case: partitioning reused AND input presorted on the key —
      // the UDF calls alone. Without a serveable partitioning (or without
      // sort-order tracking) every candidate pays the grouping sort.
      double cpu = call_cpu + ((servable && w.enable_sort_merge)
                                   ? 0.0
                                   : SortCpuLb(w, c.rows));
      double net = 0;
      if (!servable) {
        net = HashShipLb(w, c.rows * c.bytes_per_row);
        if (w.enable_combiner && p.combinable) {
          // A combiner ships only partition-local partials.
          double partials = std::min(c.rows, groups * w.dop);
          net = std::min(net, HashShipLb(w, partials * out.bytes_per_row));
        }
      }
      out.lb = c.lb + cpu + net;
      out.parts = std::move(c.parts);
      out.parts.insert(Partitioning(key.begin(), key.end()));
      return out;
    }
    case OpKind::kMatch:
    case OpKind::kCross:
    case OpKind::kCoGroup: {
      BoundInfo l = BoundNode(af, plan->children[0], w);
      BoundInfo r = BoundNode(af, plan->children[1], w);
      double lbytes = l.rows * l.bytes_per_row;
      double rbytes = r.rows * r.bytes_per_row;
      out.bytes_per_row = l.bytes_per_row + r.bytes_per_row +
                          9.0 * p.introduced.listed().size();

      if (op.kind == OpKind::kCross) {
        out.parts = std::move(l.parts);
        out.parts.insert(r.parts.begin(), r.parts.end());
        // Exact: one Cross strategy exists (broadcast the smaller side).
        out.rows = l.rows * r.rows * op.hints.selectivity;
        out.lb = l.lb + r.lb +
                 w.cpu_per_call_unit * l.rows * r.rows *
                     op.hints.cpu_cost_per_call +
                 w.cpu_per_record * (l.rows + r.rows) +
                 w.net_per_byte * std::min(lbytes, rbytes) * (w.dop - 1);
        return out;
      }

      const std::vector<AttrId>& lkey = p.keys[0];
      const std::vector<AttrId>& rkey = p.keys[1];
      double domain = op.hints.distinct_keys > 0
                          ? static_cast<double>(op.hints.distinct_keys)
                          : std::max({l.rows, r.rows, 1.0});
      out.rows = op.kind == OpKind::kCoGroup
                     ? domain * op.hints.selectivity
                     : l.rows * r.rows / domain * op.hints.selectivity;
      double calls = op.kind == OpKind::kCoGroup ? domain : out.rows;
      double call_cpu =
          w.cpu_per_call_unit * calls * op.hints.cpu_cost_per_call;
      double record_cpu = w.cpu_per_record * (l.rows + r.rows);
      bool l_served =
          w.enable_partition_reuse && AnyPartitioningServes(l.parts, lkey);
      bool r_served =
          w.enable_partition_reuse && AnyPartitioningServes(r.parts, rkey);
      double part_net = (l_served ? 0 : HashShipLb(w, lbytes)) +
                        (r_served ? 0 : HashShipLb(w, rbytes));
      double cpu, net;
      if (op.kind == OpKind::kCoGroup) {
        // Every CoGroup candidate pays call + record CPU; sorts may be free
        // (presorted inputs). No broadcast strategy exists.
        cpu = call_cpu + record_cpu;
        net = part_net;
      } else {
        // Match: the cheapest local strategy is a merge join of two
        // presorted inputs (call + half the record overhead); hash joins pay
        // the full record term plus lookup depth.
        cpu = call_cpu +
              (w.enable_sort_merge ? 0.5 : 1.0) * record_cpu;
        net = part_net;
        if (w.enable_broadcast) {
          net = std::min({net, w.net_per_byte * lbytes * (w.dop - 1),
                          w.net_per_byte * rbytes * (w.dop - 1)});
        }
      }
      out.lb = l.lb + r.lb + cpu + net;
      out.parts = std::move(l.parts);
      out.parts.insert(r.parts.begin(), r.parts.end());
      out.parts.insert(Partitioning(lkey.begin(), lkey.end()));
      out.parts.insert(Partitioning(rkey.begin(), rkey.end()));
      return out;
    }
  }
  __builtin_unreachable();
}

}  // namespace

double LowerBoundCost(const dataflow::AnnotatedFlow& af,
                      const reorder::PlanPtr& plan,
                      const CostWeights& weights) {
  return BoundNode(af, plan, weights).lb;
}

}  // namespace optimizer
}  // namespace blackbox
