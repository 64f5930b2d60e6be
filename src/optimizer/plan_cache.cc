#include "optimizer/plan_cache.h"

#include <cstdio>

#include "tac/fuse.h"
#include "tac/tac.h"

namespace blackbox {
namespace optimizer {

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::shared_ptr<const PlanCacheValue> PlanCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->value;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const PlanCacheValue> value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PlanCache::RecordBypass() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.bypasses;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = PlanCacheStats{};
}

namespace {

/// Appends a double with full round-trip precision — two weight sets hash
/// equal iff every bit matches.
void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g,", v);
  *out += buf;
}

void AppendInt(std::string* out, int64_t v) {
  *out += std::to_string(v);
  *out += ',';
}

}  // namespace

std::string PlanCacheKey(const dataflow::DataFlow& flow,
                         const std::string& provider_name,
                         const CostWeights& weights,
                         const enumerate::EnumOptions& enum_options,
                         int top_k, double cost_epsilon) {
  std::string key;
  key.reserve(1024);
  key += "v1|provider=";
  key += provider_name;
  key += '|';

  // --- Flow shape: one segment per operator, in id order. Ids are dense and
  // ordered by construction, so identical builder sequences produce
  // identical segments (and `inputs` references line up).
  for (int id = 0; id < flow.num_ops(); ++id) {
    const dataflow::Operator& op = flow.op(id);
    key += "op";
    AppendInt(&key, id);
    AppendInt(&key, static_cast<int>(op.kind));
    key += op.name;
    key += ';';
    for (const std::vector<int>& ks : op.key_fields) {
      key += 'k';
      for (int f : ks) AppendInt(&key, f);
    }
    AppendDouble(&key, op.hints.selectivity);
    AppendDouble(&key, op.hints.cpu_cost_per_call);
    AppendInt(&key, op.hints.distinct_keys);
    AppendInt(&key, static_cast<int>(op.kat_behavior));
    AppendInt(&key, op.source_arity);
    AppendInt(&key, op.source_rows);
    AppendDouble(&key, op.source_avg_bytes);
    for (int f : op.source_unique_fields) AppendInt(&key, f);
    key += 'i';
    for (int in : op.inputs) AppendInt(&key, in);
    if (op.manual_summary) {
      key += "m{";
      key += op.manual_summary->ToString();
      key += '}';
    }
    if (op.udf) {
      // The TAC disassembly is a faithful digest of the black box itself:
      // any change to the UDF's code changes the key.
      key += "u{";
      key += op.udf->ToString();
      key += '}';
    }
    key += '\n';
  }

  // --- Every knob that can change a plan or a cost.
  key += "|w=";
  AppendDouble(&key, weights.net_per_byte);
  AppendDouble(&key, weights.disk_per_byte);
  AppendDouble(&key, weights.cpu_per_call_unit);
  AppendDouble(&key, weights.cpu_per_record);
  AppendInt(&key, weights.dop);
  AppendDouble(&key, weights.mem_budget_bytes);
  AppendInt(&key, weights.enable_broadcast);
  AppendInt(&key, weights.enable_partition_reuse);
  AppendInt(&key, weights.enable_sort_merge);
  AppendInt(&key, weights.enable_combiner);
  AppendInt(&key, weights.enable_chain_fusion);
  AppendInt(&key, weights.enable_spill);
  AppendInt(&key, weights.enable_chain_specialization);
  // Cached plans execute through fused chain programs, so a change in the
  // fused-program compilation scheme must miss even when the logical plan
  // and every weight are unchanged (DESIGN.md §2.6).
  AppendInt(&key, tac::kFusedProgramFormatVersion);
  key += "|e=";
  AppendInt(&key, static_cast<int64_t>(enum_options.max_plans));
  key += "|s=";
  AppendInt(&key, top_k);
  AppendDouble(&key, cost_epsilon);
  return key;
}

}  // namespace optimizer
}  // namespace blackbox
