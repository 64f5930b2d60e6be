#include "enumerate/enumerate.h"

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_set>

namespace blackbox {
namespace enumerate {

using dataflow::OpKind;
using reorder::CanonicalString;
using reorder::PlanNode;
using reorder::PlanPtr;
using reorder::ReorderOracle;

namespace {

bool IsUnaryOp(const dataflow::DataFlow& flow, int id) {
  OpKind k = flow.op(id).kind;
  return k == OpKind::kMap || k == OpKind::kReduce;
}

bool IsBinaryOp(const dataflow::DataFlow& flow, int id) {
  OpKind k = flow.op(id).kind;
  return k == OpKind::kMatch || k == OpKind::kCross || k == OpKind::kCoGroup;
}

}  // namespace

/// Generates every subtree obtainable from `node` by applying exactly one
/// valid rewrite somewhere inside it.
void PlanNeighbors(const PlanPtr& node, const dataflow::DataFlow& flow,
                   const ReorderOracle& oracle, std::vector<PlanPtr>* out,
                   size_t* rejected) {
  // Rewrites inside children (path copying).
  for (size_t ci = 0; ci < node->children.size(); ++ci) {
    std::vector<PlanPtr> child_alts;
    PlanNeighbors(node->children[ci], flow, oracle, &child_alts, rejected);
    for (PlanPtr& alt : child_alts) {
      std::vector<PlanPtr> children = node->children;
      children[ci] = std::move(alt);
      out->push_back(PlanNode::Make(node->op_id, std::move(children)));
    }
  }

  const int r = node->op_id;

  // Rewrites at this node's root edge(s).
  if (IsUnaryOp(flow, r)) {
    const PlanPtr& s_node = node->children[0];
    const int s = s_node->op_id;
    if (IsUnaryOp(flow, s)) {
      if (oracle.CanSwapUnaryUnary(r, s)) {
        // r(s(X)) -> s(r(X))
        PlanPtr inner = PlanNode::Make(r, {s_node->children[0]});
        out->push_back(PlanNode::Make(s, {std::move(inner)}));
      } else {
        ++*rejected;
      }
    } else if (IsBinaryOp(flow, s)) {
      for (int side = 0; side < 2; ++side) {
        if (oracle.CanSwapUnaryBinary(r, s, side, s_node->children[side],
                                      s_node->children[1 - side])) {
          // r(s(X0, X1)) -> s(..., r(X_side), ...)
          std::vector<PlanPtr> children = s_node->children;
          children[side] = PlanNode::Make(r, {s_node->children[side]});
          out->push_back(PlanNode::Make(s, std::move(children)));
        } else {
          ++*rejected;
        }
      }
    }
  } else if (IsBinaryOp(flow, r)) {
    for (int k = 0; k < 2; ++k) {
      const PlanPtr& s_node = node->children[k];
      const int s = s_node->op_id;
      const PlanPtr& outer = node->children[1 - k];
      if (IsUnaryOp(flow, s)) {
        // Pull the unary child above the binary parent:
        // r(..., s(X), ...) -> s(r(..., X, ...))
        if (oracle.CanSwapUnaryBinary(s, r, k, s_node->children[0], outer)) {
          std::vector<PlanPtr> children = node->children;
          children[k] = s_node->children[0];
          PlanPtr inner = PlanNode::Make(r, std::move(children));
          out->push_back(PlanNode::Make(s, {std::move(inner)}));
        } else {
          ++*rejected;
        }
      } else if (IsBinaryOp(flow, s)) {
        const PlanPtr& a = s_node->children[0];
        const PlanPtr& b = s_node->children[1];
        if (k == 0) {
          // r(s(A,B), C): rot1 -> s(A, r(B,C)); rot2 -> s(r(A,C), B)
          if (oracle.CanRotateBinaryBinary(r, s, a, outer)) {
            PlanPtr inner = PlanNode::Make(r, {b, outer});
            out->push_back(PlanNode::Make(s, {a, std::move(inner)}));
          } else {
            ++*rejected;
          }
          if (oracle.CanRotateBinaryBinary(r, s, b, outer)) {
            PlanPtr inner = PlanNode::Make(r, {a, outer});
            out->push_back(PlanNode::Make(s, {std::move(inner), b}));
          } else {
            ++*rejected;
          }
        } else {
          // r(C, s(A,B)): rot3 -> s(r(C,A), B); rot4 -> s(A, r(C,B))
          if (oracle.CanRotateBinaryBinary(r, s, b, outer)) {
            PlanPtr inner = PlanNode::Make(r, {outer, a});
            out->push_back(PlanNode::Make(s, {std::move(inner), b}));
          } else {
            ++*rejected;
          }
          if (oracle.CanRotateBinaryBinary(r, s, a, outer)) {
            PlanPtr inner = PlanNode::Make(r, {outer, b});
            out->push_back(PlanNode::Make(s, {a, std::move(inner)}));
          } else {
            ++*rejected;
          }
        }
      }
    }
  }
}

StatusOr<EnumResult> EnumerateAlternatives(const dataflow::AnnotatedFlow& af,
                                           const EnumOptions& options) {
  const dataflow::DataFlow& flow = *af.flow;
  ReorderOracle oracle(&af);
  EnumResult result;

  PlanPtr original = reorder::PlanFromFlow(flow);
  if (options.max_plans == 0) {
    result.truncated = true;
    return result;
  }
  std::unordered_set<std::string> seen;
  std::deque<PlanPtr> work;
  seen.insert(CanonicalString(original));
  work.push_back(original);
  result.plans.push_back(original);

  while (!work.empty() && !result.truncated) {
    PlanPtr plan = std::move(work.front());
    work.pop_front();
    std::vector<PlanPtr> neighbors;
    PlanNeighbors(plan, flow, oracle, &neighbors, &result.rewrites_rejected);
    for (PlanPtr& n : neighbors) {
      ++result.rewrites_applied;
      std::string key = CanonicalString(n);
      if (seen.insert(std::move(key)).second) {
        if (result.plans.size() >= options.max_plans) {
          result.truncated = true;
          break;
        }
        result.plans.push_back(n);
        work.push_back(n);
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Algorithm 1 (paper, Section 6) for unary chains.
// ---------------------------------------------------------------------------

namespace {

/// Chains are represented bottom-up: element 0 is the source, the last
/// element is the root (the operator just below the sink).
using Chain = std::vector<int>;

std::string ChainKey(const Chain& c) {
  // The memo key is the *set* of operators (getMTabKey): any sub-flow
  // containing the same operators has the same alternatives.
  std::set<int> s(c.begin(), c.end());
  std::string key;
  for (int id : s) {
    key += std::to_string(id);
    key += ",";
  }
  return key;
}

class Algorithm1 {
 public:
  Algorithm1(const dataflow::AnnotatedFlow& af, const ReorderOracle& oracle)
      : flow_(*af.flow), oracle_(oracle) {}

  /// ENUM-ALTERNATIVES(D) — returns all reordered chains for flow D.
  std::vector<Chain> Enum(const Chain& d) {
    auto it = memo_.find(ChainKey(d));
    if (it != memo_.end()) return it->second;  // check memoTable (line 4)

    std::vector<Chain> alts;
    int r = d.back();  // getRoot(D) (line 7)
    if (flow_.op(r).kind == OpKind::kSource) {
      alts = {d};  // (lines 8-9)
    } else {
      std::set<int> cand;  // (line 16)
      Chain d_minus_r(d.begin(), d.end() - 1);  // rmRoot(D) (line 17)
      std::vector<Chain> alts_minus_r = Enum(d_minus_r);  // (line 18)
      for (const Chain& a_minus_r : alts_minus_r) {       // (line 19)
        int s = a_minus_r.back();  // candidate root s (line 20)
        Chain with_r = a_minus_r;
        with_r.push_back(r);
        alts.push_back(std::move(with_r));  // addRoot (line 21)
        if (flow_.op(s).kind == OpKind::kSource) continue;
        if (cand.count(s) == 0 && Reorderable(r, s)) {  // (line 22)
          cand.insert(s);                               // (line 23)
          Chain d_minus_s = a_minus_r;                  // setRoot (line 24)
          d_minus_s.back() = r;
          // Keep the operators below unchanged; replace s by r as root.
          // (a_minus_r without its root, plus r.)
          d_minus_s = Chain(a_minus_r.begin(), a_minus_r.end() - 1);
          d_minus_s.push_back(r);
          std::vector<Chain> alts_minus_s = Enum(d_minus_s);  // (line 25)
          for (const Chain& a_minus_s : alts_minus_s) {       // (line 26)
            Chain with_s = a_minus_s;
            with_s.push_back(s);
            alts.push_back(std::move(with_s));  // addRoot(A_-s, s) (line 27)
          }
        }
      }
    }
    memo_[ChainKey(d)] = alts;  // (line 28)
    return alts;
  }

 private:
  bool Reorderable(int r, int s) const {
    return oracle_.CanSwapUnaryUnary(r, s);
  }

  const dataflow::DataFlow& flow_;
  const ReorderOracle& oracle_;
  std::map<std::string, std::vector<Chain>> memo_;
};

}  // namespace

StatusOr<EnumResult> EnumerateChainAlgorithm1(const dataflow::AnnotatedFlow& af,
                                              const EnumOptions& options) {
  const dataflow::DataFlow& flow = *af.flow;
  // Extract the chain below the sink; reject non-chains.
  Chain chain;
  int at = flow.op(flow.sink_id()).inputs[0];
  while (true) {
    const dataflow::Operator& op = flow.op(at);
    chain.push_back(at);
    if (op.kind == OpKind::kSource) break;
    if (op.inputs.size() != 1) {
      return Status::NotSupported(
          "Algorithm 1 as presented handles single-input operators only");
    }
    at = op.inputs[0];
  }
  std::reverse(chain.begin(), chain.end());

  ReorderOracle oracle(&af);
  Algorithm1 algo(af, oracle);
  std::vector<Chain> alts = algo.Enum(chain);

  // Deduplicate (the recursion can re-derive the same order) and convert to
  // plan trees rooted at the sink.
  std::set<Chain> unique_alts(alts.begin(), alts.end());
  EnumResult result;
  for (const Chain& c : unique_alts) {
    if (result.plans.size() >= options.max_plans) {
      result.truncated = true;
      break;
    }
    PlanPtr node = PlanNode::Make(c[0]);
    for (size_t i = 1; i < c.size(); ++i) {
      node = PlanNode::Make(c[i], {std::move(node)});
    }
    node = PlanNode::Make(flow.sink_id(), {std::move(node)});
    result.plans.push_back(std::move(node));
  }
  return result;
}

}  // namespace enumerate
}  // namespace blackbox
