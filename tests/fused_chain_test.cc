// Differential tests for fused-chain TAC specialization (DESIGN.md §2.6):
// the fused program produced by tac::FuseMapChain must be byte-identical to
// interpreting the chain stage by stage, for every control-flow shape the
// fuser claims to handle — 0-emit paths, multi-emit with in-place mutation
// between emits (field aliasing), permuted field translations, and the
// terminal sink projection — over in-flight rows and over source rows read
// through a scan's position map.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "interp/interp.h"
#include "record/column_view.h"
#include "tac/fuse.h"
#include "tac/tac.h"

namespace blackbox {
namespace {

using interp::FieldTranslation;
using interp::Interpreter;
using tac::FunctionBuilder;
using tac::Label;
using tac::Reg;
using tac::UdfKind;

/// One chain stage for the differential: the program plus the maps its
/// FieldTranslation applies (empty = identity, the interpreter convention).
struct StageSpec {
  tac::Function fn;
  std::vector<int> input_map;   // local -> global; empty = identity
  std::vector<int> output_map;  // local -> global; empty = identity
};

FieldTranslation StageTranslation(const StageSpec& s, int width) {
  FieldTranslation t;
  t.global_width = width;
  if (!s.input_map.empty()) t.input_maps = {s.input_map};
  t.output_map = s.output_map;
  return t;
}

/// Reference semantics: one RunBatch per stage, records materialized between
/// stages, then the gather-time sink projection — exactly the staged
/// ChainRunner path the fused program replaces.
std::vector<Record> RunStaged(const std::vector<StageSpec>& stages,
                              const std::vector<Record>& input, int width,
                              const std::vector<int>* sink) {
  std::vector<Record> cur = input;
  for (const StageSpec& s : stages) {
    Interpreter interp(&s.fn);
    std::vector<Record> next;
    Status st = interp.RunBatch(cur, StageTranslation(s, width), &next);
    EXPECT_TRUE(st.ok()) << st.ToString();
    cur = std::move(next);
  }
  if (sink == nullptr) return cur;
  std::vector<Record> projected;
  for (const Record& wide : cur) {
    Record compact;
    for (int pos : *sink) {
      compact.Append(pos >= 0 && pos < static_cast<int>(wide.num_fields())
                         ? wide.field(pos)
                         : Value());
    }
    projected.push_back(std::move(compact));
  }
  return projected;
}

/// Fuses the chain and runs the fused program over the rows `cols` views.
/// Returns false (leaving *out untouched) when the fuser bails — callers
/// decide whether a bail is acceptable for the shape under test.
bool RunFusedOver(const std::vector<StageSpec>& stages, const ColumnView& cols,
                  int width, const std::vector<int>* sink,
                  std::vector<Record>* out) {
  std::vector<tac::FuseStage> fs;
  for (const StageSpec& s : stages) {
    tac::FuseStage f;
    f.fn = &s.fn;
    f.input_map = s.input_map.empty() ? nullptr : &s.input_map;
    f.output_map = s.output_map.empty() ? nullptr : &s.output_map;
    fs.push_back(f);
  }
  std::optional<tac::FusedChainProgram> fused =
      tac::FuseMapChain(fs, width, sink);
  if (!fused) return false;
  FieldTranslation t;
  t.global_width = sink ? static_cast<int>(sink->size()) : width;
  Interpreter interp(&fused->fn);
  Interpreter::ChainState state;
  Status st =
      interp.RunFusedChain(cols, t, fused->body_start, out, nullptr, &state);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return true;
}

/// RunFusedOver a view of in-flight rows.
bool RunFused(const std::vector<StageSpec>& stages,
              const std::vector<Record>& input, int width,
              const std::vector<int>* sink, std::vector<Record>* out) {
  ColumnView cols(input.data(), input.size(), static_cast<size_t>(width));
  return RunFusedOver(stages, cols, width, sink, out);
}

void ExpectSameRecords(const std::vector<Record>& a,
                       const std::vector<Record>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString()) << what << " record " << i;
  }
}

tac::Function MustBuild(FunctionBuilder&& b) {
  StatusOr<tac::Function> fn = b.Build();
  EXPECT_TRUE(fn.ok()) << fn.status().ToString();
  return std::move(fn).value();
}

// --- Hand-written shapes -----------------------------------------------------

// A filter whose taken branch emits nothing: the fused program's non-emitting
// path must short-circuit and produce zero records for refuted rows only.
TEST(FusedChain, ZeroEmitPath) {
  FunctionBuilder b("filter", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg a = b.GetField(ir, 0);
  Label drop = b.NewLabel();
  b.BranchIfTrue(b.CmpLt(a, b.ConstInt(10)), drop);
  b.Emit(ir);
  b.Bind(drop);
  b.Return();
  std::vector<StageSpec> stages;
  stages.push_back({MustBuild(std::move(b)), {}, {}});

  std::vector<Record> input;
  for (int i = 0; i < 20; ++i) {
    input.push_back(Record({Value(int64_t{i}), Value(std::string("x"))}));
  }
  std::vector<Record> staged = RunStaged(stages, input, 2, nullptr);
  std::vector<Record> fused;
  ASSERT_TRUE(RunFused(stages, input, 2, nullptr, &fused));
  ASSERT_EQ(staged.size(), 10u);
  ExpectSameRecords(staged, fused, "zero-emit");
}

// Emit, mutate the same record register, emit again: the fused program must
// snapshot the symbolic overrides at each emit, not share them.
TEST(FusedChain, MultiEmitWithAliasing) {
  FunctionBuilder b("dup", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg out = b.Copy(ir);
  b.SetField(out, 1, b.ConstInt(111));
  b.Emit(out);
  b.SetField(out, 0, b.ConstStr("second"));
  b.Emit(out);
  b.Return();
  std::vector<StageSpec> stages;
  stages.push_back({MustBuild(std::move(b)), {}, {}});

  std::vector<Record> input = {
      Record({Value(int64_t{1}), Value(int64_t{2})}),
      Record({Value(std::string("a")), Value(3.5)}),
  };
  std::vector<Record> staged = RunStaged(stages, input, 2, nullptr);
  std::vector<Record> fused;
  ASSERT_TRUE(RunFused(stages, input, 2, nullptr, &fused));
  ASSERT_EQ(staged.size(), 4u);
  ExpectSameRecords(staged, fused, "multi-emit aliasing");
}

// Two stages with permuted translations and a sink projection: the full
// pipeline the engine fuses, including dead stores to fields the sink never
// reads (position 2's write must not change the projected output).
TEST(FusedChain, TwoStagePermutedWithSink) {
  FunctionBuilder b1("s1", 1, UdfKind::kRat);
  {
    Reg ir = b1.InputRecord(0);
    Reg v = b1.GetField(ir, 0);
    Reg out = b1.Copy(ir);
    b1.SetField(out, 1, b1.Add(v, b1.ConstInt(5)));
    b1.SetField(out, 2, b1.ConstStr("dead"));  // no downstream read
    b1.Emit(out);
    b1.Return();
  }
  FunctionBuilder b2("s2", 1, UdfKind::kRat);
  {
    Reg ir = b2.InputRecord(0);
    Reg v = b2.GetField(ir, 1);
    Label drop = b2.NewLabel();
    b2.BranchIfTrue(b2.CmpGe(v, b2.ConstInt(100)), drop);
    Reg out = b2.Copy(ir);
    b2.SetField(out, 0, b2.Mul(v, b2.ConstInt(2)));
    b2.Emit(out);
    b2.Bind(drop);
    b2.Return();
  }
  std::vector<StageSpec> stages;
  stages.push_back({MustBuild(std::move(b1)), {0, 1, 2}, {0, 1, 2}});
  stages.push_back({MustBuild(std::move(b2)), {3, 1, 0}, {3, 1, 0}});
  std::vector<int> sink = {3, 0};

  std::vector<Record> input;
  for (int i = 0; i < 60; ++i) {
    Record r;
    r.SetField(3, Value::Null());  // width-4 global rows
    r.SetField(0, Value(int64_t{i * 7 % 130}));
    input.push_back(std::move(r));
  }
  std::vector<Record> staged = RunStaged(stages, input, 4, &sink);
  std::vector<Record> fused;
  ASSERT_TRUE(RunFused(stages, input, 4, &sink, &fused));
  ExpectSameRecords(staged, fused, "two-stage sink");
}

// --- Randomized differential -------------------------------------------------

/// Generates one random RAT Map stage over `width`-wide global rows. Sticks
/// to constructs the fuser handles (forward branches, static field indices)
/// so most seeds exercise the fused path rather than the bail.
StageSpec RandomStage(std::mt19937* rng, int width) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> field(0, width - 1);
  std::uniform_int_distribution<int> lit(-20, 20);
  FunctionBuilder b("rand", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);

  // A few computed values off random fields and constants.
  std::vector<Reg> vals;
  int reads = 1 + static_cast<int>((*rng)() % 3);
  for (int i = 0; i < reads; ++i) vals.push_back(b.GetField(ir, field(*rng)));
  int ops = static_cast<int>((*rng)() % 4);
  for (int i = 0; i < ops; ++i) {
    Reg a = vals[(*rng)() % vals.size()];
    Reg c = coin(*rng) ? b.ConstInt(lit(*rng))
                       : b.ConstDouble(lit(*rng) / 4.0);
    switch ((*rng)() % 5) {
      case 0: vals.push_back(b.Add(a, c)); break;
      case 1: vals.push_back(b.Mul(a, c)); break;
      case 2: vals.push_back(b.Div(a, c)); break;
      case 3: vals.push_back(b.StrHashMod(a, 1 + (*rng)() % 7)); break;
      default: vals.push_back(b.CmpLt(a, c)); break;
    }
  }

  // Optional filter: branch over the emitting tail (a 0-emit path).
  Label drop = b.NewLabel();
  bool filtered = coin(*rng) == 1;
  if (filtered) {
    Reg cond = b.CmpLt(vals[(*rng)() % vals.size()], b.ConstInt(lit(*rng)));
    b.BranchIfTrue(cond, drop);
  }

  // Output: copy-and-mutate or a fresh projection; sometimes emit twice with
  // a mutation in between (aliasing).
  Reg out = coin(*rng) ? b.Copy(ir) : b.NewRecord();
  int writes = 1 + static_cast<int>((*rng)() % 3);
  for (int i = 0; i < writes; ++i) {
    b.SetField(out, field(*rng), vals[(*rng)() % vals.size()]);
  }
  b.Emit(out);
  if ((*rng)() % 4 == 0) {
    b.SetField(out, field(*rng), vals[(*rng)() % vals.size()]);
    b.Emit(out);
  }
  if (filtered) b.Bind(drop);
  b.Return();

  StageSpec s;
  s.fn = MustBuild(std::move(b));
  // Identity or a random permutation of the global positions, applied to
  // both maps (the engine's MakeTranslation always provides aligned maps).
  if (coin(*rng)) {
    std::vector<int> perm(static_cast<size_t>(width));
    for (int i = 0; i < width; ++i) perm[static_cast<size_t>(i)] = i;
    std::shuffle(perm.begin(), perm.end(), *rng);
    s.input_map = perm;
    s.output_map = perm;
  }
  return s;
}

Record RandomRecord(std::mt19937* rng, int width) {
  Record r;
  r.SetField(width - 1, Value::Null());
  for (int f = 0; f < width; ++f) {
    switch ((*rng)() % 4) {
      case 0: r.SetField(f, Value(static_cast<int64_t>((*rng)() % 200) - 100));
        break;
      case 1: r.SetField(f, Value(((*rng)() % 400) / 8.0 - 25.0)); break;
      case 2: r.SetField(f, Value(std::string(1 + (*rng)() % 6, 'a' + (*rng)() % 26)));
        break;
      default: break;  // leave the presized null
    }
  }
  return r;
}

/// One scan's input: narrow source rows, the source's schema (source field
/// -> global position) and the position map a scan reads them through
/// (global position -> source field, -1 where no field maps).
struct SourceRows {
  std::vector<Record> rows;
  std::vector<int> schema;
  std::vector<int> positions;
};

/// Source rows for a `width`-wide global record: some positions unmapped,
/// rows shorter than the schema or one field longer, nulls, and strings of
/// 15 and 16 bytes (either side of Value's inline limit).
SourceRows RandomSourceRows(std::mt19937* rng, int width, size_t num_rows) {
  SourceRows s;
  std::vector<int> perm(static_cast<size_t>(width));
  for (int i = 0; i < width; ++i) perm[static_cast<size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), *rng);
  const size_t arity = 1 + (*rng)() % static_cast<size_t>(width);
  s.schema.assign(perm.begin(), perm.begin() + static_cast<long>(arity));
  s.positions.assign(static_cast<size_t>(width), -1);
  for (size_t f = 0; f < arity; ++f) {
    s.positions[static_cast<size_t>(s.schema[f])] = static_cast<int>(f);
  }
  for (size_t i = 0; i < num_rows; ++i) {
    std::vector<Value> fields((*rng)() % (arity + 2));
    for (Value& v : fields) {
      switch ((*rng)() % 5) {
        case 0: v = Value(static_cast<int64_t>((*rng)() % 200) - 100); break;
        case 1: v = Value(((*rng)() % 400) / 8.0 - 25.0); break;
        case 2: v = Value(std::string(15, 'a' + (*rng)() % 26)); break;
        case 3: v = Value(std::string(16, 'a' + (*rng)() % 26)); break;
        default: break;  // null
      }
    }
    s.rows.push_back(Record(std::move(fields)));
  }
  return s;
}

/// Reference widening of one source row to the global record, written
/// independently of ColumnView::Row: `width` nulls, then each source field
/// at its schema position.
Record WidenLikeScan(const Record& rec, const std::vector<int>& schema,
                     int width) {
  Record wide;
  wide.SetField(static_cast<size_t>(width) - 1, Value::Null());
  for (size_t f = 0; f < rec.num_fields() && f < schema.size(); ++f) {
    wide.SetField(static_cast<size_t>(schema[f]), rec.field(f));
  }
  return wide;
}

void ExpectSameRange(const ValueRange& a, const ValueRange& b,
                     const std::string& what) {
  EXPECT_EQ(a.may_null, b.may_null) << what;
  EXPECT_EQ(a.may_int, b.may_int) << what;
  EXPECT_EQ(a.int_lo, b.int_lo) << what;
  EXPECT_EQ(a.int_hi, b.int_hi) << what;
  EXPECT_EQ(a.may_double, b.may_double) << what;
  EXPECT_EQ(a.dbl_lo, b.dbl_lo) << what;
  EXPECT_EQ(a.dbl_hi, b.dbl_hi) << what;
  EXPECT_EQ(a.may_str, b.may_str) << what;
  EXPECT_EQ(a.str_lo, b.str_lo) << what;
  EXPECT_EQ(a.str_hi, b.str_hi) << what;
  EXPECT_EQ(a.str_hi_open, b.str_hi_open) << what;
}

// >= 100 seeds: random 1-3 stage chains, random rows, with and without a
// sink projection. Every seed the fuser accepts must match the staged
// interpretation byte for byte; the fuser must accept a healthy majority of
// seeds (otherwise the generator quietly stopped covering the fused path).
// Each accepted seed also runs a source-row arm: the chain reads narrow
// source rows through a position map, and must match the staged run over
// the same rows widened by WidenLikeScan.
TEST(FusedChain, RandomizedDifferential) {
  int fused_seeds = 0;
  for (unsigned seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(seed);
    const int width = 3 + static_cast<int>(rng() % 4);
    const int num_stages = 1 + static_cast<int>(rng() % 3);
    std::vector<StageSpec> stages;
    for (int i = 0; i < num_stages; ++i) {
      stages.push_back(RandomStage(&rng, width));
    }
    std::vector<int> sink;
    const bool with_sink = rng() % 2 == 0;
    if (with_sink) {
      int s = 1 + static_cast<int>(rng() % width);
      for (int j = 0; j < s; ++j) {
        sink.push_back(static_cast<int>(rng() % width));
      }
    }
    const std::vector<int>* sink_ptr = with_sink ? &sink : nullptr;
    std::vector<Record> input;
    size_t rows = 5 + rng() % 40;
    for (size_t i = 0; i < rows; ++i) {
      input.push_back(RandomRecord(&rng, width));
    }
    std::vector<Record> fused;
    if (!RunFused(stages, input, width, sink_ptr, &fused)) {
      continue;  // fuser bailed: staged path would run, nothing to compare
    }
    ++fused_seeds;
    const std::string what = "seed " + std::to_string(seed);
    ExpectSameRecords(RunStaged(stages, input, width, sink_ptr), fused, what);

    const SourceRows src = RandomSourceRows(&rng, width, rows);
    std::vector<Record> widened;
    std::vector<const Record*> row_ptrs;
    for (const Record& r : src.rows) {
      widened.push_back(WidenLikeScan(r, src.schema, width));
      row_ptrs.push_back(&r);
    }
    ColumnView mapped(row_ptrs.data(), row_ptrs.size(), src.positions);
    ColumnView wide(widened.data(), widened.size(),
                    static_cast<size_t>(width));
    for (size_t col = 0; col <= static_cast<size_t>(width); ++col) {
      ExpectSameRange(mapped.Range(col), wide.Range(col),
                      what + " column " + std::to_string(col));
    }
    for (size_t i = 0; i < widened.size(); ++i) {
      EXPECT_EQ(mapped.Row(i), widened[i]) << what << " row " << i;
      EXPECT_EQ(mapped.RowSerializedSize(i), widened[i].SerializedSize())
          << what << " row " << i;
    }
    std::vector<Record> from_source, from_wide;
    ASSERT_TRUE(RunFusedOver(stages, mapped, width, sink_ptr, &from_source));
    ASSERT_TRUE(RunFusedOver(stages, wide, width, sink_ptr, &from_wide));
    ExpectSameRecords(RunStaged(stages, widened, width, sink_ptr), from_source,
                      what + " source rows");
    EXPECT_EQ(mapped.materialized_columns(), wide.materialized_columns())
        << what;
  }
  EXPECT_GE(fused_seeds, 100) << "generator no longer covers the fused path";
}

}  // namespace
}  // namespace blackbox
