// scan_large: a fixed mix of flat paper shapes over R and S of 2x10^4 rows
// each (TrcScaleInstance(20)), under both the ARC and the SQL conventions. Plans are prepared in
// set-up through the plan cache; each op is one cache hit plus one Execute
// on the sealed snapshot. See WORKLOADS.md.
#include "bench.h"
#include "data/generators.h"
#include "eval/plan_cache.h"
#include "text/parser.h"

namespace perfbench {
namespace {

// R(A, B) and S(B, C) of TrcScaleInstance.
constexpr const char* kShapes[] = {
    // Fig. 2: join with a selection.
    "{Q(A) | exists r in R, s in S [Q.A = r.A and r.B = s.B and s.C = 0]}",
    // Fig. 4 (FIO): grouped sum.
    "{Q(A, sm) | exists r in R, gamma(r.A) [Q.A = r.A and Q.sm = sum(r.B)]}",
    // Eq. 17: NOT EXISTS anti-join.
    "{Q(A) | exists r in R [Q.A = r.A and not(exists s in S [s.B = r.B])]}",
    // Grouped count.
    "{Q(B, ct) | exists s in S, gamma(s.B) [Q.B = s.B and Q.ct = count(s.C)]}",
};
constexpr int kShapeCount = 4;
constexpr size_t kCacheCapacity = 128;
constexpr int kPlanCount = 2 * kShapeCount;  // x {Arc, Sql}

class ScanLarge : public Workload {
 public:
  arc::Status Setup(uint64_t seed, bool tiny, Tracer& tracer) override {
    cache_.reset();
    snapshot_ = arc::data::Database();
    arc::data::Database db;
    {
      ScopedSpan span(tracer, SpanName::kGenerate);
      db = arc::data::TrcScaleInstance(tiny ? 1 : 20, seed);
      // One repeated row in each relation, so both always hold duplicates.
      // Seal() builds a full distinct copy of a relation only when it holds
      // one. S always does; R's 2x10^4 random pairs over a 10^4 x 10^4
      // domain hold none with probability about e^-2 (0.14), and then peak
      // RSS would drop for that seed.
      for (const char* name : {"R", "S"}) {
        arc::data::Relation* rel = db.GetMutable(name);
        rel->Add(arc::data::Tuple(rel->rows().front()));
      }
    }
    {
      ScopedSpan span(tracer, SpanName::kSnapshot);
      snapshot_ = db.Snapshot();
    }
    cache_ = std::make_unique<arc::eval::PlanCache>(kCacheCapacity);
    for (int j = 0; j < kPlanCount; ++j) {
      {
        ScopedSpan span(tracer, SpanName::kParse);
        auto parsed = arc::text::ParseProgram(kShapes[j % kShapeCount]);
        if (!parsed.ok()) return parsed.status();
        programs_[j] = std::move(parsed).value();
      }
      {
        ScopedSpan span(tracer, SpanName::kGetOrPrepare);
        auto plan = cache_->GetOrPrepare(programs_[j], snapshot_, Options(j));
        if (!plan.ok()) return plan.status();
      }
      ProbeLookup(*cache_, programs_[j], snapshot_, Options(j), tracer);
    }
    return arc::Status::Ok();
  }

  // The reference: the row-at-a-time slot evaluator, once per run.
  arc::Status PrepareOracle() override {
    for (int j = 0; j < kPlanCount; ++j) {
      arc::eval::EvalOptions opts = Options(j);
      opts.binding_mode = arc::eval::BindingMode::kSlotCompiled;
      auto expected = arc::eval::Eval(snapshot_, programs_[j], opts);
      if (!expected.ok()) return expected.status();
      expected_[j] = std::move(expected).value();
    }
    return arc::Status::Ok();
  }

  arc::Status RunOp(int64_t i, Tracer& tracer, OpCounters& c) override {
    const int j = static_cast<int>(i % kPlanCount);
    auto plan = CachedPlan(*cache_, programs_[j], snapshot_, Options(j), tracer, c);
    if (!plan.ok()) return plan.status();
    return ExecuteInto(**plan, snapshot_, tracer, c, &result_);
  }

  arc::Status CheckOp(int64_t i, uint64_t* digest) override {
    const int j = static_cast<int>(i % kPlanCount);
    Fold(digest, RelationDigest(result_));
    if (!result_.EqualsBag(expected_[j])) {
      return arc::Internal(std::string("result differs from the slot "
                                       "reference for ") +
                           kShapes[j % kShapeCount]);
    }
    return arc::Status::Ok();
  }

  int64_t round_size() const override { return kPlanCount; }
  int64_t warmup_ops() const override { return kPlanCount; }

  std::string InputText(int64_t i) const override {
    const int j = static_cast<int>(i % kPlanCount);
    return std::string(j < kShapeCount ? "arc " : "sql ") +
           kShapes[j % kShapeCount];
  }

  InputFacts facts() const override {
    InputFacts f;
    DescribeRelations(snapshot_, &f);
    f.distinct_inputs = kPlanCount;
    f.plan_cache_capacity = kCacheCapacity;
    return f;
  }

 private:
  static arc::eval::EvalOptions Options(int j) {
    arc::eval::EvalOptions opts;
    opts.conventions =
        j < kShapeCount ? arc::Conventions::Arc() : arc::Conventions::Sql();
    return opts;
  }

  arc::data::Database snapshot_;
  std::unique_ptr<arc::eval::PlanCache> cache_;
  arc::Program programs_[kPlanCount];
  arc::data::Relation expected_[kPlanCount];
  arc::data::Relation result_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanLarge() { return std::make_unique<ScanLarge>(); }

}  // namespace perfbench
