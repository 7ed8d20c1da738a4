// closure: §2.9 recursion under semi-naive evaluation, where relations and
// their indexes grow while they are read. Each op executes three prepared
// transitive closures: linear over a random DAG (few large delta rounds),
// linear over a chain (many small rounds), and non-linear (A ⋈ A) over a
// second random DAG, whose derived relation is probed and extended in the
// same round. A round is kGraphs ops, each over its own graphs of
// different shapes. See WORKLOADS.md.
#include <algorithm>
#include <numeric>
#include <string>

#include "bench.h"
#include "data/generators.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "text/parser.h"

namespace perfbench {
namespace {

// `$` stands for the edge relation's name.
struct Closure {
  const char* relation;
  const char* arc;
  const char* datalog;
};

constexpr Closure kClosures[] = {
    {"P",
     "{A(s, t) | exists p in $ [A.s = p.s and A.t = p.t] or "
     "exists p in $, a2 in A [A.s = p.s and p.t = a2.s and a2.t = A.t]}",
     "A(x, y) :- $(x, y).\nA(x, y) :- $(x, z), A(z, y).\n"},
    {"C",
     "{A(s, t) | exists c in $ [A.s = c.s and A.t = c.t] or "
     "exists c in $, a2 in A [A.s = c.s and c.t = a2.s and a2.t = A.t]}",
     "A(x, y) :- $(x, y).\nA(x, y) :- $(x, z), A(z, y).\n"},
    {"G",
     "{A(s, t) | exists g in $ [A.s = g.s and A.t = g.t] or "
     "exists a1 in A, a2 in A [A.s = a1.s and a1.t = a2.s and a2.t = A.t]}",
     "A(x, y) :- $(x, y).\nA(x, y) :- A(x, z), A(z, y).\n"},
};
constexpr int kClosureCount = 3;
// Graphs of each kind, one per op of a round. With one graph of each kind,
// every op did the same work, so op latencies took one value per state of
// the shared machine, and op_ms_p50 jumped between a fast and a slow mode
// from run to run. Graphs of different shapes spread the latencies, so the
// median moves with the machine by degrees instead.
constexpr int kGraphs = 16;

// The edge relation of closure `j` over graph `g`, and closure text with
// `$` replaced by it.
std::string RelationName(int j, int g) {
  return kClosures[j].relation + std::to_string(g);
}
std::string Instantiate(const char* text, int j, int g) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '$') {
      out += RelationName(j, g);
    } else {
      out += *p;
    }
  }
  return out;
}

class ClosureWorkload : public Workload {
 public:
  arc::Status Setup(uint64_t seed, bool tiny, Tracer& tracer) override {
    snapshot_ = arc::data::Database();
    arc::data::Database db;
    {
      ScopedSpan span(tracer, SpanName::kGenerate);
      Generate(seed, tiny, &db);
    }
    {
      ScopedSpan span(tracer, SpanName::kSnapshot);
      snapshot_ = db.Snapshot();
    }
    for (int g = 0; g < kGraphs; ++g) {
      for (int j = 0; j < kClosureCount; ++j) {
        Query& q = queries_[g][j];
        {
          ScopedSpan span(tracer, SpanName::kParse);
          auto parsed =
              arc::text::ParseProgram(Instantiate(kClosures[j].arc, j, g));
          if (!parsed.ok()) return parsed.status();
          q.program = std::move(parsed).value();
        }
        ScopedSpan span(tracer, SpanName::kPrepare);
        auto plan = arc::eval::Prepare(q.program, snapshot_);
        if (!plan.ok()) return plan.status();
        q.plan = std::move(plan).value();
      }
    }
    return arc::Status::Ok();
  }

  // The references, once per run: the ARC evaluator's naive fixpoint and
  // the Datalog engine, which must agree with each other first.
  arc::Status PrepareOracle() override {
    for (int g = 0; g < kGraphs; ++g) {
      for (int j = 0; j < kClosureCount; ++j) {
        Query& q = queries_[g][j];
        arc::eval::EvalOptions naive;
        naive.recursion_strategy = arc::eval::RecursionStrategy::kNaive;
        auto expected = arc::eval::Eval(snapshot_, q.program, naive);
        if (!expected.ok()) return expected.status();
        auto dl = arc::datalog::ParseDatalog(
            Instantiate(kClosures[j].datalog, j, g));
        if (!dl.ok()) return dl.status();
        arc::datalog::DlEvaluator engine(snapshot_);
        auto derived = engine.Eval(*dl, "A");
        if (!derived.ok()) return derived.status();
        if (!expected->EqualsSet(*derived)) {
          return arc::Internal("naive ARC and Datalog closures differ over " +
                               RelationName(j, g));
        }
        q.expected = std::move(expected).value();
      }
    }
    return arc::Status::Ok();
  }

  // One op runs all three closures over one graph. Single closures take
  // 2-4 ms, and sub-second bursts of load on a shared machine split their
  // latencies into a fast and a slow mode; a longer op averages over the
  // bursts.
  arc::Status RunOp(int64_t i, Tracer& tracer, OpCounters& c) override {
    for (int j = 0; j < kClosureCount; ++j) {
      ARC_RETURN_IF_ERROR(ExecuteInto(*queries_[i % kGraphs][j].plan,
                                      snapshot_, tracer, c, &results_[j]));
    }
    return arc::Status::Ok();
  }

  arc::Status CheckOp(int64_t i, uint64_t* digest) override {
    const int g = static_cast<int>(i % kGraphs);
    for (int j = 0; j < kClosureCount; ++j) {
      Fold(digest, RelationDigest(results_[j]));
      if (!results_[j].EqualsBag(queries_[g][j].expected)) {
        return arc::Internal("closure differs from the naive fixpoint over " +
                             RelationName(j, g));
      }
    }
    return arc::Status::Ok();
  }

  int64_t round_size() const override { return kGraphs; }
  int64_t warmup_ops() const override { return kGraphs; }

  std::string InputText(int64_t i) const override {
    const int g = static_cast<int>(i % kGraphs);
    std::string text;
    for (int j = 0; j < kClosureCount; ++j) {
      text += Instantiate(kClosures[j].arc, j, g) + "\n";
    }
    return text;
  }

  InputFacts facts() const override {
    InputFacts f;
    DescribeRelations(snapshot_, &f);
    f.distinct_inputs = kGraphs * kClosureCount;
    return f;
  }

 private:
  // The graph shapes are fixed; the seed relabels their nodes. The work a
  // closure does depends on its shape alone, so every seed measures the
  // same work over different values. Graph g has random DAGs of its own
  // shapes and a chain of 48 + 2g nodes.
  static void Generate(uint64_t seed, bool tiny, arc::data::Database* db) {
    const int64_t scale = tiny ? 8 : 1;
    arc::data::Rng rng(seed);
    for (int g = 0; g < kGraphs; ++g) {
      const uint64_t shape = kShapeSeed + 2 * static_cast<uint64_t>(g);
      db->Put(RelationName(0, g),
              Relabel(*arc::data::ParentRandom(240 / scale, 360 / scale, shape)
                           .Get("P"),
                      240 / scale, rng));
      const int64_t chain = (48 + 2 * g) / scale;
      db->Put(RelationName(1, g),
              Relabel(*arc::data::ParentChain(chain).Get("P"), chain, rng));
      db->Put(RelationName(2, g),
              Relabel(*arc::data::ParentRandom(120 / scale, 180 / scale,
                                               shape + 1)
                           .Get("P"),
                      120 / scale, rng));
    }
  }

  // Renames nodes 0..n-1 of the edge relation `p` by a random permutation.
  static arc::data::Relation Relabel(const arc::data::Relation& p, int64_t n,
                                     arc::data::Rng& rng) {
    std::vector<int64_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    for (int64_t k = n - 1; k > 0; --k) std::swap(ids[k], ids[rng.Below(k + 1)]);
    arc::data::Relation out(arc::data::Schema{"s", "t"});
    for (const arc::data::Tuple& t : p.rows()) {
      out.Add({arc::data::Value::Int(ids[t.at(0).as_int()]),
               arc::data::Value::Int(ids[t.at(1).as_int()])});
    }
    return out;
  }

  static constexpr uint64_t kShapeSeed = 42;

  struct Query {
    arc::Program program;
    std::shared_ptr<const arc::eval::PreparedQuery> plan;
    arc::data::Relation expected;
  };

  arc::data::Database snapshot_;
  Query queries_[kGraphs][kClosureCount];
  arc::data::Relation results_[kClosureCount];
};

}  // namespace

std::unique_ptr<Workload> MakeClosure() {
  return std::make_unique<ClosureWorkload>();
}

}  // namespace perfbench
