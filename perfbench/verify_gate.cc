// verify_gate: each op is one bounded equivalence check (ArcVerify). The
// pairs are a fixed random-query corpus through DecorrelateAggregation at a
// cheap bound, plus the paper's trap pairs for all three shipped rewrites
// and three known refutations, with NULL in the pool. The seed sets the
// order of the pairs. See WORKLOADS.md.
#include <algorithm>

#include "arc/random_query.h"
#include "bench.h"
#include "data/generators.h"
#include "rewrite/rewriter.h"
#include "text/parser.h"
#include "text/printer.h"
#include "verify/bounded_eq.h"

namespace perfbench {
namespace {

struct Pair {
  std::string label;
  arc::Program lhs;
  arc::Program rhs;
  std::vector<arc::verify::RelationSig> sig;
  arc::verify::BoundedEqOptions opts;
  bool expect_holds = true;
};

enum class Rewrite { kNone, kDecorrelate, kNormalize, kUnnest };

// Trap pairs (must hold) and refutations (must not), each with the
// conventions and the domain size k it is checked under.
struct KnownPair {
  const char* label;
  const char* lhs;
  Rewrite rewrite;  // the rhs is this rewrite of lhs, or `rhs` for kNone
  const char* rhs;
  bool expect_holds;
  int conventions;  // 0: Arc and Sql, 1: Arc, 2: Sql, 3: Arc with 2VL
  int k;
};

// Fig. 21a is checked at k=2: at k=3 its 23,409 instances took half of a
// round, and too few rounds fit in a run (see WORKLOADS.md). At k=2 the
// pool still holds NULL and duplicate keys.
constexpr KnownPair kKnownPairs[] = {
    {"decorrelate(fig21a)",
     "{Q(id) | exists r in R [Q.id = r.id and "
     "exists s in S, gamma() [r.id = s.id and r.q = count(s.d)]]}",
     Rewrite::kDecorrelate, nullptr, true, 0, 2},
    {"normalize(eq15)",
     "{Q(ak, sm) | exists r in R, x in {X(sm) | exists s in S, gamma() "
     "[(s.a < r.ak and s.b = s.b) and X.sm = sum(s.b)]} "
     "[Q.ak = r.ak and Q.sm = x.sm]}",
     Rewrite::kNormalize, nullptr, true, 0, 3},
    {"unnest(null-trap)",
     "{Q(a) | exists r in R [exists s in S [Q.a = r.a and not(s.b = r.a)]]}",
     Rewrite::kUnnest, nullptr, true, 1, 3},
    {"refute(unnest under bag)",
     "{Q(A) | exists r in R [exists s in S [Q.A = r.A and r.B = s.B]]}",
     Rewrite::kNone,
     "{Q(A) | exists r in R, s in S [Q.A = r.A and r.B = s.B]}", false, 2, 3},
    {"refute(dropped null guard under 2VL)",
     "{Q(A) | exists r in R, s in S [Q.A = r.A and s.B is not null and "
     "not(s.B = r.A)]}",
     Rewrite::kNone,
     "{Q(A) | exists r in R, s in S [Q.A = r.A and not(s.B = r.A)]}", false, 3,
     3},
    {"refute(naive decorrelation)",
     "{Q(id) | exists r in R [Q.id = r.id and "
     "exists s in S, gamma() [r.id = s.id and r.q = count(s.d)]]}",
     Rewrite::kNone,
     "{Q(id) | exists r in R, x in {X(id, ct) | exists s in S, gamma(s.id) "
     "[X.id = s.id and X.ct = count(s.d)]} "
     "[Q.id = r.id and r.id = x.id and r.q = x.ct]}",
     false, 1, 3},
};

std::vector<arc::Conventions> ConventionSet(int which) {
  switch (which) {
    case 1: return {arc::Conventions::Arc()};
    case 2: return {arc::Conventions::Sql()};
    case 3: {
      arc::Conventions twovl = arc::Conventions::Arc();
      twovl.null_logic = arc::data::NullLogic::kTwoValued;
      return {twovl};
    }
    default: return {};  // the checker's default: Arc and Sql
  }
}

class VerifyGate : public Workload {
 public:
  arc::Status Setup(uint64_t seed, bool tiny, Tracer& tracer) override {
    pairs_.clear();
    ScopedSpan span(tracer, SpanName::kGenerate);
    ARC_RETURN_IF_ERROR(AddCorpus(tiny));
    ARC_RETURN_IF_ERROR(AddKnownPairs(tiny));
    // The pairs are the same for every seed, so set-up does the same work
    // and a round checks the same mix; the seed only orders them.
    arc::data::Rng rng(seed);
    for (size_t k = pairs_.size() - 1; k > 0; --k) {
      std::swap(pairs_[k], pairs_[rng.Below(static_cast<int64_t>(k) + 1)]);
    }
    return arc::Status::Ok();
  }

  arc::Status RunOp(int64_t i, Tracer& tracer, OpCounters& c) override {
    const Pair& p = pairs_[i % pairs_.size()];
    ScopedSpan span(tracer, SpanName::kCheckEquivalent);
    auto report = arc::verify::CheckEquivalent(p.lhs, p.rhs, p.sig, p.opts);
    if (!report.ok()) return report.status();
    report_ = std::move(report).value();
    c.verify_enumerated += report_.instances_enumerated;
    c.verify_checked += report_.instances_checked;
    c.verify_skipped += report_.instances_skipped_symmetry;
    return arc::Status::Ok();
  }

  arc::Status CheckOp(int64_t i, uint64_t* digest) override {
    const Pair& p = pairs_[i % pairs_.size()];
    Fold(digest, report_.holds ? 1 : 2);
    Fold(digest, report_.instances_enumerated);
    Fold(digest, report_.instances_checked);
    if (report_.holds != p.expect_holds) {
      return arc::Internal(p.label + ": expected " +
                           (p.expect_holds ? "equivalence" : "a refutation") +
                           ", got " + report_.ToString());
    }
    if (report_.holds) {
      const int64_t all = arc::verify::CountInstances(p.sig, p.opts);
      if (report_.instances_enumerated != all) {
        return arc::Internal(p.label + ": enumerated " +
                             std::to_string(report_.instances_enumerated) +
                             " instances, closed form says " +
                             std::to_string(all));
      }
    } else if (!report_.counterexample.has_value() ||
               report_.counterexample->total_rows > 3) {
      return arc::Internal(p.label + ": refutation lacks a minimal witness");
    }
    return arc::Status::Ok();
  }

  int64_t round_size() const override {
    return static_cast<int64_t>(pairs_.size());
  }

  std::string InputText(int64_t i) const override {
    const Pair& p = pairs_[i % pairs_.size()];
    return p.label + "\n" + arc::text::PrintProgram(p.lhs) + "\n" +
           arc::text::PrintProgram(p.rhs);
  }

  InputFacts facts() const override {
    InputFacts f;
    f.distinct_inputs = static_cast<int64_t>(pairs_.size());
    f.verify_bounds = std::string("corpus k=2 rows<=2 no-null; known pairs ") +
                      (tiny_ ? "k=2" : "k=3 (fig21a k=2)") + " rows<=2 null";
    return f;
  }

 private:
  static constexpr uint64_t kDbSeed = 32;
  static constexpr uint64_t kCorpusSeed = 1;

  // The corpus is stratified by instance count, which sets a check's cost
  // (about 0.2-0.4 ms per instance).
  struct Stratum {
    int64_t max_instances;
    int full;
    int tiny;
  };
  static constexpr Stratum kStrata[] = {
      {15, 8, 1},     // one relation
      {90, 85, 2},    // a binary and the unary relation
      {225, 5, 1},    // two binary relations
      {1350, 1, 0},   // all three relations
  };

  // Random queries over R(A, B), S(C, D), T(E), each paired with its
  // decorrelation. NormalizeConjunctions and UnnestExistentialScopes find
  // nothing to rewrite in the generator's output; the known pairs cover
  // them.
  arc::Status AddCorpus(bool tiny) {
    arc::data::Database db;
    db.Put("R", arc::data::RandomBinary(12, 8, 0.1, 0.0, kDbSeed));
    arc::data::Relation s =
        arc::data::RandomBinary(10, 8, 0.0, 0.0, kDbSeed + 100);
    db.Put("S", arc::data::Relation(arc::data::Schema{"C", "D"}, s.rows()));
    arc::data::Relation t = arc::data::RandomUnary(8, 8, 0.0, kDbSeed + 200);
    db.Put("T", arc::data::Relation(arc::data::Schema{"E"}, t.rows()));

    arc::verify::BoundedEqOptions bound;
    bound.domain_size = 2;
    bound.max_rows = 2;
    bound.include_null = false;
    std::vector<int> missing;
    int missing_total = 0;
    for (const Stratum& st : kStrata) {
      missing.push_back(tiny ? st.tiny : st.full);
      missing_total += missing.back();
    }
    for (uint64_t j = 0; missing_total > 0 && j < 100000; ++j) {
      arc::RandomQueryOptions qopts;
      qopts.seed = kCorpusSeed * 7919 + j;
      qopts.scalar_agg_probability = 0.5;
      qopts.negated_filter_probability = 0.3;
      qopts.max_bindings = 2;
      qopts.max_depth = 1;
      auto coll = arc::GenerateRandomCollection(db, qopts);
      if (!coll.ok()) return coll.status();
      const arc::Program q = arc::MakeProgram(std::move(coll).value());
      arc::rewrite::RewriteResult decorrelated =
          arc::rewrite::DecorrelateAggregation(q);
      if (decorrelated.applications == 0) continue;
      auto pair = MakePair("query " + std::to_string(j) + " decorrelate", q,
                           decorrelated.program, bound, true, &db);
      if (!pair.ok()) return pair.status();
      const int64_t instances = arc::verify::CountInstances(pair->sig, bound);
      for (size_t k = 0; k < missing.size(); ++k) {
        if (instances > kStrata[k].max_instances) continue;
        if (missing[k] > 0) {
          --missing[k];
          --missing_total;
          pairs_.push_back(std::move(pair).value());
        }
        break;
      }
    }
    if (missing_total > 0) {
      return arc::Internal("too few rewrite pairs in the corpus");
    }
    return arc::Status::Ok();
  }

  arc::Status AddKnownPairs(bool tiny) {
    tiny_ = tiny;
    arc::verify::BoundedEqOptions bound;
    bound.max_rows = 2;
    bound.include_null = true;
    for (const KnownPair& k : kKnownPairs) {
      bound.domain_size = tiny ? 2 : k.k;
      auto lhs = arc::text::ParseProgram(k.lhs);
      if (!lhs.ok()) return lhs.status();
      arc::Program rhs;
      if (k.rewrite == Rewrite::kNone) {
        auto parsed = arc::text::ParseProgram(k.rhs);
        if (!parsed.ok()) return parsed.status();
        rhs = std::move(parsed).value();
      } else {
        ARC_ASSIGN_OR_RETURN(rhs, Apply(k.rewrite, *lhs));
      }
      arc::verify::BoundedEqOptions opts = bound;
      opts.conventions = ConventionSet(k.conventions);
      auto pair = MakePair(k.label, *lhs, rhs, opts, k.expect_holds, nullptr);
      if (!pair.ok()) return pair.status();
      pairs_.push_back(std::move(pair).value());
    }
    return arc::Status::Ok();
  }

  // The rewrite must apply: a pair of identical programs checks nothing.
  static arc::Result<arc::Program> Apply(Rewrite rewrite, const arc::Program& p) {
    arc::rewrite::RewriteResult r;
    if (rewrite == Rewrite::kDecorrelate) {
      r = arc::rewrite::DecorrelateAggregation(p);
    } else if (rewrite == Rewrite::kNormalize) {
      r = arc::rewrite::NormalizeConjunctions(p);
    } else {
      auto unnested =
          arc::rewrite::UnnestExistentialScopes(p, arc::Conventions::Arc());
      if (!unnested.ok()) return unnested.status();
      r = std::move(unnested).value();
    }
    if (r.applications == 0) return arc::Internal("known rewrite did not apply");
    return std::move(r.program);
  }

  static arc::Result<Pair> MakePair(const std::string& label,
                                    const arc::Program& lhs,
                                    const arc::Program& rhs,
                                    const arc::verify::BoundedEqOptions& opts,
                                    bool expect_holds,
                                    const arc::data::Database* db) {
    auto sig = arc::verify::InferSignature(lhs, rhs, db);
    if (!sig.ok()) return sig.status();
    Pair p;
    p.label = label;
    p.lhs = lhs.Clone();
    p.rhs = rhs.Clone();
    p.sig = std::move(sig).value();
    p.opts = opts;
    p.expect_holds = expect_holds;
    return p;
  }

  std::vector<Pair> pairs_;
  bool tiny_ = false;
  arc::verify::BoundedEqReport report_;
};

}  // namespace

std::unique_ptr<Workload> MakeVerifyGate() {
  return std::make_unique<VerifyGate>();
}

}  // namespace perfbench
