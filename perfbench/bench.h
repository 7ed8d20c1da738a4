// Shared pieces of the end-to-end benchmark: the span tracer, the per-op
// work counters, and the interface every workload implements.
//
// The benchmark drives the engine only through its public headers. Each
// call into a layer (parse, lint, higraph, translate, plan cache, prepare,
// execute, generators, snapshot, verify) is wrapped in a Span recorded by
// the benchmark itself, so per-layer times are measured from outside the
// program. With tracing off a Span costs one branch.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/database.h"
#include "data/relation.h"
#include "eval/evaluator.h"
#include "eval/plan_cache.h"

namespace perfbench {

/// The layer calls a span can stand for. kOp wraps one whole timed op.
enum class SpanName : int {
  kOp,
  kParse,           // text::ParseProgram
  kLint,            // arc::Lint
  kHigraphBuild,    // higraph::Build
  kHigraphAscii,    // higraph::ToAscii
  kArcToSql,        // translate::ArcToSqlText
  kGetOrPrepare,    // eval::PlanCache::GetOrPrepare
  kLookupProbe,     // a repeat GetOrPrepare that must hit (outside any op)
  kPrepare,         // eval::Prepare
  kExecute,         // eval::Execute
  kCheckEquivalent, // verify::CheckEquivalent
  kGenerate,        // data generators, random queries, corpus rewrites
  kSnapshot,        // data::Database::Snapshot
  kCount,
};
const char* SpanNameString(SpanName name);

/// One recorded span. `op` is the op index, or -1 for set-up work.
struct Span {
  SpanName name = SpanName::kOp;
  int32_t parent = -1;
  int64_t op = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// For kGetOrPrepare: whether the cache already held the plan.
  bool cache_hit = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Spans nest by construction order (one client
/// thread); nothing is written until the run ends.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(int64_t op) { op_ = op; }
  int32_t Begin(SpanName name);
  void End(int32_t id);
  void MarkCacheHit(int32_t id, bool hit) {
    if (id >= 0) spans_[id].cache_hit = hit;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    current_ = -1;
  }

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Work counted for one op. All fields are exact counts, so two runs of
/// one seed must count identical work at every op.
struct OpCounters {
  arc::eval::EvalStats eval;  // summed over every Execute of the op
  int64_t rows_out = 0;
  int64_t lint_findings = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t prepares = 0;
  int64_t verify_enumerated = 0;
  int64_t verify_checked = 0;
  int64_t verify_skipped = 0;

  void Add(const OpCounters& o);
  uint64_t Digest() const;
};

/// What a workload reports about its own inputs (provenance).
struct InputFacts {
  int64_t base_rows = 0;            // rows over all base relations
  std::string rows_per_relation;    // "R=100000 S=100000"
  uint64_t data_digest = 0;         // digest of the base relations
  int64_t distinct_inputs = 0;      // distinct queries / plans / pairs
  int64_t plan_cache_capacity = 0;  // 0 when the workload uses no cache
  std::string verify_bounds;        // "" when the workload runs no checker
};

/// One workload. Set-up may run several times per process; each call
/// replaces the previous state. Ops are deterministic in (seed, index).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs, builds and snapshots the database, and prepares any
  /// plans the ops reuse. Timed as set-up.
  virtual arc::Status Setup(uint64_t seed, bool tiny, Tracer& tracer) = 0;
  /// Computes what the oracle needs once per run (untimed).
  virtual arc::Status PrepareOracle() { return arc::Status::Ok(); }
  /// Resets per-pass state (the plan cache) so a pass replays exactly.
  virtual void BeginPass() {}
  /// Runs op `i`; its output is kept for CheckOp. Timed.
  virtual arc::Status RunOp(int64_t i, Tracer& tracer, OpCounters& c) = 0;
  /// Checks the output of op `i` against the oracle (untimed), after at
  /// most check_batch() - 1 later ops. Also folds the output into `*digest`.
  virtual arc::Status CheckOp(int64_t i, uint64_t* digest) = 0;
  /// Optional untimed work after op `i` in a traced pass (the plan-cache
  /// lookup probe of adhoc_review).
  virtual void AfterTracedOp(int64_t /*i*/, Tracer& /*tracer*/) {}
  /// Untimed ops run once before the first pass, so lazily built state
  /// (allocator pools, first-touch pages) does not land in the first op.
  virtual int64_t warmup_ops() const { return 0; }
  /// A line about the run for the output (oracle use), or "".
  virtual std::string Notes() const { return ""; }
  /// Ops run between checks; outputs of that many ops must be kept.
  virtual int64_t check_batch() const { return 1; }
  /// Ops in one round of the fixed mix; a run measures whole rounds.
  virtual int64_t round_size() const = 0;
  /// Text of the input op `i` works on (query text or pair), for the
  /// reproducibility digest.
  virtual std::string InputText(int64_t i) const = 0;
  virtual InputFacts facts() const = 0;
};

std::unique_ptr<Workload> MakeAdhocReview();
/// Serves adhoc_review's SQL oracle over stdin/stdout (see adhoc_review.cc).
int SqlOracleMain(uint64_t seed);
std::unique_ptr<Workload> MakeScanLarge();
std::unique_ptr<Workload> MakeClosure();
std::unique_ptr<Workload> MakeVerifyGate();

/// Looks `program` up in `cache` (preparing it on a miss) inside a
/// GetOrPrepare span, and counts the hit, miss and eviction.
arc::Result<std::shared_ptr<const arc::eval::PreparedQuery>> CachedPlan(
    arc::eval::PlanCache& cache, const arc::Program& program,
    const arc::data::Database& db, const arc::eval::EvalOptions& options,
    Tracer& tracer, OpCounters& c);

/// When tracing, repeats a GetOrPrepare that just missed, inside a probe
/// span: the repeat hits, and the miss minus the probe is the Prepare
/// inside the miss.
void ProbeLookup(arc::eval::PlanCache& cache, const arc::Program& program,
                 const arc::data::Database& db,
                 const arc::eval::EvalOptions& options, Tracer& tracer);

/// Executes `plan` inside an Execute span and counts its work.
arc::Status ExecuteInto(const arc::eval::PreparedQuery& plan,
                        const arc::data::Database& db, Tracer& tracer,
                        OpCounters& c, arc::data::Relation* out);

/// Fills the row counts and data digest of `facts` from `db`.
void DescribeRelations(const arc::data::Database& db, InputFacts* facts);

/// Order-independent digest of a result multiset.
uint64_t RelationDigest(const arc::data::Relation& rel);
/// 64-bit FNV-1a of a string.
uint64_t TextDigest(const std::string& text);
/// Mixes `v` into `*digest` (order-dependent).
void Fold(uint64_t* digest, uint64_t v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
