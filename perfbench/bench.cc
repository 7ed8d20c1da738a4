#include "bench.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kParse: return "text.ParseProgram";
    case SpanName::kLint: return "arc.Lint";
    case SpanName::kHigraphBuild: return "higraph.Build";
    case SpanName::kHigraphAscii: return "higraph.ToAscii";
    case SpanName::kArcToSql: return "translate.ArcToSqlText";
    case SpanName::kGetOrPrepare: return "eval.PlanCache.GetOrPrepare";
    case SpanName::kLookupProbe: return "eval.PlanCache.GetOrPrepare.probe";
    case SpanName::kPrepare: return "eval.Prepare";
    case SpanName::kExecute: return "eval.Execute";
    case SpanName::kCheckEquivalent: return "verify.CheckEquivalent";
    case SpanName::kGenerate: return "data.generate";
    case SpanName::kSnapshot: return "data.Database.Snapshot";
    case SpanName::kCount: break;
  }
  return "?";
}

int32_t Tracer::Begin(SpanName name) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.op = op_;
  spans_.push_back(span);
  current_ = static_cast<int32_t>(spans_.size() - 1);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return current_;
}

void Tracer::End(int32_t id) {
  const int64_t now = NowNs();
  spans_[id].end_ns = now;
  current_ = spans_[id].parent;
}

namespace {

// Every EvalStats field, so Add/== stay in step with the struct.
template <typename F>
void ForEachEvalField(arc::eval::EvalStats& a, const arc::eval::EvalStats& b,
                      F f) {
  f(a.fixpoint_iterations, b.fixpoint_iterations);
  f(a.fixpoint_delta_tuples, b.fixpoint_delta_tuples);
  f(a.naive_fixpoints, b.naive_fixpoints);
  f(a.rows_scanned, b.rows_scanned);
  f(a.index_probes, b.index_probes);
  f(a.index_hits, b.index_hits);
  f(a.dedup_hits, b.dedup_hits);
  f(a.scope_evaluations, b.scope_evaluations);
  f(a.frames_pushed, b.frames_pushed);
  f(a.slot_reads, b.slot_reads);
  f(a.join_table_reuses, b.join_table_reuses);
  f(a.batches_evaluated, b.batches_evaluated);
  f(a.batch_rows_total, b.batch_rows_total);
  f(a.predicate_opcodes_run, b.predicate_opcodes_run);
  f(a.prepares, b.prepares);
  f(a.plan_cache_hits, b.plan_cache_hits);
  f(a.plan_cache_misses, b.plan_cache_misses);
}

template <typename F>
void ForEachField(OpCounters& a, const OpCounters& b, F f) {
  ForEachEvalField(a.eval, b.eval, f);
  f(a.rows_out, b.rows_out);
  f(a.lint_findings, b.lint_findings);
  f(a.cache_hits, b.cache_hits);
  f(a.cache_misses, b.cache_misses);
  f(a.cache_evictions, b.cache_evictions);
  f(a.prepares, b.prepares);
  f(a.verify_enumerated, b.verify_enumerated);
  f(a.verify_checked, b.verify_checked);
  f(a.verify_skipped, b.verify_skipped);
}

}  // namespace

void OpCounters::Add(const OpCounters& o) {
  ForEachField(*this, o, [](int64_t& x, int64_t y) { x += y; });
}

arc::Result<std::shared_ptr<const arc::eval::PreparedQuery>> CachedPlan(
    arc::eval::PlanCache& cache, const arc::Program& program,
    const arc::data::Database& db, const arc::eval::EvalOptions& options,
    Tracer& tracer, OpCounters& c) {
  const arc::eval::PlanCache::Stats before = cache.stats();
  std::shared_ptr<const arc::eval::PreparedQuery> plan;
  {
    ScopedSpan span(tracer, SpanName::kGetOrPrepare);
    auto got = cache.GetOrPrepare(program, db, options);
    if (!got.ok()) return got.status();
    plan = std::move(got).value();
    tracer.MarkCacheHit(span.id(), cache.stats().hits > before.hits);
  }
  const arc::eval::PlanCache::Stats after = cache.stats();
  c.cache_hits += after.hits - before.hits;
  c.cache_misses += after.misses - before.misses;
  c.cache_evictions += after.evictions - before.evictions;
  c.prepares += after.prepares - before.prepares;
  return plan;
}

void ProbeLookup(arc::eval::PlanCache& cache, const arc::Program& program,
                 const arc::data::Database& db,
                 const arc::eval::EvalOptions& options, Tracer& tracer) {
  if (!tracer.enabled()) return;
  ScopedSpan span(tracer, SpanName::kLookupProbe);
  const int64_t hits = cache.stats().hits;
  auto got = cache.GetOrPrepare(program, db, options);
  tracer.MarkCacheHit(span.id(), got.ok() && cache.stats().hits > hits);
}

arc::Status ExecuteInto(const arc::eval::PreparedQuery& plan,
                        const arc::data::Database& db, Tracer& tracer,
                        OpCounters& c, arc::data::Relation* out) {
  arc::eval::EvalStats stats;
  {
    ScopedSpan span(tracer, SpanName::kExecute);
    auto result = arc::eval::Execute(plan, db, &stats);
    if (!result.ok()) return result.status();
    *out = std::move(result).value();
  }
  ForEachEvalField(c.eval, stats, [](int64_t& x, int64_t y) { x += y; });
  c.rows_out += out->size();
  return arc::Status::Ok();
}

void DescribeRelations(const arc::data::Database& db, InputFacts* facts) {
  for (const std::string& name : db.Names()) {
    const arc::data::Relation& rel = *db.GetPtr(name);
    const int64_t rows = rel.size();
    Fold(&facts->data_digest, TextDigest(name));
    Fold(&facts->data_digest, RelationDigest(rel));
    facts->base_rows += rows;
    if (!facts->rows_per_relation.empty()) facts->rows_per_relation += ' ';
    facts->rows_per_relation += name + "=" + std::to_string(rows);
  }
}

uint64_t OpCounters::Digest() const {
  uint64_t digest = 0;
  OpCounters copy = *this;
  ForEachField(copy, *this, [&](int64_t&, int64_t v) {
    Fold(&digest, static_cast<uint64_t>(v));
  });
  return digest;
}

uint64_t TextDigest(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {
uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

uint64_t RelationDigest(const arc::data::Relation& rel) {
  uint64_t sum = Mix(static_cast<uint64_t>(rel.size()));
  for (const arc::data::Tuple& t : rel.rows()) sum += Mix(t.Hash());
  return sum;
}

void Fold(uint64_t* digest, uint64_t v) { *digest = Mix(*digest ^ v) + 1; }

}  // namespace perfbench
