// adhoc_review: the paper's review loop. A stream of distinct,
// machine-generated queries arrives as ARC text; each op reads it back
// through every modality (parse, lint, higraph, SQL) and runs it through
// the plan cache, which misses every time. See WORKLOADS.md.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_set>

#include "arc/lint.h"
#include "arc/random_query.h"
#include "bench.h"
#include "data/generators.h"
#include "eval/plan_cache.h"
#include "higraph/higraph.h"
#include "sql/eval.h"
#include "text/parser.h"
#include "text/printer.h"
#include "translate/arc_to_sql.h"

namespace perfbench {
namespace {

constexpr size_t kCacheCapacity = 128;
constexpr int kSqlOracleTimeoutMs = 500;
// Ops run back to back in groups this large before their checks, so the
// oracle process does not come between every two ops.
constexpr int64_t kCheckBatch = 64;

// Two binary relations and one unary relation of 8 rows each, with
// duplicates and NULLs (the shape of the columnar parity corpus).
arc::data::Database AdhocDatabase(uint64_t seed) {
  arc::data::Database db;
  db.Put("R", arc::data::RandomBinary(8, 6, 0.25, 0.2, seed));
  arc::data::Relation s = arc::data::RandomBinary(8, 6, 0.25, 0.2, seed + 100);
  db.Put("S", arc::data::Relation(arc::data::Schema{"C", "D"}, s.rows()));
  arc::data::Relation t = arc::data::RandomUnary(8, 6, 0.2, seed + 200);
  db.Put("T", arc::data::Relation(arc::data::Schema{"E"}, t.rows()));
  return db;
}

// The SQL evaluator, run in a child process (`--sql-oracle 1`). It
// evaluates a LATERAL subquery once per outer row, so a few generated
// queries take it minutes even on 8-row tables. A child can be stopped at a
// deadline, without disturbing the measured process the way fork() would.
// Protocol: the parent writes "<length>\n<sql>"; the child answers one
// line, "ok <digest>" or "err <message>".
class SqlOracle {
 public:
  ~SqlOracle() { Stop(); }

  /// The digest of the SQL result, an error, or nullopt when the child did
  /// not answer within the deadline (it is then stopped, and restarted on
  /// the next call).
  std::optional<arc::Result<uint64_t>> Digest(const std::string& sql,
                                              uint64_t seed) {
    if (pid_ < 0 && !Start(seed)) {
      return arc::Result<uint64_t>(arc::Internal("cannot start SQL oracle"));
    }
    const std::string request = std::to_string(sql.size()) + "\n" + sql;
    if (write(to_child_, request.data(), request.size()) !=
        static_cast<ssize_t>(request.size())) {
      Stop();
      return arc::Result<uint64_t>(arc::Internal("SQL oracle write failed"));
    }
    std::string line;
    const int64_t deadline = NowNs() + kSqlOracleTimeoutMs * 1000000LL;
    while (line.empty() || line.back() != '\n') {
      const int64_t left_ms = (deadline - NowNs()) / 1000000;
      pollfd pfd{from_child_, POLLIN, 0};
      if (left_ms <= 0 || poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
        Stop();
        return std::nullopt;
      }
      char buf[256];
      const ssize_t n = read(from_child_, buf, sizeof(buf));
      if (n <= 0) {
        Stop();
        return arc::Result<uint64_t>(arc::Internal("SQL oracle died"));
      }
      line.append(buf, static_cast<size_t>(n));
    }
    if (line.rfind("ok ", 0) != 0) {
      return arc::Result<uint64_t>(arc::Internal("SQL oracle: " + line));
    }
    return arc::Result<uint64_t>(std::strtoull(line.c_str() + 3, nullptr, 16));
  }

 private:
  bool Start(uint64_t seed) {
    int in[2];
    int out[2];
    if (pipe2(in, O_CLOEXEC) != 0) return false;
    if (pipe2(out, O_CLOEXEC) != 0) {
      close(in[0]);
      close(in[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    const std::string seed_text = std::to_string(seed);
    const char* argv[] = {"arc_perfbench", "--workload", "adhoc_review",
                          "--seed", seed_text.c_str(), "--sql-oracle", "1",
                          nullptr};
    const int rc = posix_spawn(&pid_, "/proc/self/exe", &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in[0]);
    close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      Stop();
      return false;
    }
    return true;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    if (to_child_ >= 0) close(to_child_);
    if (from_child_ >= 0) close(from_child_);
    to_child_ = from_child_ = -1;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

class AdhocReview : public Workload {
 public:
  arc::Status Setup(uint64_t seed, bool tiny, Tracer& tracer) override {
    seed_ = seed;
    queries_.clear();
    arc::data::Database db;
    {
      ScopedSpan span(tracer, SpanName::kGenerate);
      ARC_RETURN_IF_ERROR(Generate(seed, tiny, &db));
    }
    ScopedSpan span(tracer, SpanName::kSnapshot);
    snapshot_ = db.Snapshot();
    return arc::Status::Ok();
  }

  void BeginPass() override {
    cache_ = std::make_unique<arc::eval::PlanCache>(kCacheCapacity);
  }

  arc::Status RunOp(int64_t i, Tracer& tracer, OpCounters& c) override {
    const std::string& text = queries_[i % queries_.size()];
    Output& out = outputs_[i % kCheckBatch];
    {
      ScopedSpan span(tracer, SpanName::kParse);
      auto parsed = arc::text::ParseProgram(text);
      if (!parsed.ok()) return parsed.status();
      program_ = std::move(parsed).value();
    }
    {
      ScopedSpan span(tracer, SpanName::kLint);
      arc::LintOptions lint_opts;
      lint_opts.analyze.database = &snapshot_;
      arc::LintResult lint = arc::Lint(program_, lint_opts);
      if (!lint.ok()) return arc::ValidationError(arc::LintToText(lint));
      c.lint_findings += static_cast<int64_t>(lint.findings.size());
    }
    {
      ScopedSpan span(tracer, SpanName::kHigraphBuild);
      auto graph = arc::higraph::Build(program_);
      if (!graph.ok()) return graph.status();
      ScopedSpan ascii(tracer, SpanName::kHigraphAscii);
      out.diagram = arc::higraph::ToAscii(*graph);
    }
    {
      ScopedSpan span(tracer, SpanName::kArcToSql);
      auto sql = arc::translate::ArcToSqlText(program_);
      if (!sql.ok()) return sql.status();
      out.sql = std::move(sql).value();
    }
    auto plan = CachedPlan(*cache_, program_, snapshot_, Options(), tracer, c);
    if (!plan.ok()) return plan.status();
    return ExecuteInto(**plan, snapshot_, tracer, c, &out.result);
  }

  void AfterTracedOp(int64_t, Tracer& tracer) override {
    ProbeLookup(*cache_, program_, snapshot_, Options(), tracer);
  }

  arc::Status CheckOp(int64_t i, uint64_t* digest) override {
    const Output& out = outputs_[i % kCheckBatch];
    Fold(digest, RelationDigest(out.result));
    Fold(digest, TextDigest(out.sql));
    Fold(digest, TextDigest(out.diagram));
    // Oracle: the independent SQL evaluator on the rendered SQL, or the
    // row-at-a-time slot evaluator when the SQL evaluator runs too long.
    const int64_t t0 = NowNs();
    auto sql_digest = oracle_.Digest(out.sql, seed_);
    max_sql_ns_ = std::max(max_sql_ns_, NowNs() - t0);
    if (sql_digest.has_value()) {
      if (!sql_digest->ok()) return sql_digest->status();
      ++sql_checks_;
      if (**sql_digest != RelationDigest(out.result)) {
        return arc::Internal("ARC result differs from the SQL oracle for\n  " +
                             out.sql);
      }
      return arc::Status::Ok();
    }
    ++slot_checks_;
    arc::eval::EvalOptions slot = Options();
    slot.binding_mode = arc::eval::BindingMode::kSlotCompiled;
    auto program = arc::text::ParseProgram(InputText(i));
    if (!program.ok()) return program.status();
    auto expected = arc::eval::Eval(snapshot_, *program, slot);
    if (!expected.ok()) return expected.status();
    if (!out.result.EqualsBag(*expected)) {
      return arc::Internal("ARC result differs from the slot reference for\n  " +
                           out.sql);
    }
    return arc::Status::Ok();
  }

  std::string Notes() const override {
    return "oracle: " + std::to_string(sql_checks_) + " checks by SQL, " +
           std::to_string(slot_checks_) + " by the slot reference (SQL over " +
           std::to_string(kSqlOracleTimeoutMs) + " ms); slowest SQL check " +
           std::to_string(max_sql_ns_ / 1000) + " us";
  }

  // A round is the whole distinct stream, so every run times the same
  // queries; it still misses the cache, which holds far fewer.
  int64_t round_size() const override {
    return static_cast<int64_t>(queries_.size());
  }
  int64_t check_batch() const override { return kCheckBatch; }
  int64_t warmup_ops() const override { return 64; }

  std::string InputText(int64_t i) const override {
    return queries_[i % queries_.size()];
  }

  InputFacts facts() const override {
    InputFacts f;
    DescribeRelations(snapshot_, &f);
    f.distinct_inputs = static_cast<int64_t>(queries_.size());
    f.plan_cache_capacity = kCacheCapacity;
    return f;
  }

 private:
  arc::Status Generate(uint64_t seed, bool tiny, arc::data::Database* out) {
    *out = AdhocDatabase(seed);
    const arc::data::Database& db = *out;

    // The distinct query stream, as text: the program only ever sees text.
    const size_t want = tiny ? 48 : 4096;
    std::unordered_set<std::string> seen;
    for (uint64_t j = 0; queries_.size() < want && j < 8 * want; ++j) {
      arc::RandomQueryOptions opts;
      opts.seed = seed * 1000003 + j;
      opts.scalar_agg_probability = 0.3;
      opts.negated_filter_probability = 0.3;
      // Three bindings per scope allow 512-row cross products nested in
      // each other; then 1% of the ops take a quarter of the time, and
      // which of them a run meets decides its throughput.
      opts.max_bindings = 2;
      auto coll = arc::GenerateRandomCollection(db, opts);
      if (!coll.ok()) return coll.status();
      std::string text =
          arc::text::PrintProgram(arc::MakeProgram(std::move(coll).value()));
      if (seen.insert(text).second) queries_.push_back(std::move(text));
    }
    if (queries_.size() < want) {
      return arc::Internal("query generator produced too few distinct queries");
    }
    return arc::Status::Ok();
  }

  static arc::eval::EvalOptions Options() {
    arc::eval::EvalOptions opts;
    opts.conventions = arc::Conventions::Sql();
    return opts;
  }

  uint64_t seed_ = 0;
  arc::data::Database snapshot_;
  std::vector<std::string> queries_;
  SqlOracle oracle_;
  int64_t sql_checks_ = 0;
  int64_t slot_checks_ = 0;
  int64_t max_sql_ns_ = 0;
  std::unique_ptr<arc::eval::PlanCache> cache_;
  // The program of the op just run (for the lookup probe), and the
  // outputs of the ops not yet checked.
  struct Output {
    std::string diagram;
    std::string sql;
    arc::data::Relation result;
  };
  arc::Program program_;
  std::vector<Output> outputs_ = std::vector<Output>(kCheckBatch);
};

}  // namespace

int SqlOracleMain(uint64_t seed) {
  const arc::data::Database db = AdhocDatabase(seed).Snapshot();
  char header[32];
  while (std::fgets(header, sizeof(header), stdin) != nullptr) {
    std::string sql(std::strtoull(header, nullptr, 10), '\0');
    if (std::fread(sql.data(), 1, sql.size(), stdin) != sql.size()) return 1;
    arc::sql::SqlEvaluator direct(db);
    auto result = direct.EvalQuery(sql);
    if (result.ok()) {
      std::printf("ok %llx\n",
                  static_cast<unsigned long long>(RelationDigest(*result)));
    } else {
      std::string message = result.status().ToString();
      for (char& ch : message) {
        if (ch == '\n') ch = ' ';
      }
      std::printf("err %s\n", message.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

std::unique_ptr<Workload> MakeAdhocReview() {
  return std::make_unique<AdhocReview>();
}

}  // namespace perfbench
