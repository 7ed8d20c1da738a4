// End-to-end benchmark binary. One client thread runs a closed loop of ops
// from one workload and prints, as its last line of output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones, taken from a traced pass
// (see WORKLOADS.md for the definitions).
//
// Usage: arc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//          [--ops N] [--size tiny] [--git-sha SHA] [--spans-out FILE]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t ops = 0;  // >0: run exactly this many ops per pass
  bool tiny = false;
  std::string git_sha = "unknown";
  std::string spans_out;
  bool sql_oracle = false;  // serve adhoc_review's SQL oracle instead
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "arc_perfbench: %s\nusage: arc_perfbench --workload "
               "adhoc_review|scan_large|closure|verify_gate --seed N "
               "--seconds S --trace 0|1 [--ops N] [--size tiny] "
               "[--git-sha SHA] [--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--ops") {
      a.ops = std::atoll(v.c_str());
    } else if (flag == "--size") {
      if (v != "tiny" && v != "full") Usage("--size is tiny or full");
      a.tiny = v == "tiny";
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--sql-oracle") {
      a.sql_oracle = v == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

// Set-ups before the first pass, and set-ups spread over the timed pass
// of an untraced run (see RunPass).
constexpr int kFirstSetups = 5;
constexpr int kSpreadSetups = 48;

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "adhoc_review") return MakeAdhocReview();
  if (name == "scan_large") return MakeScanLarge();
  if (name == "closure") return MakeClosure();
  if (name == "verify_gate") return MakeVerifyGate();
  return nullptr;
}

/// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Per-op records are kept in deques: a vector that doubles past a power of
// two held two copies at once and moved peak_rss_mb by a third.
struct Pass {
  std::deque<double> latency_ns;
  // Per op of the mix (op index modulo the round size): its fastest latency
  // over the pass's rounds, or -1 before it has run.
  std::vector<double> best_ns;
  int64_t rounds = 0;
  std::deque<uint64_t> counter_digests;
  OpCounters counter_sum;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t output_digest = 0;
  uint64_t input_digest = 0;
  std::string first_error;

  double timed_ns() const {
    double sum = 0;
    for (double v : latency_ns) sum += v;
    return sum;
  }
};

/// Sets the workload up once and appends the time it took to `setup_s`.
arc::Status SetUp(Workload& w, const Args& args, Tracer& tracer,
                  std::vector<double>* setup_s) {
  tracer.set_enabled(args.trace);
  const int64_t t0 = NowNs();
  arc::Status st = w.Setup(args.seed, args.tiny, tracer);
  setup_s->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  tracer.set_enabled(false);
  return st;
}

/// Runs ops until `seconds` of wall time have passed (in whole rounds of
/// the workload's mix) or exactly `fixed_ops` ops when that is positive.
/// Only RunOp is timed; the oracle checks run between groups of ops.
/// With `setup_s` set, the workload is also set up again every
/// seconds / kSpreadSetups, between two ops, and the times are appended:
/// a shared machine changes speed over seconds, so set-ups all made in a
/// row meet one state of it, while these meet the states the ops meet.
/// Set-up is deterministic, so the ops after it work on the same inputs.
Pass RunPass(Workload& w, Tracer& tracer, bool traced, double seconds,
             int64_t fixed_ops, const Args* args = nullptr,
             std::vector<double>* setup_s = nullptr) {
  Pass p;
  w.BeginPass();
  tracer.set_enabled(traced);
  const int64_t round = std::max<int64_t>(1, w.round_size());
  p.best_ns.assign(static_cast<size_t>(round), -1.0);
  const size_t batch = static_cast<size_t>(std::max<int64_t>(1, w.check_batch()));
  std::vector<std::pair<int64_t, arc::Status>> unchecked;
  auto check = [&] {
    for (auto& [i, status] : unchecked) {
      if (status.ok()) status = w.CheckOp(i, &p.output_digest);
      if (!status.ok()) {
        ++p.failed;
        if (p.first_error.empty()) {
          p.first_error = "op " + std::to_string(i) + ": " + status.ToString();
        }
      }
    }
    unchecked.clear();
  };
  const int64_t start = NowNs();
  // A hard stop far beyond any sane round keeps a run bounded.
  const double hard_stop_s = 3 * seconds + 30;
  const double setup_every_s = seconds / kSpreadSetups;
  double next_setup_s = setup_every_s;
  for (int64_t i = 0;; ++i) {
    const double elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
    if (fixed_ops > 0) {
      if (i >= fixed_ops) break;
    } else if ((i % round == 0 && i > 0 && elapsed_s >= seconds) ||
               elapsed_s >= hard_stop_s) {
      break;
    }
    if (setup_s != nullptr && elapsed_s >= next_setup_s) {
      next_setup_s += setup_every_s;
      check();
      if (arc::Status st = SetUp(w, *args, tracer, setup_s); !st.ok()) {
        ++p.failed;
        p.first_error = "set-up: " + st.ToString();
        break;
      }
    }
    OpCounters c;
    tracer.set_op(i);
    arc::Status status;
    const int64_t t0 = NowNs();
    {
      ScopedSpan op(tracer, SpanName::kOp);
      status = w.RunOp(i, tracer, c);
    }
    const int64_t t1 = NowNs();
    if (traced) w.AfterTracedOp(i, tracer);
    tracer.set_op(-1);
    p.latency_ns.push_back(static_cast<double>(t1 - t0));
    double& best = p.best_ns[static_cast<size_t>(i % round)];
    if (best < 0 || t1 - t0 < best) best = static_cast<double>(t1 - t0);
    if (i % round == 0) ++p.rounds;
    ++p.attempted;
    Fold(&p.input_digest, TextDigest(w.InputText(i)));
    p.counter_digests.push_back(c.Digest());
    p.counter_sum.Add(c);
    unchecked.emplace_back(i, std::move(status));
    if (unchecked.size() >= batch) check();
  }
  check();
  tracer.set_enabled(false);
  p.best_ns.erase(std::remove(p.best_ns.begin(), p.best_ns.end(), -1.0),
                  p.best_ns.end());
  return p;
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Self times and counts aggregated from one traced pass plus set-up.
struct SpanTotals {
  std::array<double, static_cast<int>(SpanName::kCount)> self_ns{};
  double op_ns = 0;
  double op_hit_ns = 0;  // GetOrPrepare calls inside ops that hit
  int64_t op_hits = 0;
  double probe_ns = 0;  // lookup probes
  int64_t probes = 0;
  // Prepare work, set-up included: eval.Prepare spans, and each missing
  // GetOrPrepare minus the probe that follows it.
  double prepare_ns = 0;
  int64_t prepares = 0;
  double setup_generate_ns = 0;
  double setup_snapshot_ns = 0;
};

SpanTotals Aggregate(const std::vector<Span>& spans) {
  SpanTotals t;
  std::vector<double> child_ns(spans.size(), 0.0);
  double last_miss_ns = -1;  // a GetOrPrepare miss awaiting its probe
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const int k = static_cast<int>(s.name);
    if (s.name == SpanName::kGetOrPrepare && s.cache_hit && s.op >= 0) {
      t.op_hit_ns += dur;
      ++t.op_hits;
    } else if (s.name == SpanName::kGetOrPrepare && !s.cache_hit) {
      last_miss_ns = dur;
    } else if (s.name == SpanName::kLookupProbe && s.cache_hit) {
      t.probe_ns += dur;
      ++t.probes;
      if (last_miss_ns >= 0) {
        t.prepare_ns += last_miss_ns - dur;
        ++t.prepares;
      }
      last_miss_ns = -1;
    } else if (s.name == SpanName::kPrepare) {
      t.prepare_ns += dur;
      ++t.prepares;
    }
    if (s.op < 0) {
      if (s.name == SpanName::kGenerate) t.setup_generate_ns += dur;
      if (s.name == SpanName::kSnapshot) t.setup_snapshot_ns += dur;
      continue;
    }
    t.self_ns[k] += dur - child_ns[i];
    if (s.name == SpanName::kOp) t.op_ns += dur;
  }
  return t;
}

std::vector<Metric> LayerMetrics(const SpanTotals& t, const OpCounters& sum,
                                 int64_t ops, int setups,
                                 const InputFacts& facts,
                                 double overhead_ratio) {
  const double n = static_cast<double>(std::max<int64_t>(1, ops));
  auto self_us = [&](SpanName k) {
    return t.self_ns[static_cast<int>(k)] / n / 1e3;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const arc::eval::EvalStats& e = sum.eval;
  // Hits inside ops where there are any (scan_large), else the probes.
  const double lookup_ns = t.op_hits > 0 ? ratio(t.op_hit_ns, t.op_hits)
                                         : ratio(t.probe_ns, t.probes);
  const double prepare_ns = ratio(t.prepare_ns, t.prepares);
  const double exec_ns = t.self_ns[static_cast<int>(SpanName::kExecute)];
  const double check_ns = t.self_ns[static_cast<int>(SpanName::kCheckEquivalent)];
  const double op_self_ns = t.self_ns[static_cast<int>(SpanName::kOp)];
  const double d = static_cast<double>(std::max(1, setups));
  return {
      {"text.parse_us", self_us(SpanName::kParse), "us"},
      {"arc.lint_us", self_us(SpanName::kLint), "us"},
      {"arc.lint_findings_per_op", sum.lint_findings / n, "count/op"},
      {"higraph.render_us",
       self_us(SpanName::kHigraphBuild) + self_us(SpanName::kHigraphAscii),
       "us"},
      {"translate.arc_to_sql_us", self_us(SpanName::kArcToSql), "us"},
      {"plan_cache.lookup_us", lookup_ns / 1e3, "us"},
      {"plan_cache.hit_ratio",
       ratio(sum.cache_hits, sum.cache_hits + sum.cache_misses), "ratio"},
      {"plan_cache.evictions", sum.cache_evictions / n, "count/op"},
      {"eval.prepare_us", prepare_ns / 1e3, "us"},
      {"eval.prepare_calls", sum.prepares / n, "count/op"},
      {"eval.execute_us", exec_ns / n / 1e3, "us"},
      {"eval.execute_ns_per_row_scanned", ratio(exec_ns, e.rows_scanned),
       "ns/row"},
      {"eval.rows_scanned_per_op", e.rows_scanned / n, "rows/op"},
      {"eval.rows_out_per_op", sum.rows_out / n, "rows/op"},
      {"eval.index_probes_per_op", e.index_probes / n, "count/op"},
      {"eval.index_hit_ratio", ratio(e.index_hits, e.index_probes), "ratio"},
      {"eval.batches_per_op", e.batches_evaluated / n, "count/op"},
      {"eval.rows_per_batch", ratio(e.batch_rows_total, e.batches_evaluated),
       "rows"},
      {"eval.predicate_opcodes_per_op", e.predicate_opcodes_run / n,
       "count/op"},
      {"eval.scope_evaluations_per_op", e.scope_evaluations / n, "count/op"},
      {"eval.slot_reads_per_op", e.slot_reads / n, "count/op"},
      {"eval.frames_pushed_per_op", e.frames_pushed / n, "count/op"},
      {"eval.fixpoint_iterations_per_op", e.fixpoint_iterations / n,
       "count/op"},
      {"eval.fixpoint_delta_tuples_per_op", e.fixpoint_delta_tuples / n,
       "rows/op"},
      {"eval.dedup_hits_per_op", e.dedup_hits / n, "count/op"},
      {"eval.fixpoint_useful_ratio",
       ratio(e.fixpoint_delta_tuples, e.fixpoint_delta_tuples + e.dedup_hits),
       "ratio"},
      {"eval.join_table_reuses_per_op", e.join_table_reuses / n, "count/op"},
      {"eval.naive_fixpoints", e.naive_fixpoints / n, "count/op"},
      {"data.generate_s", t.setup_generate_ns / d / 1e9, "s"},
      {"data.snapshot_s", t.setup_snapshot_ns / d / 1e9, "s"},
      {"data.base_rows", static_cast<double>(facts.base_rows), "rows"},
      {"verify.check_ms", check_ns / n / 1e6, "ms"},
      {"verify.instances_enumerated_per_op", sum.verify_enumerated / n,
       "count/op"},
      {"verify.instances_checked_per_op", sum.verify_checked / n, "count/op"},
      {"verify.symmetry_skip_ratio",
       ratio(sum.verify_skipped, sum.verify_enumerated), "ratio"},
      {"verify.us_per_instance_checked", ratio(check_ns, sum.verify_checked) / 1e3,
       "us/instance"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
      {"trace.op_us", t.op_ns / n / 1e3, "us"},
      {"trace.op_coverage_ratio", ratio(t.op_ns - op_self_ns, t.op_ns),
       "ratio"},
  };
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "arc_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "span\tparent\top\tname\tstart_ns\tend_ns\tcache_hit\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << s.op << '\t'
        << SpanNameString(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << (s.cache_hit ? 1 : 0) << '\n';
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.sql_oracle) return SqlOracleMain(args.seed);
  // A stopped oracle child must not take the benchmark down with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "arc_perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) Usage("unknown workload " + args.workload);

  Tracer tracer;
  // Set-up, repeated here and (untraced) during the timed pass; setup_s is
  // the median of all of them.
  std::vector<double> setup_s;
  for (int r = 0; r < kFirstSetups; ++r) {
    if (arc::Status st = SetUp(*w, args, tracer, &setup_s); !st.ok()) {
      std::fprintf(stderr, "arc_perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (arc::Status st = w->PrepareOracle(); !st.ok()) {
    std::fprintf(stderr, "arc_perfbench: oracle failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const InputFacts facts = w->facts();
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"git_sha\": %s, "
      "\"build_type\": %s, \"nproc\": %u, \"client_threads\": 1, "
      "\"size\": %s, \"base_rows\": %lld, \"rows_per_relation\": %s, "
      "\"distinct_inputs\": %lld, \"plan_cache_capacity\": %lld, "
      "\"verify_bounds\": %s, \"first_setups\": %d, \"seconds\": %s, "
      "\"trace\": %d}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonString(args.git_sha).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(),
      JsonString(args.tiny ? "tiny" : "full").c_str(),
      static_cast<long long>(facts.base_rows),
      JsonString(facts.rows_per_relation).c_str(),
      static_cast<long long>(facts.distinct_inputs),
      static_cast<long long>(facts.plan_cache_capacity),
      JsonString(facts.verify_bounds).c_str(), kFirstSetups,
      Num(args.seconds).c_str(), args.trace ? 1 : 0);

  if (w->warmup_ops() > 0) {
    RunPass(*w, tracer, false, args.seconds, w->warmup_ops());
  }

  std::vector<Metric> metrics;
  std::vector<Pass> passes;
  std::string mismatch;
  if (!args.trace) {
    passes.push_back(
        RunPass(*w, tracer, false, args.seconds, args.ops, &args, &setup_s));
    // Each op of the mix counts with its fastest latency over the rounds:
    // a run on a shared machine meets slow spells of some seconds, and how
    // much of a run they cover varies from run to run.
    const Pass& p = passes.back();
    double best_sum_ns = 0;
    for (double v : p.best_ns) best_sum_ns += v;
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"ops_per_s", static_cast<double>(p.best_ns.size()) / (best_sum_ns * 1e-9),
         "op/s"},
        {"op_ms_p50", Quantile(p.best_ns, 0.5) / 1e6, "ms"},
        {"op_ms_p90", Quantile(p.best_ns, 0.9) / 1e6, "ms"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  } else {
    // Untraced, traced twice over exactly the same ops, untraced again.
    // The two traced passes must count identical work; the untraced passes
    // bracket them, so slow drift of a shared machine cancels in the
    // overhead ratio. The tracer still holds the set-up spans.
    passes.push_back(RunPass(*w, tracer, false, args.seconds / 3, args.ops));
    const int64_t n = passes[0].attempted;
    passes.push_back(RunPass(*w, tracer, true, args.seconds, n));
    const std::vector<Span> spans = tracer.spans();
    tracer.Clear();
    passes.push_back(RunPass(*w, tracer, true, args.seconds, n));
    tracer.Clear();
    passes.push_back(RunPass(*w, tracer, false, args.seconds, n));
    for (size_t k = 1; k < passes.size(); ++k) {
      if (passes[k].output_digest != passes[0].output_digest ||
          passes[k].input_digest != passes[0].input_digest) {
        mismatch = "outputs differ between passes over the same ops";
      }
    }
    for (int64_t i = 0; i < n && mismatch.empty(); ++i) {
      if (passes[1].counter_digests[i] != passes[2].counter_digests[i]) {
        mismatch = "work counters differ between two traced passes at op " +
                   std::to_string(i);
      }
    }
    const double overhead =
        (passes[0].timed_ns() + passes[3].timed_ns()) /
        (passes[1].timed_ns() + passes[2].timed_ns());
    metrics = LayerMetrics(Aggregate(spans), passes[1].counter_sum, n, kFirstSetups, facts,
                           overhead);
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, spans);
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    if (!p.first_error.empty()) {
      std::fprintf(stderr, "arc_perfbench: %s\n", p.first_error.c_str());
    }
  }
  if (!mismatch.empty()) std::fprintf(stderr, "arc_perfbench: %s\n", mismatch.c_str());
  const bool correct = failed == 0 && mismatch.empty() && attempted > 0;

  // Human-readable listing, then the reproducibility digests.
  for (const Metric& m : metrics) {
    std::printf("%-36s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%-36s %16s %s\n", "failed_op_ratio",
              Num(attempted > 0 ? static_cast<double>(failed) / attempted : 1)
                  .c_str(),
              "ratio");
  if (!w->Notes().empty()) std::printf("%s\n", w->Notes().c_str());
  std::printf("%-36s %16lld %s\n", "op_samples",
              static_cast<long long>(passes[0].attempted), "count");
  std::printf("%-36s %16lld %s\n", "op_mix_size",
              static_cast<long long>(passes[0].best_ns.size()), "count");
  std::printf("%-36s %16lld %s\n", "rounds",
              static_cast<long long>(passes[0].rounds), "count");
  if (!args.trace) {
    // The same pass summarised over every op, not each op's fastest round.
    const Pass& p = passes[0];
    const std::vector<double> all(p.latency_ns.begin(), p.latency_ns.end());
    std::printf("%-36s %16s %s\n", "all_rounds.ops_per_s",
                Num(p.attempted / (p.timed_ns() * 1e-9)).c_str(), "op/s");
    std::printf("%-36s %16s %s\n", "all_rounds.op_ms_p50",
                Num(Quantile(all, 0.5) / 1e6).c_str(), "ms");
    std::printf("%-36s %16s %s\n", "all_rounds.op_ms_p90",
                Num(Quantile(all, 0.9) / 1e6).c_str(), "ms");
  }
  uint64_t input_digest = facts.data_digest;
  Fold(&input_digest, passes[0].input_digest);
  uint64_t counter_digest = 0;
  for (uint64_t d : passes[0].counter_digests) Fold(&counter_digest, d);
  std::printf(
      "{\"digests\": {\"ops\": %lld, \"inputs\": \"%s\", \"outputs\": \"%s\", "
      "\"counters\": \"%s\"}}\n",
      static_cast<long long>(passes[0].attempted),
      Hex(input_digest).c_str(), Hex(passes[0].output_digest).c_str(),
      Hex(counter_digest).c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
