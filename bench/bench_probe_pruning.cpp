// Verification-aware candidate pruning (DESIGN.md §17): cheap probes
// against ColumnStats kill candidates before EM evaluation. Over the
// Table 6 dataset (embedded articles + scaled synthetic corpus) this bench
// measures pruning on the naive rung of the Table 6 strategy ladder —
// per-candidate evaluation, the Fig. 8 cost model the probe attacks, where
// every pruned candidate skips a full scan. It runs the full check twice,
// probe_pruning on and off, both checkers adopting the same fragment
// catalog so the candidate spaces are identical. (Probing does not run on
// the merged rungs: a merged cube computes a pruned candidate's slice in
// the same scan as its neighbours, so skipping it does not pay.)
//
// Gates (scripts/check.sh probe-smoke runs --smoke): candidate reduction
// >= 30%, naive-rung speedup >= x1.3, and pruned/unpruned reports
// bit-identical on every case. The smoke run times each arm best-of-3
// (passes alternate unpruned/pruned), so one slow stretch of a shared host
// cannot move the speedup across the gate; the full run times one pass. Results land in BENCH_probe.json; the
// EXPERIMENTS.md Fig. 8 table is derived from the full run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "corpus/harness.h"
#include "util/timer.h"

namespace {

using namespace aggchecker;

constexpr double kReductionGate = 0.30;
constexpr double kSpeedupGate = 1.3;

constexpr int kSmokePasses = 3;

struct Arm {
  std::vector<core::AggChecker> checkers;
  std::vector<core::CheckReport> reports;  ///< from the first pass
  double seconds = std::numeric_limits<double>::infinity();  ///< fastest
};

// Timed pass: run every case's check through this arm's checkers. The
// naive strategy caches no results, so every pass does the same work.
bool RunArm(Arm* arm, const std::vector<corpus::CorpusCase>& cases,
            const char* what) {
  const bool first = arm->reports.empty();
  Timer timer;
  for (size_t i = 0; i < cases.size(); ++i) {
    auto report = arm->checkers[i].Check(cases[i].document);
    if (!report.ok()) {
      std::fprintf(stderr, "%s check %s: %s\n", what, cases[i].name.c_str(),
                   report.status().ToString().c_str());
      return false;
    }
    if (first) arm->reports.push_back(std::move(*report));
  }
  arm->seconds = std::min(arm->seconds, timer.ElapsedSeconds());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::Header("Verification-aware candidate pruning: probes vs full eval",
                "Fig. 8 cost driver; gate: >= 30% pruned, >= x1.3 naive");

  corpus::GeneratorOptions gen;
  gen.num_cases = smoke ? 7 : 50;
  gen.row_scale = smoke ? 2 : 20;
  std::vector<corpus::CorpusCase> cases = corpus::EmbeddedArticles();
  for (auto& c : corpus::GenerateCorpus(gen)) cases.push_back(std::move(c));
  size_t total_rows = 0;
  for (const auto& c : cases) total_rows += c.database.TotalRows();
  std::printf("corpus: %zu cases, %zu total rows (mode=%s)\n", cases.size(),
              total_rows, smoke ? "smoke" : "full");

  // Untimed setup: two checkers per case (pruned/unpruned), sharing one
  // fragment catalog so both arms translate the identical candidate space
  // and the timed region is pure translation+evaluation. Both use the
  // Table 6 evaluation regime (see bench_table6_runtime): widened per-claim
  // scope so candidate evaluation dominates end-to-end time — the cost
  // driver Fig. 8 identifies and the probe stage attacks.
  Arm naive_on, naive_off;
  for (const corpus::CorpusCase& c : cases) {
    core::CheckOptions on;
    on.model.max_eval_per_claim = 800;
    on.model.lucene_hits = 30;
    on.strategy = db::EvalStrategy::kNaive;
    on.probe_pruning = true;
    auto pruned = core::AggChecker::Create(&c.database, on);
    if (!pruned.ok()) {
      std::fprintf(stderr, "create %s: %s\n", c.name.c_str(),
                   pruned.status().ToString().c_str());
      return 1;
    }
    core::CheckOptions off = on;
    off.prebuilt_catalog = pruned->shared_catalog();
    off.probe_pruning = false;
    auto unpruned = core::AggChecker::Create(&c.database, off);
    if (!unpruned.ok()) return 1;
    naive_on.checkers.push_back(std::move(*pruned));
    naive_off.checkers.push_back(std::move(*unpruned));
  }

  // Unpruned reference before pruned, in every pass.
  for (int pass = 0; pass < (smoke ? kSmokePasses : 1); ++pass) {
    if (!RunArm(&naive_off, cases, "naive unpruned")) return 1;
    if (!RunArm(&naive_on, cases, "naive pruned")) return 1;
  }

  // Differential step (untimed): pruning must not move a single byte of
  // any report.
  bool bit_identical = true;
  model::ProbeStats probes;
  for (size_t i = 0; i < cases.size(); ++i) {
    if (core::FleetVerdictFingerprint(naive_on.reports[i]) !=
        core::FleetVerdictFingerprint(naive_off.reports[i])) {
      std::printf("BIT-IDENTITY VIOLATION on %s\n", cases[i].name.c_str());
      bit_identical = false;
    }
    probes.Add(naive_on.reports[i].probe_stats);
  }

  const double reduction =
      probes.candidates_probed > 0
          ? static_cast<double>(probes.candidates_pruned) /
                static_cast<double>(probes.candidates_probed)
          : 0;
  const double naive_speedup =
      naive_on.seconds > 0 ? naive_off.seconds / naive_on.seconds : 0;

  std::printf("candidates probed:  %zu\n", probes.candidates_probed);
  std::printf("candidates pruned:  %zu (%.1f%%; gate: >= %.0f%%)\n",
              probes.candidates_pruned, reduction * 100,
              kReductionGate * 100);
  std::printf("naive rung (per-candidate evaluation, Fig. 8 regime, "
              "fastest of %d pass(es) per arm):\n",
              smoke ? kSmokePasses : 1);
  std::printf("  unpruned: %8.3fs   pruned: %8.3fs   speedup: x%.2f "
              "(gate: >= x%.1f)\n",
              naive_off.seconds, naive_on.seconds, naive_speedup,
              kSpeedupGate);
  std::printf("  probe overhead %.3fs; top-k backfills: %zu\n",
              probes.probe_seconds, probes.backfilled);
  std::printf("bit-identity pruned-vs-unpruned over %zu cases: %s\n",
              cases.size(), bit_identical ? "OK" : "FAILED");

  if (FILE* out = std::fopen("BENCH_probe.json", "w")) {
    std::fprintf(out, "{\n  \"mode\": \"%s\",\n  \"cases\": %zu,\n",
                 smoke ? "smoke" : "full", cases.size());
    std::fprintf(out,
                 "  \"candidates_probed\": %zu,\n"
                 "  \"candidates_pruned\": %zu,\n"
                 "  \"probe_conflicts\": %zu,\n  \"backfilled\": %zu,\n",
                 probes.candidates_probed, probes.candidates_pruned,
                 probes.probe_conflicts, probes.backfilled);
    std::fprintf(out,
                 "  \"reduction\": %.4f,\n  \"reduction_gate\": %.2f,\n"
                 "  \"naive_unpruned_seconds\": %.6f,\n"
                 "  \"naive_pruned_seconds\": %.6f,\n"
                 "  \"naive_speedup\": %.3f,\n  \"speedup_gate\": %.1f,\n"
                 "  \"probe_seconds\": %.6f,\n",
                 reduction, kReductionGate, naive_off.seconds,
                 naive_on.seconds, naive_speedup, kSpeedupGate,
                 probes.probe_seconds);
    std::fprintf(out, "  \"bit_identical\": %s,\n  ",
                 bit_identical ? "true" : "false");
    bench::WriteThreadReportJson(out, bench::MakeThreadReport(1));
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_probe.json\n");
  }

  if (!bit_identical) return 1;
  if (reduction < kReductionGate) {
    std::fprintf(stderr,
                 "bench_probe_pruning: FAIL — only %.1f%% of candidates "
                 "pruned (gate: >= %.0f%%)\n",
                 reduction * 100, kReductionGate * 100);
    return 1;
  }
  if (naive_speedup < kSpeedupGate) {
    std::fprintf(stderr,
                 "bench_probe_pruning: FAIL — naive-rung pruning is only "
                 "x%.2f the unpruned run (gate: >= x%.1f)\n",
                 naive_speedup, kSpeedupGate);
    return 1;
  }
  return 0;
}
