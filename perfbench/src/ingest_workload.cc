// ingest_recheck: the Table 6 corpus served from snapshots while data
// arrives. Input generation writes one snapshot per case. Setup loads them
// (LoadSnapshot + Create over the snapshot's catalog + SeedInterner), then
// one untimed priming Check per case gives each checker its prior report.
// Each timed round appends rows to the first table of a rotating case and
// ReChecks all documents; rounds come in whole sweeps over the cases.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet_scheduler.h"
#include "corpus/harness.h"
#include "db/relation_cache.h"
#include "pipeline.h"
#include "snapshot/snapshot.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Timed sweeps a run makes at least; see FastestPass.
constexpr size_t kMinSweeps = 2;

/// One case served from its snapshot.
struct Served {
  std::unique_ptr<snapshot::LoadedSnapshot> state;
  std::unique_ptr<core::AggChecker> checker;
};

/// Loads every snapshot and makes its checker ready. Returns false (with
/// errors in `out`) if any case fails.
bool LoadAll(const std::vector<std::string>& paths,
             const core::CheckOptions& options, std::vector<Served>* served,
             double* load_seconds, double* create_seconds, Outcome* out) {
  served->clear();
  for (size_t i = 0; i < paths.size(); ++i) {
    Timer load_timer;
    auto loaded = snapshot::LoadSnapshot(paths[i]);
    *load_seconds += load_timer.ElapsedSeconds();
    if (!loaded.ok()) {
      out->Error(paths[i] + ": " + loaded.status().ToString());
      return false;
    }
    Served s;
    s.state = std::make_unique<snapshot::LoadedSnapshot>(std::move(*loaded));
    core::CheckOptions opts = options;
    opts.prebuilt_catalog = s.state->catalog;
    Timer create_timer;
    auto checker = core::AggChecker::Create(&s.state->database, opts);
    if (!checker.ok()) {
      out->Error(paths[i] + ": " + checker.status().ToString());
      return false;
    }
    s.checker = std::make_unique<core::AggChecker>(std::move(*checker));
    Status seeded = s.state->SeedInterner(&s.checker->engine().interner());
    *create_seconds += create_timer.ElapsedSeconds();
    if (!seeded.ok()) {
      out->Error(paths[i] + ": " + seeded.ToString());
      return false;
    }
    served->push_back(std::move(s));
  }
  return true;
}

/// Builds the case's catalog, warms its interner with one Check, and
/// writes the snapshot the workload is served from.
Status WriteCaseSnapshot(const corpus::CorpusCase& c,
                         const core::CheckOptions& options,
                         const std::string& path, LayerReport* layers) {
  Timer build_timer;
  auto checker = core::AggChecker::Create(&c.database, options);
  layers->catalog_build_s += build_timer.ElapsedSeconds();
  if (!checker.ok()) return checker.status();
  layers->fragments += CountFragments(checker->catalog());
  auto report = checker->Check(c.document);
  if (!report.ok()) return report.status();
  snapshot::SnapshotStats written;
  Status saved =
      snapshot::WriteSnapshot(path, c.database, &checker->catalog(),
                              &checker->engine().interner(), &written);
  layers->snapshot_bytes += written.file_bytes;
  return saved;
}

}  // namespace

Outcome RunIngestWorkload(const RunArgs& args) {
  Outcome out;
  const core::CheckOptions options = Table6Options();
  LayerReport layers;
  EndToEnd e2e;

  // Input generation: one snapshot per case, written as soon as the case
  // exists; from then on its data lives only in the snapshot.
  std::vector<std::string> paths;
  size_t claims = 0, rows = 0;
  std::vector<corpus::CorpusCase> cases = GeneratedCorpus(
      args.seed, kIngestCases, kTable6RowScale,
      [&](corpus::CorpusCase* c) {
        claims += c->ground_truth.size();
        rows += c->database.TotalRows();
        paths.push_back(corpus::SnapshotPathForCase(
            args.out_dir, "ingest-" + std::to_string(paths.size())));
        Status saved = WriteCaseSnapshot(*c, options, paths.back(), &layers);
        if (!saved.ok()) out.Error(c->name + ": " + saved.ToString());
        c->database = db::Database();
      });
  if (!out.errors.empty()) return out;
  std::printf("# input: %zu documents, %zu claims, %zu rows, %.1f MB of "
              "snapshots\n",
              cases.size(), claims, rows,
              static_cast<double>(layers.snapshot_bytes) / (1024.0 * 1024.0));

  // Setup, as often as RepeatSetup asks; the last set of checkers serves
  // the rounds.
  std::vector<Served> served;
  Tracer tracer;
  double load_seconds = 0, create_seconds = 0;
  e2e.setup_seconds = RepeatSetup([&]() -> double {
    Timer timer;
    const bool ok = LoadAll(paths, options, &served, &load_seconds,
                            &create_seconds, &out);
    return ok ? timer.ElapsedSeconds() : -1;
  });
  if (!out.errors.empty()) return out;
  for (const std::string& path : paths) std::remove(path.c_str());
  const double setups = static_cast<double>(e2e.setup_seconds.size());
  layers.snapshot_load_s = load_seconds / setups;
  layers.create_s = create_seconds / setups;

  // Priming pass (untimed): the prior every ReCheck starts from, audited
  // against the generator's ground truth. Traced runs pair each priming
  // Check with its staged twin on a spare checker over the same state,
  // alternating which goes first; the twin's verdicts must be identical.
  Tracer* trace = args.trace ? &tracer : nullptr;
  std::vector<core::CheckReport> priors;
  for (size_t i = 0; i < cases.size(); ++i) {
    db::Database& data = served[i].state->database;
    std::string staged_fingerprint;
    auto run_staged = [&]() -> Status {
      core::CheckOptions opts = options;
      opts.prebuilt_catalog = served[i].checker->shared_catalog();
      auto twin = core::AggChecker::Create(&data, opts);
      if (!twin.ok()) return twin.status();
      Status seeded = served[i].state->SeedInterner(&twin->engine().interner());
      if (!seeded.ok()) return seeded;
      data.relation_cache().Clear();
      auto staged = StagedCheck(*twin, cases[i].document, &tracer,
                                static_cast<int64_t>(i));
      if (!staged.ok()) return staged.status();
      layers.AddReport(*staged);
      staged_fingerprint = core::FleetVerdictFingerprint(*staged);
      return Status::OK();
    };
    Status staged = Status::OK();
    if (args.trace && i % 2 == 0) staged = run_staged();
    data.relation_cache().Clear();
    Timer timer;
    auto report = served[i].checker->Check(cases[i].document);
    layers.check_s += timer.ElapsedSeconds();
    if (args.trace && i % 2 == 1) staged = run_staged();
    if (!report.ok() || !staged.ok()) {
      out.Error(cases[i].name + ": " +
                (report.ok() ? staged : report.status()).ToString());
      return out;
    }
    if (args.trace &&
        core::FleetVerdictFingerprint(*report) != staged_fingerprint) {
      out.Error(cases[i].name + ": staged pipeline verdicts differ from Check");
    }
    out.attempted += cases[i].ground_truth.size();
    out.failed += AuditReport(cases[i], data, *report, &e2e.detection, &out);
    priors.push_back(std::move(*report));
  }
  if (args.trace) {
    layers.check_passes = 1;
    layers.AddStageSpans(tracer);
  }

  // Timed rounds, in whole sweeps that append to every case once, so every
  // run refreshes the same mix of cases. A case's refresh latency is its
  // fastest round over the sweeps, and a document's latency its fastest
  // ReCheck over all rounds.
  const size_t n = cases.size();
  FastestPass by_target(n), by_doc(n);
  size_t rounds = 0, sweep_verified = 0;
  double round_wall = 0, sweep_seconds = 0;
  Timer wall;
  while (rounds < kMinSweeps * n || rounds % n != 0 ||
         wall.ElapsedSeconds() < args.seconds) {
    const size_t target = rounds % n;
    if (target == 0) sweep_verified = 0;
    db::Database& data = served[target].state->database;
    Timer round_timer;
    size_t round_verified = 0;
    ScopedSpan append_span(trace, "db.append", -1,
                           static_cast<int64_t>(target));
    Status appended =
        corpus::AppendSyntheticRows(&data, data.table(0).name(), kAppendRows);
    layers.append_s += append_span.Close();
    if (!appended.ok()) {
      out.Error(cases[target].name + ": append: " + appended.ToString());
      return out;
    }
    for (size_t i = 0; i < cases.size(); ++i) {
      const db::EvalStats before = served[i].checker->engine().stats();
      ScopedSpan recheck_span(trace, "core.recheck", -1,
                              static_cast<int64_t>(i));
      auto report = served[i].checker->ReCheck(cases[i].document, priors[i]);
      const double seconds = recheck_span.Close();
      out.attempted += cases[i].ground_truth.size();
      if (!report.ok()) {
        out.failed += cases[i].ground_truth.size();
        out.Error(cases[i].name + ": recheck: " + report.status().ToString());
        continue;
      }
      layers.recheck_s += seconds;
      layers.invalidations +=
          served[i].checker->engine().stats().cache_invalidations -
          before.cache_invalidations;
      layers.spliced += report->claims_spliced;
      layers.rechecked += report->claims_rechecked;
      by_doc.Request(i, seconds);
      const size_t partial = report->NumPartial();
      out.failed += partial;
      round_verified += report->verdicts.size() - partial;
      priors[i] = std::move(*report);
    }
    const double round_s = round_timer.ElapsedSeconds();
    round_wall += round_s;
    sweep_seconds += round_s;
    sweep_verified += round_verified;
    by_target.Request(target, round_s);
    if (++rounds % n == 0) {
      by_target.EndPass(sweep_seconds);
      by_doc.EndPass(sweep_seconds);
      sweep_seconds = 0;
    }
  }
  std::printf("# timed: %zu refresh rounds in %zu sweeps in %.3f s (%s)\n",
              rounds, by_target.passes(), wall.ElapsedSeconds(),
              by_target.Describe().c_str());
  // Claims per second of a sweep made at every case's fastest round.
  e2e.refresh_latency = by_target.Latencies();
  e2e.doc_latency = by_doc.Latencies();
  double best_sweep_s = 0;
  for (double seconds : e2e.refresh_latency) best_sweep_s += seconds;
  e2e.claims_per_s = static_cast<double>(sweep_verified) / best_sweep_s;
  e2e.claims_per_s_samples = by_target.passes();

  // After the last round: every ReCheck report must equal a from-scratch
  // Check of the mutated data and pass the independent audit.
  for (size_t i = 0; i < cases.size(); ++i) {
    const db::Database& data = served[i].state->database;
    data.relation_cache().Clear();
    core::CheckOptions opts = options;
    opts.prebuilt_catalog = served[i].checker->shared_catalog();
    auto fresh = core::AggChecker::Create(&data, opts);
    auto report = fresh.ok() ? fresh->Check(cases[i].document)
                             : Result<core::CheckReport>(fresh.status());
    if (!report.ok() || core::FleetVerdictFingerprint(*report) !=
                            core::FleetVerdictFingerprint(priors[i])) {
      out.Error(cases[i].name + ": ReCheck differs from a from-scratch Check");
    }
    out.attempted += cases[i].ground_truth.size();
    out.failed += AuditReport(cases[i], data, priors[i], nullptr, &out);
  }

  if (!args.trace) {
    e2e.Emit(&out);
    return out;
  }
  layers.refresh_passes = static_cast<double>(rounds);
  const double serving_s = layers.append_s + layers.recheck_s;
  layers.service_s = serving_s / layers.refresh_passes;
  layers.busy_share = serving_s / round_wall;
  layers.detection_f1 = e2e.detection.F1();
  layers.Emit(&out);
  WriteTrace(tracer, args, &out);
  return out;
}

}  // namespace perfbench
