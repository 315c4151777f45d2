// article_check and table6_check: one closed-loop client checks the corpus
// one document after another. Each request is AggChecker::Create over the
// case's prebuilt catalog plus Check against a cleared relation cache, so
// every pass over the corpus does identical work. Also holds the corpus,
// options and end-to-end helpers the other workloads share.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet_scheduler.h"
#include "corpus/claim_text.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "db/relation_cache.h"
#include "pipeline.h"
#include "util/strings.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

std::vector<corpus::CorpusCase> GeneratedCorpus(
    uint64_t seed, size_t generated_cases, size_t row_scale,
    const std::function<void(corpus::CorpusCase*)>& each) {
  corpus::GeneratorOptions gen;
  gen.num_cases = generated_cases;
  gen.row_scale = row_scale;
  gen.seed = seed;
  std::vector<corpus::CorpusCase> cases = corpus::EmbeddedArticles();
  const size_t embedded = cases.size();
  if (each) {
    for (corpus::CorpusCase& c : cases) each(&c);
  }
  size_t skipped = 0;
  for (size_t i = 0; cases.size() < embedded + generated_cases; ++i) {
    corpus::CorpusCase c = corpus::GenerateCase(i, gen);
    // The generator can round a corrupted value into a year (1612 x 1.18
    // renders as "1900"); ClaimDetector skips years by design, so such a
    // case can never align with its ground truth. Its claims are not
    // checkable input, whatever the checker does.
    bool year_like = false;
    for (const corpus::GroundTruthClaim& truth : c.ground_truth) {
      year_like |= corpus::claim_text::RendersAsYear(truth.claimed_value);
    }
    if (year_like) {
      ++skipped;
      continue;
    }
    if (each) each(&c);
    cases.push_back(std::move(c));
  }
  if (skipped > 0) {
    std::printf("# input: skipped %zu generated case(s) with a year-like "
                "claimed value, generated as many more\n",
                skipped);
  }
  return cases;
}

core::CheckOptions Table6Options() {
  core::CheckOptions options;
  options.model.max_eval_per_claim = 800;
  options.model.lucene_hits = 30;
  options.model.num_threads = kDocumentThreads;
  return options;
}

std::vector<double> RepeatSetup(const std::function<double()>& setup) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < static_cast<size_t>(kMinSetupRepeats) ||
         total < kMinSetupSeconds) {
    const double s = setup();
    if (s < 0) break;
    seconds.push_back(s);
    total += s;
  }
  return seconds;
}

std::vector<double> FastestPass::Latencies() const {
  std::vector<double> latencies;
  for (double seconds : best_) {
    if (seconds != std::numeric_limits<double>::infinity()) {
      latencies.push_back(seconds);
    }
  }
  return latencies;
}

std::string FastestPass::Describe() const {
  if (pass_times_.empty()) return "no passes";
  return strings::Format(
      "pass seconds fastest %.3f, median %.3f, slowest %.3f",
      *std::min_element(pass_times_.begin(), pass_times_.end()),
      Median(pass_times_),
      *std::max_element(pass_times_.begin(), pass_times_.end()));
}

void EndToEnd::Emit(Outcome* out) const {
  out->Add("claims_per_s", claims_per_s, "claims/s", claims_per_s_samples);
  AddLatency(out, "doc_latency", doc_latency);
  // Only ingest_recheck has a refresh path (AppendRows, then ReCheck).
  if (!refresh_latency.empty()) {
    AddLatency(out, "refresh_latency", refresh_latency);
  }
  out->Add("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  // A quality figure, not a bounded metric: it is fixed by the seed's
  // corpus and ranged 0.50-0.74 over ten seeds, wider than any bound.
  std::printf("# quality detection_f1 %.6f over %zu claims\n", detection.F1(),
              detection.total_claims);
  const double attempted = static_cast<double>(out->attempted);
  const double failed_share =
      attempted > 0 ? static_cast<double>(out->failed) / attempted : 1.0;
  out->Add("claims_verified_share", 1.0 - failed_share, "ratio",
           out->attempted);
}

namespace {

/// Builds every case's fragment catalog; returns the wall time, or -1
/// when a catalog fails.
double BuildCatalogs(
    const std::vector<corpus::CorpusCase>& cases,
    const core::CheckOptions& options,
    std::vector<std::shared_ptr<const fragments::FragmentCatalog>>* catalogs,
    Outcome* out) {
  catalogs->clear();
  Timer timer;
  for (const corpus::CorpusCase& c : cases) {
    auto catalog = fragments::FragmentCatalog::Build(c.database,
                                                     options.catalog);
    if (!catalog.ok()) {
      out->Error(c.name + ": catalog: " + catalog.status().ToString());
      return -1;
    }
    catalogs->push_back(std::make_shared<const fragments::FragmentCatalog>(
        std::move(*catalog)));
  }
  return timer.ElapsedSeconds();
}

/// One request: Create over the prebuilt catalog + Check, timed apart.
struct Request {
  Result<core::CheckReport> report = Status::Internal("not run");
  double create_s = 0;
  double check_s = 0;
};

Request PlainRequest(const corpus::CorpusCase& c,
                     const core::CheckOptions& options) {
  Request r;
  c.database.relation_cache().Clear();
  Timer timer;
  auto checker = core::AggChecker::Create(&c.database, options);
  r.create_s = timer.ElapsedSeconds();
  if (!checker.ok()) {
    r.report = checker.status();
    return r;
  }
  timer.Reset();
  r.report = checker->Check(c.document);
  r.check_s = timer.ElapsedSeconds();
  return r;
}

Request StagedRequest(const corpus::CorpusCase& c,
                      const core::CheckOptions& options, Tracer* tracer,
                      int64_t doc_id) {
  Request r;
  c.database.relation_cache().Clear();
  ScopedSpan create_span(tracer, "core.create", -1, doc_id);
  auto checker = core::AggChecker::Create(&c.database, options);
  r.create_s = create_span.Close();
  if (!checker.ok()) {
    r.report = checker.status();
    return r;
  }
  r.report = StagedCheck(*checker, c.document, tracer, doc_id);
  r.check_s = r.report.ok() ? r.report->total_seconds : 0;
  return r;
}

}  // namespace

Outcome RunCheckWorkload(const RunArgs& args) {
  const bool table6 = args.workload == "table6_check";
  Outcome out;
  std::vector<corpus::CorpusCase> cases = GeneratedCorpus(
      args.seed, kGeneratedCases, table6 ? kTable6RowScale : 1);
  core::CheckOptions options = table6 ? Table6Options() : core::CheckOptions{};
  options.model.num_threads = kDocumentThreads;
  size_t claims = 0, rows = 0;
  for (const auto& c : cases) {
    claims += c.ground_truth.size();
    rows += c.database.TotalRows();
  }
  std::printf("# input: %zu documents, %zu claims, %zu rows\n", cases.size(),
              claims, rows);

  // Setup: every case's catalog, built as often as RepeatSetup asks.
  EndToEnd e2e;
  LayerReport layers;
  std::vector<std::shared_ptr<const fragments::FragmentCatalog>> catalogs;
  e2e.setup_seconds = RepeatSetup(
      [&] { return BuildCatalogs(cases, options, &catalogs, &out); });
  layers.catalog_build_s = Median(e2e.setup_seconds);
  if (!out.errors.empty()) return out;
  std::vector<core::CheckOptions> case_options(cases.size(), options);
  for (size_t i = 0; i < cases.size(); ++i) {
    case_options[i].prebuilt_catalog = catalogs[i];
    layers.fragments += CountFragments(*catalogs[i]);
  }

  // Timed passes. The first pass is audited; later passes must repeat its
  // verdicts exactly. Traced runs interleave each plain request with its
  // staged twin, alternating which goes first. A traced pass takes twice as
  // long, and its metrics are per pass, so a traced run makes one pass and
  // then only passes that should end within --seconds: a table6_check
  // pass takes about half a minute traced, and the refresh drill follows.
  Tracer tracer;
  std::vector<std::string> fingerprints(cases.size());
  FastestPass fastest(cases.size());
  double request_wall = 0;
  size_t passes = 0, pass_verified = 0;
  const size_t min_passes = args.trace ? 1 : kMinPasses;
  double last_pass_wall = 0;
  Timer wall;
  while (passes < min_passes ||
         wall.ElapsedSeconds() + (args.trace ? last_pass_wall : 0) <
             args.seconds) {
    Timer pass_wall;
    pass_verified = 0;
    double pass_seconds = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
      const corpus::CorpusCase& c = cases[i];
      const int64_t doc_id = static_cast<int64_t>(i);
      const bool staged_first = args.trace && (passes + i) % 2 == 1;
      Request staged;
      if (staged_first) {
        staged = StagedRequest(c, case_options[i], &tracer, doc_id);
      }
      Timer request_timer;
      Request plain = PlainRequest(c, case_options[i]);
      request_wall += request_timer.ElapsedSeconds();
      if (args.trace && !staged_first) {
        staged = StagedRequest(c, case_options[i], &tracer, doc_id);
      }

      out.attempted += c.ground_truth.size();
      if (!plain.report.ok()) {
        out.failed += c.ground_truth.size();
        out.Error(c.name + ": " + plain.report.status().ToString());
        continue;
      }
      const core::CheckReport& report = *plain.report;
      fastest.Request(i, plain.create_s + plain.check_s);
      pass_seconds += plain.create_s + plain.check_s;
      pass_verified += report.verdicts.size() - report.NumPartial();
      layers.create_s += plain.create_s;
      layers.check_s += plain.check_s;

      const std::string fingerprint = core::FleetVerdictFingerprint(report);
      if (passes == 0) {
        out.failed += AuditReport(c, c.database, report, &e2e.detection, &out);
        fingerprints[i] = fingerprint;
      } else if (fingerprint != fingerprints[i]) {
        out.failed += report.verdicts.size();
        out.Error(c.name + ": verdicts differ from the first pass");
      }
      if (args.trace) {
        if (!staged.report.ok()) {
          out.Error(c.name + ": staged: " + staged.report.status().ToString());
        } else if (core::FleetVerdictFingerprint(*staged.report) !=
                   fingerprint) {
          out.Error(c.name + ": staged pipeline verdicts differ from Check");
        } else {
          layers.AddReport(*staged.report);
        }
      }
    }
    fastest.EndPass(pass_seconds);
    last_pass_wall = pass_wall.ElapsedSeconds();
    ++passes;
  }
  std::printf("# timed: %zu passes over %zu documents in %.3f s (%s)\n",
              passes, cases.size(), wall.ElapsedSeconds(),
              fastest.Describe().c_str());
  // Throughput of a pass made at every document's fastest request.
  e2e.doc_latency = fastest.Latencies();
  double best_pass_s = 0;
  for (double seconds : e2e.doc_latency) best_pass_s += seconds;
  e2e.claims_per_s = static_cast<double>(pass_verified) / best_pass_s;
  e2e.claims_per_s_samples = passes;

  if (!args.trace) {
    // Determinism: the same verdicts from a multi-threaded checker.
    if (!table6) {
      core::CheckOptions parallel = options;
      parallel.model.num_threads = kParallelThreads;
      for (size_t i = 0; i < cases.size(); ++i) {
        parallel.prebuilt_catalog = catalogs[i];
        Request r = PlainRequest(cases[i], parallel);
        if (!r.report.ok() ||
            core::FleetVerdictFingerprint(*r.report) != fingerprints[i]) {
          out.Error(cases[i].name + ": verdicts differ at " +
                    std::to_string(kParallelThreads) + " threads");
        }
      }
    }
    e2e.Emit(&out);
    return out;
  }

  layers.check_passes = static_cast<double>(passes);
  layers.AddStageSpans(tracer);
  layers.service_s = (layers.create_s + layers.check_s) / layers.check_passes;
  layers.busy_share = (layers.create_s + layers.check_s) / request_wall;
  // The drill checks every document it covers twice. On table6_check it
  // covers the first 103 documents (ingest_recheck's corpus), which keeps a
  // traced run near one minute, and near two when the host runs slow.
  std::vector<DrillItem> drill;
  const size_t drill_cases =
      table6 ? cases.size() - (kGeneratedCases - kIngestCases) : cases.size();
  for (size_t i = 0; i < drill_cases; ++i) {
    drill.push_back({cases[i].name, &cases[i].database, catalogs[i],
                     {&cases[i].document}});
  }
  RefreshDrill(drill, options, args.out_dir, &tracer, &layers, &out);
  layers.detection_f1 = e2e.detection.F1();
  layers.Emit(&out);
  WriteTrace(tracer, args, &out);
  return out;
}

}  // namespace perfbench
