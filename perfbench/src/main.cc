// AggChecker benchmark: runs one workload and prints its metrics.
//
//   perfbench --workload <article_check|table6_check|fleet|ingest_recheck>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]
//
// Prints a stamp line, one line per metric (name, value, unit, sample
// count) and, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics and writes the run's spans to
// <out-dir>/trace-<workload>-<seed>.json. Exits 1 when an output check
// fails and 2 on bad arguments or a build that cannot be timed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "pipeline.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunArgs;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args->seconds <= 0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  const bool known = args->workload == "article_check" ||
                     args->workload == "table6_check" ||
                     args->workload == "fleet" ||
                     args->workload == "ingest_recheck";
  return have_workload && known && argc % 2 == 1;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

void PrintStamp(const RunArgs& args) {
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  std::printf(
      "# stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": %s, \"source_digest\": %s, \"host\": %s, "
      "\"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"document_threads\": %zu, \"fleet_workers\": %zu, "
      "\"build_type\": %s, \"optimized\": %s, \"sanitized\": %s, "
      "\"compiler\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, JsonString(args.commit).c_str(),
      JsonString(args.source_digest).c_str(), JsonString(host).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      perfbench::kDocumentThreads,
      args.workload == "fleet" ? perfbench::kParallelThreads : size_t{0},
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      kOptimized ? "true" : "false", kSanitized ? "true" : "false",
      JsonString(__VERSION__).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <article_check|table6_check|"
                 "fleet|ingest_recheck> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--commit <id>] "
                 "[--source-digest <hex>]\n");
    return 2;
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a %s build "
                 "(build type '%s'); build with -DCMAKE_BUILD_TYPE=Release\n",
                 kSanitized ? "sanitizer" : "non-optimized",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  PrintStamp(args);
  Outcome out;
  if (args.workload == "fleet") {
    out = perfbench::RunFleetWorkload(args);
  } else if (args.workload == "ingest_recheck") {
    out = perfbench::RunIngestWorkload(args);
  } else {
    out = perfbench::RunCheckWorkload(args);
  }

  for (const std::string& error : out.errors) {
    std::printf("# error: %s\n", error.c_str());
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("# claims: attempted=%zu failed=%zu claims_failed_share=%.6g\n",
              out.attempted, out.failed,
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0);
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("# metric %-30s %.9g %s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i > 0 ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct() ? 0 : 1;
}
