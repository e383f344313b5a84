// perfbench: wall-clock benchmark of the repository's load path.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--git-sha SHA] [--scale X]
//
// Runs one workload (workloads.cpp) on real threads against one engine and
// prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when an output check fails, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common/log.h"
#include "core/tuning.h"
#include "workloads.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Unit of every metric the benchmark prints (BENCHMARK.json lists the same).
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> table = {
      {"setup_s", "s"},
      {"load_mb_s", "MB/s"},
      {"cone_p50_ms", "ms"},
      {"cone_p99_ms", "ms"},
      {"xmatch_s", "s"},
      {"recover_s", "s"},
      {"stored_bytes_per_byte", "B/B"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"},
      {"catalog.parse_ns_per_row", "ns"},
      {"core.lock_wait_share", "frac"},
      {"core.worker_imbalance", "ratio"},
      {"core.client_s", "s"},
      {"core.db_calls_per_krow", "count"},
      {"core.file_s_p50", "s"},
      {"client.batch_calls", "count"},
      {"client.batch_us_p50", "us"},
      {"client.batch_us_p99", "us"},
      {"client.batch_busy_s", "s"},
      {"client.failed_calls", "count"},
      {"client.commit_calls", "count"},
      {"client.commit_us_p99", "us"},
      {"client.commit_busy_s", "s"},
      {"client.lock_wait_s", "s"},
      {"client.txn_slot_wait_s", "s"},
      {"client.itl_wait_s", "s"},
      {"db.snapshot.rows_published", "count"},
      {"db.snapshot.chunks_published", "count"},
      {"db.heap_bytes_per_byte", "B/B"},
      {"db.query_scheduler.interactive_wait_us_p99", "us"},
      {"db.query_scheduler.batch_wait_s", "s"},
      {"db.query_scheduler.batch_yields", "count"},
      {"db.read_view.index_range_us_p50", "us"},
      {"db.read_view.index_range_us_p99", "us"},
      {"db.read_view.rows_examined_per_hit", "ratio"},
      {"db.spatial.zone_scan_rows", "count"},
      {"db.spatial.candidates_per_pair", "ratio"},
      {"db.spatial.zone_imbalance", "ratio"},
      {"db.recovery.replay_s", "s"},
      {"db.recovery.rows_per_s", "1/s"},
      {"htm.cone_cover_us_p50", "us"},
      {"htm.ranges_per_cone", "count"},
      {"storage.wal.bytes_per_byte", "B/B"},
      {"storage.wal.flushes_per_commit", "ratio"},
      {"storage.wal.piggyback_share", "frac"},
      {"storage.wal_file.write_s", "s"},
      {"storage.wal_file.read_s", "s"},
      {"bench.cone_gen_lag_p99_ms", "ms"},
      {"bench.trace_overhead_frac", "frac"},
  };
  return table;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--git-sha SHA] [--scale X]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sky::set_log_level(sky::LogLevel::kWarn);
  // Keep freed memory in the process, as a database server keeps its
  // memory between loads: no chunk is mmap'd and the heap is never trimmed,
  // so after the opening load a repetition reuses pages instead of faulting
  // in fresh ones. On a virtual machine that reports free pages to its host,
  // each fresh page costs a host fault whose price follows the other guests'
  // memory use; this setting cut page faults per run by ~5x and made the
  // repetitions' load times tighter. (glibc's default dynamic mmap threshold
  // is worse still: later repetitions ran up to 2x slower than the first.)
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage();
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) return usage();
  }
  perfbench::RunOptions options;
  options.workload = args["workload"];
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args["trace"] == "1";
  options.scale = args.count("scale") ? std::atof(args["scale"].c_str()) : 1.0;
  options.out_dir = args.count("out") ? args["out"] : ".bench_build/out";
  if (!perfbench::known_workload(options.workload) || options.seconds <= 0 ||
      options.scale <= 0 || (args["trace"] != "0" && args["trace"] != "1")) {
    return usage();
  }

  // Wall-clock numbers only: no modeled device sleeps anywhere.
  const sky::db::ModeledDeviceLatency latency =
      sky::core::TuningProfile::production().engine_options().latency;
  const bool no_modeled_latency =
      !latency.enabled() && latency.extent_append_write == 0;
  std::printf(
      "perfbench-meta: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"git_sha\": \"%s\", \"build_type\": \"%s\", \"trace\": %d, "
      "\"scale\": %g, \"modeled_latency_zero\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      std::thread::hardware_concurrency(),
      args.count("git-sha") ? args["git-sha"].c_str() : "unknown",
      PERFBENCH_BUILD_TYPE, options.trace ? 1 : 0, options.scale,
      no_modeled_latency ? "true" : "false");
  std::fflush(stdout);

  perfbench::RunResult result = perfbench::run_workload(options);
  if (!no_modeled_latency) {
    result.correct = false;
    result.check_failures.push_back("modeled device latency is zero");
  }
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    const auto unit = units().find(name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            (unit == units().end() ? "" : unit->second) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
