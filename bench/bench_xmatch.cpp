// Zone cross-match parallel scaling: a >=1M x 1M synthetic cross-match
// through db::spatial::xmatch_arrays, with two measurements:
//
//   * simulated speedup — the canonical deterministic metric. One serial
//     run yields the per-zone work funnel (rows scanned through ra windows,
//     exact-distance tests, matched pairs); each zone is priced by the
//     CostModel's spatial rates (per_zone_scan_row / per_xmatch_candidate /
//     per_xmatch_pair) and zones are placed on W workers by least-loaded
//     (LPT) assignment, exactly how LoadCoordinator spreads files. The
//     W-worker makespan is the loaded worker's sum; speedup(W) =
//     makespan(1) / makespan(W). Deterministic, so CI gates on it.
//   * cpu speedup — wall-clock of the same match fanned out through
//     core::LoadCoordinator::task_runner() at 1 and 6 workers, median of
//     five passes each, with the summed thread CPU time beside it (a wall
//     speedup alone swings widely on a shared host), plus a
//     byte-identical-pairs determinism check of every pass against the
//     serial run. Reported, not gated (CI machines share cores).
//   * engine path — wall-clock and summed thread CPU time of
//     db::spatial::xmatch on a pinned view of a db::Engine holding the
//     smoke-size catalogs under an HTM index, at 1 and 6 workers, median
//     of five passes. Unlike the array runs it includes collecting the
//     positions from the heap. Reported, not gated.
//
// Emits BENCH_xmatch.json. `--smoke` runs a reduced catalog and exits
// non-zero if the simulated 6-worker speedup falls under 3x — the CI
// guard, mirroring the full-mode shape check on the ISSUE target.
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <vector>

#include "client/cost_model.h"
#include "common/rng.h"
#include "db/column_batch.h"
#include "db/engine.h"
#include "db/spatial.h"

namespace {

using namespace skybench;
namespace spatial = sky::db::spatial;

constexpr double kPi = 3.14159265358979323846;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// CPU time of every thread of this process so far: around a fan-out run it
// is the workers' summed CPU time (nothing else runs meanwhile).
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

constexpr int kPasses = 5;

struct PassTimes {
  double wall_s = 0;
  double cpu_s = 0;  // summed over the pass's threads
};

// kPasses calls of `pass`: the median wall time and the median summed
// thread CPU time.
template <typename Fn>
PassTimes median_of_passes(Fn&& pass) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (int i = 0; i < kPasses; ++i) {
    const double cpu_start = process_cpu_seconds();
    const auto start = std::chrono::steady_clock::now();
    pass();
    wall.push_back(seconds_since(start));
    cpu.push_back(process_cpu_seconds() - cpu_start);
  }
  std::sort(wall.begin(), wall.end());
  std::sort(cpu.begin(), cpu.end());
  return {wall[kPasses / 2], cpu[kPasses / 2]};
}

// Uniform sky plus seeded counterparts: every 8th B row sits within the
// match radius of an A row, so the pair count is a real signal.
void make_catalogs(size_t n, double radius_deg, std::vector<double>* a_ra,
                   std::vector<double>* a_dec, std::vector<double>* b_ra,
                   std::vector<double>* b_dec) {
  sky::Rng rng(0x5EAC47);
  a_ra->reserve(n);
  a_dec->reserve(n);
  b_ra->reserve(n);
  b_dec->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    a_ra->push_back(rng.uniform_range(0.0, 360.0));
    a_dec->push_back(std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 / kPi);
    if (i % 8 == 0) {
      const double offset = rng.uniform_range(-0.6, 0.6) * radius_deg;
      b_ra->push_back((*a_ra)[i]);
      b_dec->push_back(
          std::clamp((*a_dec)[i] + offset, -89.99, 89.99));
    } else {
      b_ra->push_back(rng.uniform_range(0.0, 360.0));
      b_dec->push_back(std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 /
                       kPi);
    }
  }
}

// Price one zone's funnel through the CostModel's spatial rates.
sky::Nanos zone_cost(const sky::client::CostModel& model,
                     const spatial::ZoneCost& zone) {
  return zone.scanned * model.per_zone_scan_row +
         zone.candidates * model.per_xmatch_candidate +
         zone.pairs * model.per_xmatch_pair;
}

// Least-loaded (LPT) placement of the priced zones on `workers` workers;
// returns the makespan (the loaded worker's total).
sky::Nanos makespan(const std::vector<sky::Nanos>& costs, int workers) {
  std::vector<sky::Nanos> sorted = costs;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<sky::Nanos> load(static_cast<size_t>(workers), 0);
  for (const sky::Nanos cost : sorted) {
    *std::min_element(load.begin(), load.end()) += cost;
  }
  return *std::max_element(load.begin(), load.end());
}

struct TimedRun {
  double seconds = 0;
  spatial::XmatchResult result;
};

TimedRun run_xmatch(const std::vector<double>& a_ra,
                    const std::vector<double>& a_dec,
                    const std::vector<double>& b_ra,
                    const std::vector<double>& b_dec,
                    const spatial::XmatchOptions& options) {
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  run.result = spatial::xmatch_arrays(a_ra, a_dec, b_ra, b_dec, options);
  run.seconds = seconds_since(start);
  return run;
}

bool same_pairs(const spatial::XmatchResult& a,
                const spatial::XmatchResult& b) {
  if (a.pairs.size() != b.pairs.size()) return false;
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].a != b.pairs[i].a || a.pairs[i].b != b.pairs[i].b) {
      return false;
    }
  }
  return true;
}

// The engine-path line: both catalogs loaded into one db::Engine (tables
// cat_a / cat_b with an HTM index), then spatial::xmatch timed on a pinned
// view at 1 and 6 workers — median of five passes each, wall and summed
// thread CPU time.
struct EngineRun {
  size_t rows = 0;
  int64_t pairs = 0;
  PassTimes one;
  PassTimes six;
};

EngineRun run_engine_xmatch(const std::vector<double>& a_ra,
                            const std::vector<double>& a_dec,
                            const std::vector<double>& b_ra,
                            const std::vector<double>& b_dec,
                            double radius_deg) {
  namespace db = sky::db;
  db::Schema schema;
  for (const char* name : {"cat_a", "cat_b"}) {
    db::TableDef table;
    table.name = name;
    table.col("pk", db::ColumnType::kInt64, false);
    table.col("ra", db::ColumnType::kDouble, false);
    table.col("dec", db::ColumnType::kDouble, false);
    table.primary_key = {"pk"};
    table.indexes.push_back(db::IndexDef{
        "ix_htm", {}, false,
        db::HtmIndexSpec{"ra", "dec", sky::core::SpatialPolicy{}.htm_depth}});
    if (!schema.add_table(table).is_ok()) std::abort();
  }
  db::Engine engine(schema);
  const auto load = [&](uint32_t table, const std::vector<double>& ra,
                        const std::vector<double>& dec) {
    db::ColumnBatch batch(schema.table(table));
    batch.reserve(ra.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      batch.push_i64(0, static_cast<int64_t>(i));
      batch.push_f64(1, ra[i]);
      batch.push_f64(2, dec[i]);
    }
    const uint64_t txn = engine.begin_transaction();
    const db::BatchResult result =
        engine.insert_column_batch(txn, table, batch);
    if (result.error.has_value() || !engine.commit(txn).is_ok()) std::abort();
  };
  load(0, a_ra, a_dec);
  load(1, b_ra, b_dec);

  const db::Snapshot snap = engine.pin_snapshot();
  const db::ReadView view = engine.view_at(snap);
  const auto spec_a = spatial::resolve_spatial(engine, 0);
  const auto spec_b = spatial::resolve_spatial(engine, 1);
  if (!spec_a.is_ok() || !spec_b.is_ok()) std::abort();
  spatial::XmatchOptions options;
  options.radius_deg = radius_deg;
  options.fan_out = sky::core::LoadCoordinator::task_runner();

  EngineRun run;
  run.rows = a_ra.size();
  const auto run_at = [&](int workers) {
    options.policy.xmatch_workers = workers;
    return median_of_passes([&] {
      const auto result =
          spatial::xmatch(view, *spec_a, view, *spec_b, options);
      if (!result.is_ok()) std::abort();
      run.pairs = result->report.pairs;
    });
  };
  run.one = run_at(1);
  run.six = run_at(6);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const size_t rows = smoke ? 120'000 : 1'000'000;
  const double radius_deg = 1.5 / 3600.0;  // 1.5 arcsec

  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  make_catalogs(rows, radius_deg, &a_ra, &a_dec, &b_ra, &b_dec);

  spatial::XmatchOptions options;
  options.radius_deg = radius_deg;

  // Serial reference: the per-zone funnel for the simulated model and the
  // determinism baseline for the threaded runs.
  const TimedRun serial = run_xmatch(a_ra, a_dec, b_ra, b_dec, options);
  const spatial::XmatchReport& report = serial.result.report;

  const sky::client::CostModel model = sky::client::paper_calibrated_costs();
  std::vector<sky::Nanos> costs;
  costs.reserve(report.per_zone.size());
  sky::Nanos total_cost = 0;
  for (const spatial::ZoneCost& zone : report.per_zone) {
    costs.push_back(zone_cost(model, zone));
    total_cost += costs.back();
  }

  const std::vector<int> worker_counts = {1, 2, 4, 6, 8, 12};
  const sky::Nanos serial_makespan = makespan(costs, 1);
  FigureTable table("Zone xmatch parallel scaling",
                    "workers", "simulated speedup over 1 worker");
  std::vector<double> speedups;
  for (const int w : worker_counts) {
    const sky::Nanos span = makespan(costs, w);
    const double speedup =
        span > 0 ? static_cast<double>(serial_makespan) /
                       static_cast<double>(span)
                 : 0;
    speedups.push_back(speedup);
    table.add("sim", w, speedup);
  }
  const double sim_speedup_6 = speedups[3];

  // Real threads through the coordinator's task runner: 1 and 6 workers,
  // kPasses each, every pair list checked byte-identical against the
  // serial run.
  spatial::XmatchOptions threaded = options;
  threaded.fan_out = sky::core::LoadCoordinator::task_runner();
  std::vector<spatial::XmatchResult> threaded_results;
  const auto run_at = [&](int workers) {
    threaded.policy.xmatch_workers = workers;
    return median_of_passes([&] {
      threaded_results.push_back(
          spatial::xmatch_arrays(a_ra, a_dec, b_ra, b_dec, threaded));
    });
  };
  const PassTimes one = run_at(1);
  const PassTimes six = run_at(6);
  const bool deterministic = std::all_of(
      threaded_results.begin(), threaded_results.end(),
      [&](const spatial::XmatchResult& result) {
        return same_pairs(result, serial.result);
      });
  const double cpu_speedup = six.wall_s > 0 ? one.wall_s / six.wall_s : 0;

  // The engine line always uses the smoke-size catalogs.
  std::vector<double> ea_ra, ea_dec, eb_ra, eb_dec;
  make_catalogs(120'000, radius_deg, &ea_ra, &ea_dec, &eb_ra, &eb_dec);
  const EngineRun engine =
      run_engine_xmatch(ea_ra, ea_dec, eb_ra, eb_dec, radius_deg);

  std::printf("\n=== Zone cross-match (%s, %lld x %lld rows, r=%.2f\") ===\n",
              smoke ? "smoke" : "full", static_cast<long long>(rows),
              static_cast<long long>(rows), radius_deg * 3600.0);
  std::printf("zones: %lld occupied of %lld (height %.2f deg), pairs: %lld\n",
              static_cast<long long>(report.zones_occupied),
              static_cast<long long>(report.zones_total),
              report.zone_height_deg,
              static_cast<long long>(report.pairs));
  std::printf("funnel: %lld scanned -> %lld tested -> %lld matched\n",
              static_cast<long long>(report.costs.zone_scan_rows),
              static_cast<long long>(report.costs.xmatch_candidates),
              static_cast<long long>(report.costs.xmatch_pairs));
  std::printf("simulated zone work: %.3f s serial\n",
              static_cast<double>(total_cost) / 1e9);
  table.print();
  std::printf("\ncpu wall-clock (median of %d): serial %.3f s, 1 worker "
              "%.3f s (thread cpu %.3f s), 6 workers %.3f s (thread cpu "
              "%.3f s) (%.2fx), deterministic: %s\n",
              kPasses, serial.seconds, one.wall_s, one.cpu_s, six.wall_s,
              six.cpu_s, cpu_speedup, deterministic ? "yes" : "NO");
  std::printf("engine xmatch (wall, %lld x %lld rows on a pinned view, "
              "collect included, median of %d): 1 worker %.4f s (thread "
              "cpu %.4f s), 6 workers %.4f s (thread cpu %.4f s), "
              "pairs: %lld\n",
              static_cast<long long>(engine.rows),
              static_cast<long long>(engine.rows), kPasses,
              engine.one.wall_s, engine.one.cpu_s, engine.six.wall_s,
              engine.six.cpu_s,
              static_cast<long long>(engine.pairs));

  {
    std::ofstream json("BENCH_xmatch.json");
    char buffer[2048];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n  \"mode\": \"%s\",\n  \"rows\": %lld,\n"
                  "  \"radius_arcsec\": %.3f,\n"
                  "  \"zones_occupied\": %lld,\n  \"pairs\": %lld,\n"
                  "  \"zone_scan_rows\": %lld,\n"
                  "  \"xmatch_candidates\": %lld,\n"
                  "  \"cpu_serial_s\": %.3f,\n  \"cpu_1w_s\": %.3f,\n"
                  "  \"cpu_6w_s\": %.3f,\n  \"cpu_speedup_6w\": %.3f,\n"
                  "  \"deterministic\": %s,\n"
                  "  \"engine_rows\": %lld,\n  \"engine_pairs\": %lld,\n"
                  "  \"engine_wall_1w_s\": %.4f,\n"
                  "  \"engine_wall_6w_s\": %.4f,\n"
                  "  \"thread_cpu_1w_s\": %.3f,\n"
                  "  \"thread_cpu_6w_s\": %.3f,\n"
                  "  \"engine_thread_cpu_1w_s\": %.4f,\n"
                  "  \"engine_thread_cpu_6w_s\": %.4f,\n"
                  "  \"metric_modes\": {\"sim_speedup\": \"sim\", "
                  "\"cpu_serial_s\": \"wall\", \"cpu_1w_s\": \"wall\", "
                  "\"cpu_6w_s\": \"wall\", \"cpu_speedup_6w\": \"wall\", "
                  "\"engine_wall_1w_s\": \"wall\", "
                  "\"engine_wall_6w_s\": \"wall\", "
                  "\"thread_cpu_1w_s\": \"cpu\", "
                  "\"thread_cpu_6w_s\": \"cpu\", "
                  "\"engine_thread_cpu_1w_s\": \"cpu\", "
                  "\"engine_thread_cpu_6w_s\": \"cpu\"},\n"
                  "  \"sim_speedup\": {",
                  smoke ? "smoke" : "full", static_cast<long long>(rows),
                  radius_deg * 3600.0,
                  static_cast<long long>(report.zones_occupied),
                  static_cast<long long>(report.pairs),
                  static_cast<long long>(report.costs.zone_scan_rows),
                  static_cast<long long>(report.costs.xmatch_candidates),
                  serial.seconds, one.wall_s, six.wall_s, cpu_speedup,
                  deterministic ? "true" : "false",
                  static_cast<long long>(engine.rows),
                  static_cast<long long>(engine.pairs), engine.one.wall_s,
                  engine.six.wall_s, one.cpu_s, six.cpu_s, engine.one.cpu_s,
                  engine.six.cpu_s);
    json << buffer;
    for (size_t i = 0; i < worker_counts.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer), "%s\n    \"%d\": %.3f",
                    i > 0 ? "," : "", worker_counts[i], speedups[i]);
      json << buffer;
    }
    json << "\n  }\n}\n";
  }
  std::printf("\nwrote BENCH_xmatch.json\n");

  if (!deterministic) {
    std::printf("XMATCH-GUARD FAIL: parallel pair list diverged from the "
                "serial run\n");
    return 1;
  }
  if (smoke) {
    const bool ok = sim_speedup_6 >= 3.0;
    std::printf("XMATCH-GUARD %s: simulated 6-worker speedup %.2fx "
                "(need >=3x)\n",
                ok ? "PASS" : "FAIL", sim_speedup_6);
    return ok ? 0 : 1;
  }
  shape_check(sim_speedup_6 >= 3.0,
              "zone xmatch >=3x simulated speedup at 6 workers on the "
              "1M x 1M match");
  shape_check(speedups.back() > sim_speedup_6,
              "scaling continues past 6 workers (zones outnumber workers)");
  return 0;
}
