#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "catalog/generator.h"
#include "catalog/parser.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "common/rng.h"
#include "core/coordinator.h"
#include "core/tuning.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/query_scheduler.h"
#include "db/recovery.h"
#include "db/spatial.h"
#include "htm/htm.h"
#include "storage/wal_file.h"
#include "timing_session.h"
#include "trace.h"

namespace perfbench {

namespace {

using sky::Status;
namespace catalog = sky::catalog;
namespace client = sky::client;
namespace core = sky::core;
namespace db = sky::db;
namespace htm = sky::htm;

// Why each workload exists is recorded in README.md. Only the settings in
// this table differ between workloads; every engine and loader knob comes
// from core::TuningProfile::production().
struct WorkloadSpec {
  const char* name;
  int64_t night_bytes;       // input size of the night loaded each repetition
  double error_rate;         // generator-injected error share
  bool parallel_load;        // nproc - 1 loader threads, else one
  bool retain_wal;           // measured loads keep WAL records (load --wal)
  bool query_while_loading;  // preloaded night + cones + cross-matches
  int64_t preload_bytes;     // previous night loaded during set-up
};

constexpr WorkloadSpec kWorkloads[] = {
    {"night_ingest", 12'000'000, 0.0, true, false, false, 0},
    {"dirty_night_recover", 8'000'000, 0.01, false, true, false, 0},
    {"query_while_loading", 12'000'000, 0.0, false, false, true, 4'000'000},
};

constexpr int64_t kNightId = 1;
constexpr int64_t kPreloadNightId = 2;
// Repetitions per run: at least kMinReps, then as many as fit in --seconds.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 500;
// Open-loop interactive cone rate while loading, and the cone radius.
constexpr double kConeRatePerSecond = 300.0;
constexpr double kConeRadiusDeg = 0.02;
// Closed-loop cones and cross-match passes run after each load on the
// workloads that run no queries while loading.
constexpr int kProbeCones = 400;
constexpr int kProbeXmatchPasses = 1;
// Cones re-run per repetition and compared against a brute-force scan.
constexpr int kVerifiedCones = 4;
constexpr int kParsePasses = 3;

const WorkloadSpec* find_spec(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Share of samples dropped at each end by trimmed_mean.
constexpr double kTrimShare = 0.1;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(),
                        values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

// Mean of the middle samples, kTrimShare of them dropped at each end. The
// host's speed drifts in stretches of seconds, so a run's repetitions fall
// into a fast and a slow group; a median jumps between the two groups from
// run to run where the mean moves with their mix, and the trim keeps a
// single stall out.
double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::ptrdiff_t>(
      kTrimShare * static_cast<double>(values.size()));
  const auto first = values.begin() + drop;
  const auto last = values.end() - drop;
  double sum = 0;
  for (auto it = first; it != last; ++it) sum += *it;
  return sum / static_cast<double>(last - first);
}

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

// p99 of each block of kP99Block consecutive samples (ten beyond each
// block's p99; the last block takes the remainder), median over the blocks:
// a burst of host noise in one stretch of the run moves one block only.
constexpr size_t kP99Block = 1000;
double blocked_p99(const std::vector<double>& samples) {
  const size_t blocks = samples.size() / kP99Block;
  if (blocks < 2) return percentile(samples, 0.99);
  std::vector<double> p99s;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * kP99Block);
    const auto last = b + 1 == blocks ? samples.end() : first + kP99Block;
    p99s.push_back(percentile(std::vector<double>(first, last), 0.99));
  }
  return median(p99s);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds_of(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------- inputs

struct Night {
  std::vector<core::CatalogFile> files;
  std::map<std::string, int64_t> clean_rows;  // per table, all files
  int64_t data_lines = 0;
  int64_t bytes = 0;
};

Night generate_night(uint64_t seed, int64_t night_id, int64_t bytes,
                     double error_rate) {
  Night night;
  for (const catalog::FileSpec& spec : catalog::CatalogGenerator::
           observation_specs(seed, night_id, bytes, error_rate)) {
    catalog::GeneratedFile file = catalog::CatalogGenerator::generate(spec);
    night.data_lines += file.data_lines;
    for (const auto& [table, rows] : file.clean_rows_per_table) {
      night.clean_rows[table] += rows;
    }
    night.bytes += static_cast<int64_t>(file.text.size());
    night.files.push_back(core::CatalogFile{spec.name, std::move(file.text)});
  }
  return night;
}

bool same_text(const Night& a, const Night& b) {
  if (a.files.size() != b.files.size()) return false;
  for (size_t i = 0; i < a.files.size(); ++i) {
    if (a.files[i].name != b.files[i].name ||
        a.files[i].text != b.files[i].text) {
      return false;
    }
  }
  return true;
}

struct Position {
  double ra = 0;
  double dec = 0;
};

// Object positions read back from the generated text (OBJ|id|frame|ra|dec|
// ...); corrupted rows are left out.
std::vector<Position> object_positions(const Night& night) {
  std::vector<Position> out;
  for (const core::CatalogFile& file : night.files) {
    size_t pos = 0;
    while (pos < file.text.size()) {
      size_t end = file.text.find('\n', pos);
      if (end == std::string::npos) end = file.text.size();
      const std::string_view line(file.text.data() + pos, end - pos);
      pos = end + 1;
      if (line.rfind("OBJ|", 0) != 0) continue;
      std::vector<std::string_view> fields;
      size_t start = 0;
      while (fields.size() < 5) {
        const size_t bar = line.find('|', start);
        fields.push_back(line.substr(start, bar - start));
        if (bar == std::string_view::npos) break;
        start = bar + 1;
      }
      if (fields.size() < 5) continue;
      char* parse_end = nullptr;
      const std::string ra_text(fields[3]);
      const std::string dec_text(fields[4]);
      const double ra = std::strtod(ra_text.c_str(), &parse_end);
      if (parse_end == ra_text.c_str()) continue;
      const double dec = std::strtod(dec_text.c_str(), &parse_end);
      if (parse_end == dec_text.c_str()) continue;
      if (!(ra >= 0 && ra < 360 && dec >= -90 && dec <= 90)) continue;
      out.push_back(Position{ra, dec});
    }
  }
  return out;
}

// ------------------------------------------------------------ repository

std::map<std::string, int64_t> table_rows(const db::Engine& engine) {
  std::map<std::string, int64_t> rows;
  const db::ReadView view = engine.live_view();
  for (uint32_t t = 0;
       t < static_cast<uint32_t>(engine.schema().table_count()); ++t) {
    rows[engine.schema().table(t).name] = view.row_count(t);
  }
  return rows;
}

// Loads the reference file the way skyloader_tool load does: serially,
// before the night, without an audit row.
Status load_reference(db::Engine& engine, const db::Schema& schema,
                      const core::TuningProfile& profile,
                      const std::string& text) {
  client::DirectSession session(engine);
  core::BulkLoaderOptions options = profile.bulk_options();
  options.write_audit_row = false;
  core::BulkLoader loader(session, schema, options);
  return loader.load_text("reference.cat", text).status();
}

// One night through LoadCoordinator::run_threads. With `tallies`, each
// loader's DirectSession is wrapped in a TimingSession writing to its slot.
sky::Result<core::ParallelLoadReport> load_night(
    db::Engine& engine, const db::Schema& schema,
    const core::TuningProfile& profile, const Night& night, int loaders,
    std::vector<CallTally>* tallies) {
  core::CoordinatorOptions options;
  options.parallel_degree = loaders;
  options.dynamic_assignment = profile.dynamic_assignment;
  options.loader = profile.bulk_options();
  std::unordered_map<std::string, int64_t> file_index;
  if (Tracer::enabled()) {
    for (size_t i = 0; i < night.files.size(); ++i) {
      file_index[night.files[i].name] = static_cast<int64_t>(i);
    }
    // The coordinator asks this hook about every file on the worker thread
    // that is about to load it: the file becomes that thread's request id.
    options.already_loaded = [&file_index](const std::string& name) {
      const auto it = file_index.find(name);
      Tracer::set_request(RequestId{RequestKind::kFile,
                                    it == file_index.end() ? -1 : it->second});
      return false;
    };
  }
  if (tallies != nullptr) {
    tallies->assign(static_cast<size_t>(loaders), CallTally{});
  }
  const Tracer::Scope span("core.run_threads");
  const uint64_t root = span.id();
  return core::LoadCoordinator::run_threads(
      night.files, schema,
      [&engine, tallies, root](int worker) -> std::unique_ptr<client::Session> {
        Tracer::set_thread_parent(root);
        auto direct = std::make_unique<client::DirectSession>(engine);
        if (tallies == nullptr) return direct;
        return std::make_unique<TimingSession>(
            std::move(direct), (*tallies)[static_cast<size_t>(worker)]);
      },
      options);
}

// ----------------------------------------------------------------- queries

// The PQ schema declares idx_htmid without IndexDef::htm, so
// spatial::resolve_spatial refuses `objects`; the spec is built by hand.
db::spatial::SpatialTableSpec objects_spec(const db::Engine& engine) {
  db::spatial::SpatialTableSpec spec;
  spec.table_id = engine.table_id("objects").value();
  spec.htm_index = std::string(catalog::kIndexHtmid);
  const db::TableDef& def = engine.schema().table(spec.table_id);
  spec.ra_column = def.column_index("ra");
  spec.dec_column = def.column_index("dec");
  spec.htm_depth = catalog::CatalogParser::kHtmDepth;
  return spec;
}

struct ConeResult {
  Status status;
  int64_t hits = 0;
  int64_t examined = 0;
  int64_t ranges = 0;
  std::vector<int64_t> ids;  // sorted object ids, when asked for
};

// A cone the way skyloader_tool cone runs one: cone_cover -> index_range
// per trixel range -> exact-distance filter.
ConeResult cone_on_view(const db::ReadView& view,
                        const db::spatial::SpatialTableSpec& spec,
                        Position at, bool keep_ids) {
  ConeResult out;
  const htm::Vec3 center = htm::radec_to_vector(at.ra, at.dec);
  std::vector<htm::IdRange> cover;
  {
    const Tracer::Scope span("htm.cone_cover");
    cover = htm::cone_cover(center, kConeRadiusDeg, spec.htm_depth);
  }
  out.ranges = static_cast<int64_t>(cover.size());
  const auto ra_col = static_cast<size_t>(spec.ra_column);
  const auto dec_col = static_cast<size_t>(spec.dec_column);
  for (const htm::IdRange& range : cover) {
    sky::Result<std::vector<db::Row>> rows = [&] {
      const Tracer::Scope span("db.read_view.index_range");
      return view.index_range(
          spec.table_id, spec.htm_index,
          {db::Value::i64(static_cast<int64_t>(range.first))},
          {db::Value::i64(static_cast<int64_t>(range.last))});
    }();
    if (!rows.is_ok()) {
      out.status = rows.status();
      return out;
    }
    out.examined += static_cast<int64_t>(rows->size());
    for (const db::Row& row : *rows) {
      if (htm::angular_distance_deg(
              center, htm::radec_to_vector(row[ra_col].as_f64(),
                                           row[dec_col].as_f64())) <=
          kConeRadiusDeg) {
        ++out.hits;
        if (keep_ids) out.ids.push_back(row[0].as_i64());
      }
    }
  }
  std::sort(out.ids.begin(), out.ids.end());
  return out;
}

std::vector<int64_t> brute_force_cone(const db::ReadView& view,
                                      const db::spatial::SpatialTableSpec& spec,
                                      Position at) {
  const htm::Vec3 center = htm::radec_to_vector(at.ra, at.dec);
  const auto ra_col = static_cast<size_t>(spec.ra_column);
  const auto dec_col = static_cast<size_t>(spec.dec_column);
  std::vector<int64_t> ids;
  for (const db::Row& row : view.scan_collect(
           spec.table_id, [&](const db::Row& candidate) {
             return htm::angular_distance_deg(
                        center,
                        htm::radec_to_vector(candidate[ra_col].as_f64(),
                                             candidate[dec_col].as_f64())) <=
                    kConeRadiusDeg;
           })) {
    ids.push_back(row[0].as_i64());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Query-side tallies of one run (cones, cross-matches, lane waits).
struct QueryTally {
  std::vector<double> cone_latency_ms;  // from each cone's due time
  std::vector<double> cone_lag_ms;      // how late the generator sent it
  std::vector<double> interactive_wait_us;
  int64_t cones = 0;
  int64_t cone_failures = 0;
  int64_t hits = 0;
  int64_t examined = 0;
  int64_t ranges = 0;
  std::vector<double> xmatch_s;
  std::vector<double> zone_scan_rows;
  std::vector<double> candidates_per_pair;
  std::vector<double> zone_imbalance;
  int64_t xmatch_passes = 0;
  int64_t xmatch_failures = 0;
  int64_t expected_pairs = -1;  // first pass's pair count
  int64_t pair_mismatches = 0;
  // One entry per QueryScheduler lifetime.
  std::vector<double> batch_wait_s;
  std::vector<double> batch_yields;
};

// Cone client. rate > 0: open loop at that rate until `stop`; each cone is
// timed from its due time. rate == 0: closed loop of `limit` cones.
void cone_client(db::QueryScheduler& scheduler,
                 const db::spatial::SpatialTableSpec& spec,
                 const std::vector<Position>& positions, uint64_t seed,
                 double rate, int limit, const std::atomic<bool>& stop,
                 QueryTally& tally) {
  if (positions.empty()) return;
  sky::Rng rng(seed);
  const int64_t interval =
      rate > 0 ? static_cast<int64_t>(1e9 / rate) : 0;
  const int64_t start = now_ns();
  for (int64_t i = 0;; ++i) {
    if (rate > 0 ? stop.load(std::memory_order_relaxed) : i >= limit) break;
    int64_t due = start + i * interval;
    if (rate > 0) {
      // Busy-wait: the client keeps its core, so a cone leaves on time. A
      // sleeping client measured how long the host took to wake its idle
      // virtual CPU (p99 2-13 ms from run to run), not the query path.
      while (now_ns() < due) std::this_thread::yield();
    } else {
      due = now_ns();
    }
    const int64_t sent = now_ns();
    const Position at = positions[static_cast<size_t>(rng.uniform_int(
        0, static_cast<int64_t>(positions.size()) - 1))];
    Tracer::set_request(RequestId{RequestKind::kCone, tally.cones});
    ConeResult result;
    sky::Nanos lane_wait = 0;
    {
      const Tracer::Scope span("bench.cone");
      db::Admission admission = [&] {
        const Tracer::Scope admit("db.query_scheduler.admit_interactive");
        return scheduler.admit(db::QueryLane::kInteractive);
      }();
      lane_wait = admission.queue_wait();
      result = cone_on_view(admission.view(), spec, at, /*keep_ids=*/false);
    }
    const int64_t done = now_ns();
    ++tally.cones;
    if (!result.status.is_ok()) {
      ++tally.cone_failures;
      continue;
    }
    tally.cone_latency_ms.push_back(static_cast<double>(done - due) / 1e6);
    tally.cone_lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    tally.interactive_wait_us.push_back(static_cast<double>(lane_wait) / 1e3);
    tally.hits += result.hits;
    tally.examined += result.examined;
    tally.ranges += result.ranges;
  }
}

// Self cross-match of the objects a pinned view holds, through the batch
// lane, fanned out over `workers` threads by the coordinator's task runner.
// Runs until `stop` (at least one pass), or `limit` passes when limit > 0.
void xmatch_client(db::QueryScheduler& scheduler, const db::ReadView& pinned,
                   const db::spatial::SpatialTableSpec& spec, int workers,
                   int limit, const std::atomic<bool>& stop,
                   QueryTally& tally) {
  db::spatial::XmatchOptions options;
  options.policy = pinned.engine().options().policies.spatial;
  options.policy.xmatch_workers = workers;
  options.fan_out = core::LoadCoordinator::task_runner();
  sky::db::OpCosts lane_costs;
  for (int pass = 0;; ++pass) {
    if (limit > 0 ? pass >= limit
                  : pass > 0 && stop.load(std::memory_order_relaxed)) {
      break;
    }
    Tracer::set_request(RequestId{RequestKind::kXmatch, tally.xmatch_passes});
    const int64_t start = now_ns();
    sky::Result<db::spatial::XmatchResult> result = [&] {
      const Tracer::Scope span("bench.xmatch");
      db::Admission admission = [&] {
        const Tracer::Scope admit("db.query_scheduler.admit_batch");
        return scheduler.admit(db::QueryLane::kBatch, &lane_costs);
      }();
      const Tracer::Scope match("db.spatial.xmatch");
      return db::spatial::xmatch(pinned, spec, pinned, spec, options);
    }();
    const int64_t elapsed = now_ns() - start;
    ++tally.xmatch_passes;
    if (!result.is_ok()) {
      ++tally.xmatch_failures;
      continue;
    }
    const db::spatial::XmatchReport& report = result->report;
    tally.xmatch_s.push_back(seconds_of(elapsed));
    tally.zone_scan_rows.push_back(
        static_cast<double>(report.costs.zone_scan_rows));
    tally.candidates_per_pair.push_back(
        ratio(static_cast<double>(report.costs.xmatch_candidates),
              static_cast<double>(report.pairs)));
    double max_zone = 0;
    double sum_zone = 0;
    for (const db::spatial::ZoneCost& zone : report.per_zone) {
      max_zone = std::max(max_zone, static_cast<double>(zone.candidates));
      sum_zone += static_cast<double>(zone.candidates);
    }
    tally.zone_imbalance.push_back(
        report.per_zone.empty()
            ? 0.0
            : ratio(max_zone,
                    sum_zone / static_cast<double>(report.per_zone.size())));
    if (tally.expected_pairs < 0) tally.expected_pairs = report.pairs;
    if (report.pairs != tally.expected_pairs) ++tally.pair_mismatches;
  }
  tally.batch_wait_s.push_back(seconds_of(lane_costs.query_lane_wait_ns));
}

// ------------------------------------------------------------------- runs

class Run {
 public:
  Run(const RunOptions& options, const WorkloadSpec& spec)
      : options_(options),
        spec_(spec),
        profile_(core::TuningProfile::production()),
        schema_(catalog::make_pq_schema()),
        nproc_(std::max(1, static_cast<int>(
                               std::thread::hardware_concurrency()))) {}

  RunResult execute();

 private:
  int64_t scaled(int64_t bytes) const {
    return std::max<int64_t>(
        28 * 4096, static_cast<int64_t>(static_cast<double>(bytes) *
                                        options_.scale));
  }
  // One core stays free in parallel loads: with every core loading, the
  // hypervisor's steal time on a 4-vCPU guest rose to 20-95% and the
  // load rate swung by a third from run to run.
  int loaders() const {
    return spec_.parallel_load ? std::max(1, nproc_ - 1) : 1;
  }
  std::string out_path(const std::string& name) const {
    return (std::filesystem::path(options_.out_dir) / name).string();
  }

  // The run's inputs, all from the seed.
  void generate(std::string& reference, Night& night, Night& preload) const;
  // Engine build, reference load and any preload (with generation, the
  // set-up time); nullptr after a failed check.
  std::unique_ptr<db::Engine> build_repository(bool retain_wal);
  void opening();
  void repetition(bool traced);
  void probe_queries(db::Engine& engine);
  void restart(const db::Engine& loaded, bool write_wal);
  void verify_cones(db::QueryScheduler& scheduler,
                    const db::spatial::SpatialTableSpec& spec,
                    uint64_t seed);
  void parse_pass();
  void record_layers(const core::ParallelLoadReport& report,
                     const std::vector<CallTally>& tallies,
                     const db::EngineStats& before,
                     const db::EngineStats& after);
  void merge_queries(const QueryTally& from);

  // Output check: counts as one attempted operation, failed when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }
  void add_rep_metric(const std::string& name, double value) {
    rep_metrics_[name].push_back(value);
  }
  std::vector<double> span_durations(const std::string& name,
                                     double unit_ns) const;

  const RunOptions& options_;
  const WorkloadSpec& spec_;
  const core::TuningProfile profile_;
  const db::Schema schema_;
  const int nproc_;

  // Inputs, generated once per run from the seed.
  std::string reference_;
  Night night_;
  Night preload_;
  std::vector<Position> cone_positions_;
  std::vector<std::string> file_names_;

  // The night loaded once by one undecorated DirectSession with WAL records
  // retained (as skyloader_tool load --wal does): the reference for the
  // decorator parity check and the restart source of workloads whose
  // measured loads keep no WAL records.
  std::unique_ptr<db::Engine> parity_;
  std::map<std::string, int64_t> parity_rows_;

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  int reps_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> stored_bytes_per_byte_;
  std::vector<double> traced_load_s_;
  std::vector<double> untraced_load_s_;
  std::vector<double> recover_s_;
  std::map<std::string, std::vector<double>> rep_metrics_;
  QueryTally queries_;
  std::vector<Span> spans_;
};

void Run::generate(std::string& reference, Night& night,
                   Night& preload) const {
  reference = catalog::CatalogGenerator::reference_file().text;
  night = generate_night(options_.seed, kNightId, scaled(spec_.night_bytes),
                         spec_.error_rate);
  if (spec_.query_while_loading) {
    preload = generate_night(options_.seed, kPreloadNightId,
                             scaled(spec_.preload_bytes), 0.0);
  }
}

std::unique_ptr<db::Engine> Run::build_repository(bool retain_wal) {
  db::EngineOptions engine_options = profile_.engine_options();
  engine_options.retain_wal_records = retain_wal;
  auto engine = std::make_unique<db::Engine>(schema_, engine_options);
  const Status policy = profile_.apply_index_policy(*engine);
  check(policy.is_ok(), "index policy: " + policy.to_string());
  const Status reference =
      load_reference(*engine, schema_, profile_, reference_);
  check(reference.is_ok(), "reference load: " + reference.to_string());
  if (!policy.is_ok() || !reference.is_ok()) return nullptr;
  if (spec_.query_while_loading) {
    const auto preload =
        load_night(*engine, schema_, profile_, preload_, nproc_, nullptr);
    check(preload.is_ok(), "preload: " + preload.status().to_string());
    if (!preload.is_ok()) return nullptr;
  }
  return engine;
}

void Run::opening() {
  parity_ = build_repository(/*retain_wal=*/true);
  if (parity_ == nullptr) return;
  const auto report =
      load_night(*parity_, schema_, profile_, night_, 1, nullptr);
  attempted_ += static_cast<int64_t>(night_.files.size());
  if (!report.is_ok()) {
    failed_ += static_cast<int64_t>(night_.files.size());
    failures_.push_back("parity load: " + report.status().to_string());
    parity_.reset();
    return;
  }
  const Status integrity = parity_->verify_integrity();
  check(integrity.is_ok(), "integrity audit: " + integrity.to_string());
  parity_rows_ = table_rows(*parity_);
}

void Run::repetition(bool traced) {
  // Set-up: generate the inputs again (the copy from the start of the run is
  // the one loaded) and build the repository.
  const int64_t setup_start = now_ns();
  {
    std::string reference;
    Night night;
    Night preload;
    generate(reference, night, preload);
    check(reference == reference_ && same_text(night, night_) &&
              same_text(preload, preload_),
          "the generator repeats its inputs for the seed");
  }
  const std::unique_ptr<db::Engine> built =
      build_repository(spec_.retain_wal);
  if (built == nullptr) return;
  db::Engine& engine = *built;
  // The preloaded night, pinned before the measured load starts.
  db::Snapshot pinned;
  if (spec_.query_while_loading) pinned = engine.pin_snapshot();
  setup_s_.push_back(seconds_of(now_ns() - setup_start));

  const db::EngineStats before = engine.stats();
  std::vector<CallTally> tallies;
  std::atomic<bool> load_done{false};
  std::unique_ptr<db::QueryScheduler> scheduler;
  const db::spatial::SpatialTableSpec spec = objects_spec(engine);
  std::vector<std::thread> clients;
  QueryTally cone_tally;
  QueryTally xmatch_tally;
  if (spec_.query_while_loading) {
    scheduler = std::make_unique<db::QueryScheduler>(engine);
    const uint64_t cone_seed =
        options_.seed * 1000 + static_cast<uint64_t>(reps_);
    clients.emplace_back([&, cone_seed] {
      cone_client(*scheduler, spec, cone_positions_, cone_seed,
                  kConeRatePerSecond, 0, load_done, cone_tally);
    });
    clients.emplace_back([&] {
      xmatch_client(*scheduler, engine.view_at(pinned), spec,
                    std::max(1, nproc_ - 2), 0, load_done, xmatch_tally);
    });
  }
  const auto report =
      load_night(engine, schema_, profile_, night_, loaders(), &tallies);
  load_done.store(true);
  for (std::thread& thread : clients) thread.join();

  attempted_ += static_cast<int64_t>(night_.files.size());
  if (!report.is_ok()) {
    failed_ += static_cast<int64_t>(night_.files.size());
    failures_.push_back("night load: " + report.status().to_string());
    return;
  }
  const db::EngineStats after = engine.stats();
  const double load_s = seconds_of(report->makespan);
  (traced ? traced_load_s_ : untraced_load_s_).push_back(load_s);
  stored_bytes_per_byte_.push_back(
      static_cast<double>(after.total_heap_bytes - before.total_heap_bytes +
                          after.wal.bytes_appended -
                          before.wal.bytes_appended) /
      static_cast<double>(night_.bytes));
  record_layers(*report, tallies, before, after);

  // ---- output checks
  const int64_t checks_start = now_ns();
  const Status integrity = engine.verify_integrity();
  check(integrity.is_ok(), "integrity audit: " + integrity.to_string());
  const std::map<std::string, int64_t> rows = table_rows(engine);
  check(rows == parity_rows_,
        "per-table rows are identical with and without the timing session");
  if (spec_.error_rate > 0) {
    int64_t accounted = 0;
    int64_t rejected = 0;
    for (const core::FileLoadReport& file : report->files) {
      accounted += file.rows_loaded + file.parse_errors +
                   file.rows_skipped_server;
      rejected += file.parse_errors + file.rows_skipped_server;
    }
    check(accounted == night_.data_lines,
          "every generated line is loaded or rejected exactly once");
    check(rejected > 0, "injected errors are rejected");
  } else {
    std::map<std::string, int64_t> expected =
        catalog::CatalogGenerator::reference_file().clean_rows_per_table;
    for (const Night* night : {&preload_, &night_}) {
      for (const auto& [table, count] : night->clean_rows) {
        expected[table] += count;
      }
      expected["load_audit"] += static_cast<int64_t>(night->files.size());
    }
    bool match = true;
    for (const auto& [table, count] : rows) {
      const auto it = expected.find(table);
      if (count != (it == expected.end() ? 0 : it->second)) match = false;
    }
    check(match, "per-table rows equal the generator's clean rows");
  }
  if (spec_.query_while_loading) {
    verify_cones(*scheduler, spec,
                 options_.seed * 7919 + static_cast<uint64_t>(reps_));
    xmatch_tally.batch_yields.push_back(
        static_cast<double>(scheduler->stats().batch_yields));
    check(xmatch_tally.expected_pairs >=
              engine.view_at(pinned).row_count(spec.table_id),
          "self cross-match pairs every pinned object with itself");
    merge_queries(cone_tally);
    merge_queries(xmatch_tally);
  }
  const int64_t checks_ns = now_ns() - checks_start;
  if (!spec_.query_while_loading) probe_queries(engine);

  // ---- simulated restart: of the measured load when it retained its WAL,
  // else of the opening load's WAL.
  if (spec_.retain_wal) {
    restart(engine, /*write_wal=*/true);
  } else if (parity_ != nullptr) {
    restart(*parity_, /*write_wal=*/reps_ == 0);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::fprintf(stderr,
               "rep %d%s: set-up %.3f s, load %.3f s (%.2f MB/s), checks "
               "%.3f s, recover %.3f s, peak rss %.1f MB\n",
               reps_, traced ? " (traced)" : "", setup_s_.back(), load_s,
               static_cast<double>(report->total_bytes) / 1e6 / load_s,
               seconds_of(checks_ns),
               recover_s_.empty() ? 0.0 : recover_s_.back(),
               static_cast<double>(usage.ru_maxrss) / 1024.0);
}

void Run::record_layers(const core::ParallelLoadReport& report,
                        const std::vector<CallTally>& tallies,
                        const db::EngineStats& before,
                        const db::EngineStats& after) {
  double busy = 0;
  double max_busy = 0;
  for (const sky::Nanos worker : report.worker_busy) {
    busy += seconds_of(worker);
    max_busy = std::max(max_busy, seconds_of(worker));
  }
  double lock_wait = 0;
  for (const sky::Nanos worker : report.worker_lock_wait) {
    lock_wait += seconds_of(worker);
  }
  CallTally total;
  for (const CallTally& tally : tallies) {
    total.batch_calls += tally.batch_calls;
    total.commit_calls += tally.commit_calls;
    total.failed_calls += tally.failed_calls;
    total.batch_ns += tally.batch_ns;
    total.single_ns += tally.single_ns;
    total.commit_ns += tally.commit_ns;
    total.prepare_ns += tally.prepare_ns;
  }
  int64_t db_calls = 0;
  int64_t rows_parsed = 0;
  std::vector<double> file_s;
  for (const core::FileLoadReport& file : report.files) {
    db_calls += file.db_calls;
    rows_parsed += file.rows_parsed;
    file_s.push_back(seconds_of(file.elapsed));
  }
  const double input_bytes = static_cast<double>(night_.bytes);
  const double workers = static_cast<double>(report.worker_busy.size());
  add_rep_metric("core.lock_wait_share", ratio(lock_wait, busy));
  add_rep_metric("core.worker_imbalance", ratio(max_busy, busy / workers));
  add_rep_metric("core.client_s", busy - seconds_of(total.call_ns()));
  add_rep_metric("core.db_calls_per_krow",
                 ratio(static_cast<double>(db_calls) * 1000.0,
                       static_cast<double>(rows_parsed)));
  add_rep_metric("core.file_s_p50", median(file_s));
  add_rep_metric("client.batch_calls", static_cast<double>(total.batch_calls));
  add_rep_metric("client.batch_busy_s", seconds_of(total.batch_ns));
  add_rep_metric("client.failed_calls",
                 static_cast<double>(total.failed_calls));
  add_rep_metric("client.commit_calls",
                 static_cast<double>(total.commit_calls));
  add_rep_metric("client.commit_busy_s", seconds_of(total.commit_ns));
  add_rep_metric("client.lock_wait_s", lock_wait);
  add_rep_metric("client.txn_slot_wait_s", seconds_of(report.txn_slot_wait));
  add_rep_metric("client.itl_wait_s", seconds_of(report.itl_wait));
  add_rep_metric("db.snapshot.rows_published",
                 static_cast<double>(after.snapshots.rows_published -
                                     before.snapshots.rows_published));
  add_rep_metric("db.snapshot.chunks_published",
                 static_cast<double>(after.snapshots.chunks_published -
                                     before.snapshots.chunks_published));
  add_rep_metric("db.heap_bytes_per_byte",
                 static_cast<double>(after.total_heap_bytes -
                                     before.total_heap_bytes) /
                     input_bytes);
  add_rep_metric("storage.wal.bytes_per_byte",
                 static_cast<double>(after.wal.bytes_appended -
                                     before.wal.bytes_appended) /
                     input_bytes);
  const double commits = static_cast<double>(after.wal.commit_requests -
                                             before.wal.commit_requests);
  add_rep_metric("storage.wal.flushes_per_commit",
                 ratio(static_cast<double>(after.wal.flushes -
                                           before.wal.flushes),
                       commits));
  add_rep_metric("storage.wal.piggyback_share",
                 ratio(static_cast<double>(after.wal.group_piggybacks -
                                           before.wal.group_piggybacks),
                       commits));
}

void Run::merge_queries(const QueryTally& from) {
  QueryTally& to = queries_;
  using Samples = std::vector<double> QueryTally::*;
  for (const Samples field :
       {&QueryTally::cone_latency_ms, &QueryTally::cone_lag_ms,
        &QueryTally::interactive_wait_us, &QueryTally::xmatch_s,
        &QueryTally::zone_scan_rows, &QueryTally::candidates_per_pair,
        &QueryTally::zone_imbalance, &QueryTally::batch_wait_s,
        &QueryTally::batch_yields}) {
    (to.*field).insert((to.*field).end(), (from.*field).begin(),
                       (from.*field).end());
  }
  to.cones += from.cones;
  to.cone_failures += from.cone_failures;
  to.hits += from.hits;
  to.examined += from.examined;
  to.ranges += from.ranges;
  to.xmatch_passes += from.xmatch_passes;
  to.xmatch_failures += from.xmatch_failures;
  to.pair_mismatches += from.pair_mismatches;
  if (from.expected_pairs >= 0) {
    if (to.expected_pairs < 0) to.expected_pairs = from.expected_pairs;
    if (from.expected_pairs != to.expected_pairs) ++to.pair_mismatches;
  }
}

// Closed-loop cones and a cross-match of the freshly loaded night.
void Run::probe_queries(db::Engine& engine) {
  db::QueryScheduler scheduler(engine);
  const db::spatial::SpatialTableSpec spec = objects_spec(engine);
  const db::Snapshot pinned = engine.pin_snapshot();
  const std::atomic<bool> never{false};
  QueryTally tally;
  cone_client(scheduler, spec, cone_positions_,
              options_.seed * 1000 + static_cast<uint64_t>(reps_), 0.0,
              kProbeCones, never, tally);
  xmatch_client(scheduler, engine.view_at(pinned), spec,
                std::max(1, nproc_ - 2), kProbeXmatchPasses, never, tally);
  tally.batch_yields.push_back(
      static_cast<double>(scheduler.stats().batch_yields));
  check(tally.expected_pairs >=
            engine.view_at(pinned).row_count(spec.table_id),
        "self cross-match pairs every object with itself");
  verify_cones(scheduler, spec,
               options_.seed * 7919 + static_cast<uint64_t>(reps_));
  merge_queries(tally);
}

void Run::verify_cones(db::QueryScheduler& scheduler,
                       const db::spatial::SpatialTableSpec& spec,
                       uint64_t seed) {
  if (cone_positions_.empty()) {
    check(false, "cone positions exist");
    return;
  }
  sky::Rng rng(seed);
  bool all_match = true;
  for (int i = 0; i < kVerifiedCones; ++i) {
    const Position at = cone_positions_[static_cast<size_t>(rng.uniform_int(
        0, static_cast<int64_t>(cone_positions_.size()) - 1))];
    const db::Admission admission =
        scheduler.admit(db::QueryLane::kInteractive);
    const ConeResult result =
        cone_on_view(admission.view(), spec, at, /*keep_ids=*/true);
    if (!result.status.is_ok() ||
        result.ids != brute_force_cone(admission.view(), spec, at)) {
      all_match = false;
    }
  }
  check(all_match, "sampled cones match a brute-force scan of their snapshot");
}

void Run::parse_pass() {
  const core::BulkLoaderOptions loader = profile_.bulk_options();
  std::vector<double> ns_per_row;
  for (int pass = 0; pass < kParsePasses; ++pass) {
    catalog::CatalogParser parser(schema_);
    catalog::ParsedBlock block;
    const int64_t start = now_ns();
    for (const core::CatalogFile& file : night_.files) {
      if (loader.columnar_ingest) {
        size_t pos = 0;
        while (pos <= file.text.size()) {
          parser.parse_block(file.text, pos,
                             static_cast<size_t>(loader.parse_block_rows),
                             block);
        }
      } else {
        size_t pos = 0;
        while (pos < file.text.size()) {
          size_t end = file.text.find('\n', pos);
          if (end == std::string::npos) end = file.text.size();
          const std::string_view line(file.text.data() + pos, end - pos);
          pos = end + 1;
          if (!catalog::CatalogParser::is_data_line(line)) continue;
          (void)parser.parse_line(line);
        }
      }
    }
    const int64_t elapsed = now_ns() - start;
    ns_per_row.push_back(ratio(static_cast<double>(elapsed),
                               static_cast<double>(parser.stats().lines)));
    check(parser.stats().lines == night_.data_lines,
          "parse-only pass sees every data line");
  }
  add_rep_metric("catalog.parse_ns_per_row", median(ns_per_row));
}

// Simulated restart: read the WAL file back and replay it into a fresh
// engine, which must equal `loaded`. With `write_wal`, `loaded`'s retained
// records are first written to the file.
void Run::restart(const db::Engine& loaded, bool write_wal) {
  const std::string path = out_path("restart-" + options_.workload + ".wal");
  if (write_wal) {
    const Status written = [&] {
      const Tracer::Scope span("storage.wal_file.write");
      return sky::storage::write_wal_file(path, loaded.wal_records());
    }();
    check(written.is_ok(), "WAL file written: " + written.to_string());
    if (!written.is_ok()) return;
  }
  ++attempted_;
  const int64_t start = now_ns();
  auto read = [&] {
    const Tracer::Scope span("storage.wal_file.read");
    return sky::storage::read_wal_file(path);
  }();
  if (!read.is_ok() || read->truncated) {
    ++failed_;
    failures_.push_back("WAL file reads back intact");
    return;
  }
  db::RecoveryStats stats;
  auto recovered = [&] {
    const Tracer::Scope span("db.recovery.recover_from_wal");
    return db::recover_from_wal(schema_, read->records,
                                profile_.engine_options(), &stats);
  }();
  const int64_t elapsed = now_ns() - start;
  if (!recovered.is_ok() ||
      !db::engines_equivalent(loaded, **recovered).is_ok()) {
    ++failed_;
    failures_.push_back("recovered engine equals the loaded one");
    return;
  }
  recover_s_.push_back(seconds_of(elapsed));
  add_rep_metric("db.recovery.rows_replayed",
                 static_cast<double>(stats.rows_replayed));
}

std::vector<double> Run::span_durations(const std::string& name,
                                        double unit_ns) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                    unit_ns);
    }
  }
  return out;
}

RunResult Run::execute() {
  std::filesystem::create_directories(options_.out_dir);
  generate(reference_, night_, preload_);
  cone_positions_ = object_positions(preload_);
  const std::vector<Position> night_positions = object_positions(night_);
  cone_positions_.insert(cone_positions_.end(), night_positions.begin(),
                         night_positions.end());
  for (const core::CatalogFile& file : night_.files) {
    file_names_.push_back(file.name);
  }

  Tracer::set_enabled(options_.trace);
  opening();
  if (options_.trace) parse_pass();
  Tracer::set_enabled(false);
  spans_ = Tracer::drain();

  const int64_t deadline =
      now_ns() + static_cast<int64_t>(options_.seconds * 1e9);
  // In a traced run every other repetition runs untraced, so the tracing
  // overhead is measured within the run.
  while (failed_ == 0 && parity_ != nullptr &&
         (reps_ < kMinReps || (now_ns() < deadline && reps_ < kMaxReps))) {
    const bool traced = options_.trace && reps_ % 2 == 0;
    Tracer::set_enabled(traced);
    repetition(traced);
    Tracer::set_enabled(false);
    if (traced) {
      const std::vector<Span> spans = Tracer::drain();
      spans_.insert(spans_.end(), spans.begin(), spans.end());
    }
    ++reps_;
  }
  std::error_code ignored;
  std::filesystem::remove(out_path("restart-" + options_.workload + ".wal"),
                          ignored);

  const QueryTally& q = queries_;
  check(q.cones > 0 && q.cone_failures == 0, "every cone succeeds");
  check(q.xmatch_passes > 0 && q.xmatch_failures == 0,
        "every cross-match succeeds");
  check(q.pair_mismatches == 0,
        "every cross-match pass returns the same pair count");
  check(!recover_s_.empty(), "the restart recovers");

  RunResult result;
  result.attempted = attempted_ + q.cones + q.xmatch_passes;
  result.failed = failed_ + q.cone_failures + q.xmatch_failures;
  result.correct = result.failed == 0;
  result.check_failures = failures_;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.end_to_end = {
      {"setup_s", median(setup_s_)},
      {"load_mb_s", ratio(static_cast<double>(night_.bytes) / 1e6,
                          trimmed_mean(untraced_load_s_))},
      {"cone_p50_ms", percentile(q.cone_latency_ms, 0.50)},
      {"cone_p99_ms", blocked_p99(q.cone_latency_ms)},
      {"xmatch_s", trimmed_mean(q.xmatch_s)},
      {"recover_s", trimmed_mean(recover_s_)},
      {"stored_bytes_per_byte", median(stored_bytes_per_byte_)},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
      {"ok_frac", 1.0 - ratio(static_cast<double>(result.failed),
                              static_cast<double>(result.attempted))},
  };

  std::map<std::string, double>& layer = result.per_layer;
  for (const auto& [name, values] : rep_metrics_) {
    if (name == "db.recovery.rows_replayed") continue;
    layer[name] = median(values);
  }
  std::vector<double> batch_us = span_durations("client.execute_batch", 1e3);
  const std::vector<double> column_us =
      span_durations("client.execute_column_batch", 1e3);
  batch_us.insert(batch_us.end(), column_us.begin(), column_us.end());
  layer["client.batch_us_p50"] = percentile(batch_us, 0.50);
  layer["client.batch_us_p99"] = percentile(batch_us, 0.99);
  layer["client.commit_us_p99"] =
      percentile(span_durations("client.commit", 1e3), 0.99);
  layer["db.query_scheduler.interactive_wait_us_p99"] =
      percentile(q.interactive_wait_us, 0.99);
  layer["db.query_scheduler.batch_wait_s"] = median(q.batch_wait_s);
  layer["db.query_scheduler.batch_yields"] = median(q.batch_yields);
  const std::vector<double> range_us =
      span_durations("db.read_view.index_range", 1e3);
  layer["db.read_view.index_range_us_p50"] = percentile(range_us, 0.50);
  layer["db.read_view.index_range_us_p99"] = percentile(range_us, 0.99);
  layer["db.read_view.rows_examined_per_hit"] =
      ratio(static_cast<double>(q.examined), static_cast<double>(q.hits));
  layer["db.spatial.zone_scan_rows"] = median(q.zone_scan_rows);
  layer["db.spatial.candidates_per_pair"] = median(q.candidates_per_pair);
  layer["db.spatial.zone_imbalance"] = median(q.zone_imbalance);
  const double replay_s =
      median(span_durations("db.recovery.recover_from_wal", 1e9));
  layer["db.recovery.replay_s"] = replay_s;
  layer["db.recovery.rows_per_s"] =
      ratio(median(rep_metrics_["db.recovery.rows_replayed"]), replay_s);
  layer["htm.cone_cover_us_p50"] =
      percentile(span_durations("htm.cone_cover", 1e3), 0.50);
  layer["htm.ranges_per_cone"] =
      ratio(static_cast<double>(q.ranges), static_cast<double>(q.cones));
  layer["storage.wal_file.write_s"] =
      median(span_durations("storage.wal_file.write", 1e9));
  layer["storage.wal_file.read_s"] =
      median(span_durations("storage.wal_file.read", 1e9));
  layer["bench.cone_gen_lag_p99_ms"] = percentile(q.cone_lag_ms, 0.99);
  layer["bench.trace_overhead_frac"] =
      untraced_load_s_.empty() || traced_load_s_.empty()
          ? 0.0
          : median(traced_load_s_) / median(untraced_load_s_) - 1.0;

  if (options_.trace) {
    const std::string path =
        out_path("trace-" + options_.workload + "-" +
                 std::to_string(options_.seed) + ".jsonl");
    if (!write_trace(path, spans_, file_names_)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  }
  std::fprintf(stderr,
               "%d repetitions, %lld cones, %lld cross-match passes, %zu "
               "restarts\n",
               reps_, static_cast<long long>(q.cones),
               static_cast<long long>(q.xmatch_passes), recover_s_.size());
  return result;
}

}  // namespace

bool known_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

RunResult run_workload(const RunOptions& options) {
  const WorkloadSpec* spec = find_spec(options.workload);
  if (spec == nullptr) {
    RunResult failed;
    failed.correct = false;
    return failed;
  }
  return Run(options, *spec).execute();
}

}  // namespace perfbench
