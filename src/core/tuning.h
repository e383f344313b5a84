// TuningProfile: the database and system tuning knobs of section 4.5, as a
// single reproducible configuration object.
//
// Two presets bracket the paper's headline claim ("from more than 20 hours
// to less than 3 hours on the same hardware"):
//   * untuned_2004()  — the before-state: row-at-a-time inserts, low
//     parallelism, frequent commits, every index maintained, everything on
//     one RAID device, a large data cache, unsorted input.
//   * production()    — the after-state: bulk loading through the columnar
//     run path (batch 4000, array 4000; the paper's row-path settings,
//     batch 40 / array 1000, apply with columnar_ingest off), 5 parallel
//     loaders with dynamic assignment, infrequent commits, only the htmid
//     index maintained, data/index/log on separate devices, a reduced data
//     cache, presorted input.
#pragma once

#include <string>

#include "client/sim_server.h"
#include "core/bulk_loader.h"
#include "core/commit_policy.h"
#include "db/engine.h"

namespace sky::core {

struct TuningProfile {
  std::string name;

  // Loading strategy. batch_size and array_size are the row path's sizes
  // (the paper's Fig. 5/6 optimum); with columnar_ingest on, the columnar
  // sizes below replace them.
  bool bulk = true;
  int64_t batch_size = 40;
  int64_t array_size = 1000;
  int parallel_degree = 5;
  bool dynamic_assignment = true;
  // Columnar ingest hot path: vectorized block parse into arena-backed
  // column batches, one-latch extent appends, sorted-run index builds.
  // On in production: it loads byte-identical repositories several times
  // faster than the row path on real threads. The row path stays the
  // differential-testing oracle by explicit opt-out (columnar_ingest =
  // false), and so do the benches that reproduce the paper's row-path
  // figures.
  bool columnar_ingest = true;
  // Batch size when columnar_ingest is on. Column batches marshal linearly
  // (one array bind per column), so the quadratic-marshalling term that
  // pins the row path's optimum near 40 (Fig. 5) is absent: there is no
  // interior optimum, and sending each flushed array as a single call
  // amortizes the per-call overhead furthest. Kept equal to
  // columnar_array_rows for exactly that reason.
  int64_t columnar_batch_size = 4000;
  // Array capacity when columnar_ingest is on. Arena-backed column buffers
  // hold ~4x the rows of the row arrays in the same client memory (no
  // per-Value boxing: ~110 data bytes/row vs ~450), so the Fig. 6 memory
  // budget admits proportionally larger arrays before paging.
  int64_t columnar_array_rows = 4000;
  // Aggregate buffered-byte budget for the columnar array set (the
  // high-water flush trigger the paper lists as future work). Sized just
  // under the client array memory (Fig. 6) so the combined footprint of all
  // per-table column buffers — not just the largest one — stays resident:
  // the flush fires before the client starts paging, which per-array row
  // caps alone cannot guarantee on interleaved input.
  int64_t columnar_flush_high_water_bytes = 600 * 1024;
  // Commit cadence and durability shape (section 4.5.2), shared by the
  // loaders (cadence), the engine (group-commit window, durability mode)
  // and the sim server (log-device grouping model).
  CommitPolicy commit;

  // Index policy during the catch-up load (section 4.5.1).
  bool maintain_htmid_index = true;
  bool maintain_composite_index = false;

  // System layout and memory (sections 4.5.3, 4.5.5).
  storage::DeviceLayout device_layout =
      storage::DeviceLayout::separate_raids();
  int64_t server_cache_pages = 4096;

  // Input presort (section 4.5.4); consumed by the data generator.
  bool presorted_input = true;

  static TuningProfile production();
  static TuningProfile untuned_2004();

  // Apply the index policy to the repository's objects table.
  Status apply_index_policy(db::Engine& engine) const;

  // Engine construction options consistent with this profile.
  db::EngineOptions engine_options() const;
  // Sim server config consistent with this profile.
  client::ServerConfig server_config() const;
  // Loader options consistent with this profile.
  BulkLoaderOptions bulk_options() const;

  std::string describe() const;
};

}  // namespace sky::core
