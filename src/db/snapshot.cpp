#include "db/snapshot.h"

#include <utility>

namespace sky::db {

// --------------------------------------------------------------- Snapshot

Snapshot::Snapshot(Snapshot&& other) noexcept
    : manager_(other.manager_),
      pin_id_(other.pin_id_),
      read_lsn_(other.read_lsn_),
      heads_(std::move(other.heads_)) {
  other.manager_ = nullptr;
  other.pin_id_ = 0;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    if (manager_ != nullptr) manager_->unpin(pin_id_);
    manager_ = other.manager_;
    pin_id_ = other.pin_id_;
    read_lsn_ = other.read_lsn_;
    heads_ = std::move(other.heads_);
    other.manager_ = nullptr;
    other.pin_id_ = 0;
  }
  return *this;
}

Snapshot::~Snapshot() {
  if (manager_ != nullptr) manager_->unpin(pin_id_);
}

// -------------------------------------------------------- SnapshotManager

SnapshotManager::SnapshotManager(size_t table_count) : heads_(table_count) {}

void SnapshotManager::publish(
    std::vector<std::pair<uint32_t, SnapshotChunk>> chunks) {
  const std::scoped_lock lock(mu_);
  for (auto& [table_id, chunk] : chunks) {
    if (table_id >= heads_.size() || chunk.rows.empty()) continue;
    ++chunks_published_;
    rows_published_ += static_cast<int64_t>(chunk.rows.size());
    auto node = std::make_shared<SnapshotNode>();
    node->prev = std::move(heads_[table_id]);
    node->rows_cumulative =
        (node->prev ? node->prev->rows_cumulative : 0) +
        static_cast<int64_t>(chunk.rows.size());
    node->chunk = std::move(chunk);
    heads_[table_id] = std::move(node);
  }
  published_lsn_.fetch_add(1, std::memory_order_release);
}

Snapshot SnapshotManager::pin() {
  Snapshot snap;
  snap.manager_ = this;
  const std::scoped_lock lock(mu_);
  snap.read_lsn_ = published_lsn_.load(std::memory_order_relaxed);
  snap.heads_ = heads_;
  ++pins_taken_;
  snap.pin_id_ = next_pin_id_++;
  pins_.emplace(snap.pin_id_, std::chrono::steady_clock::now());
  return snap;
}

void SnapshotManager::unpin(uint64_t pin_id) {
  const std::scoped_lock lock(mu_);
  pins_.erase(pin_id);
}

SnapshotStats SnapshotManager::stats() const {
  SnapshotStats stats;
  const std::scoped_lock lock(mu_);
  stats.published_lsn = published_lsn_.load(std::memory_order_relaxed);
  stats.chunks_published = chunks_published_;
  stats.rows_published = rows_published_;
  stats.pins_taken = pins_taken_;
  stats.active_pins = static_cast<int64_t>(pins_.size());
  if (!pins_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [id, taken] : pins_) {
      const Nanos age =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - taken)
              .count();
      if (age > stats.oldest_pin_age) stats.oldest_pin_age = age;
    }
  }
  return stats;
}

}  // namespace sky::db
