#ifndef PROST_COLUMNAR_BUFFER_POOL_H_
#define PROST_COLUMNAR_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "columnar/paged_table.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace prost::columnar {

class BufferPool;

/// A budget no footprint reaches: pages stay resident once decoded and
/// nothing is ever evicted.
inline constexpr uint64_t kUnboundedBudget = ~uint64_t{0};

/// Internal page-frame state; defined in buffer_pool.cc. Everything
/// outside src/columnar/ goes through PinnedPage (tools/lint.py
/// `buffer-pool-internals` enforces this fence).
struct PageFrame;

/// Identity of one cached page: a decoded column chunk of one row group.
struct PageKey {
  const PagedTable* table = nullptr;
  uint32_t group = 0;
  uint32_t column = 0;

  bool operator==(const PageKey& other) const = default;
};

struct PageKeyHash {
  size_t operator()(const PageKey& key) const {
    uint64_t h = Mix64(reinterpret_cast<uintptr_t>(key.table));
    return static_cast<size_t>(HashCombine(
        h, (uint64_t{key.group} << 32) | key.column));
  }
};

/// Move-only handle to a pinned page. While a PinnedPage is live its
/// column cannot be evicted, so the reference stays valid across the
/// caller's scan of the chunk — including on pool worker threads during
/// morsel-parallel scans. Destroying (or moving from) the handle unpins.
class PinnedPage {
 public:
  PinnedPage() = default;
  ~PinnedPage() { Release(); }
  PinnedPage(PinnedPage&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_) {
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  PinnedPage& operator=(PinnedPage&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      other.pool_ = nullptr;
      other.frame_ = nullptr;
    }
    return *this;
  }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  /// The decoded column chunk. Valid for the lifetime of this handle.
  const Column& column() const;

 private:
  friend class BufferPool;
  PinnedPage(BufferPool* pool, PageFrame* frame)
      : pool_(pool), frame_(frame) {}
  /// Inline, so that resetting or destroying an empty handle costs no call.
  void Release() {
    if (pool_ != nullptr && frame_ != nullptr) Unpin();
  }
  void Unpin();

  BufferPool* pool_ = nullptr;
  PageFrame* frame_ = nullptr;
};

/// A byte-budgeted cache of decoded column chunks with LRU eviction —
/// the beyond-RAM execution engine's only path from encoded row groups
/// to decoded columns. Pin() returns a handle that keeps the chunk
/// resident; unpinned chunks are evicted least-recently-used once the
/// decoded footprint exceeds the budget (the budget is a soft cap: it
/// can be exceeded transiently while everything resident is pinned).
///
/// Thread-safe: scan workers Pin/unpin concurrently from parallel
/// regions. The pool mutex (LockRank::kBufferPool) is never held across
/// a decode — a miss marks the frame "loading", drops the lock, decodes,
/// then finalizes, and concurrent pins of the same page wait on a
/// condition variable instead of decoding twice.
///
/// The pool also owns the `storage.*` metrics (registered in `metrics`,
/// or in an internal registry when none is given): pages_pinned,
/// page_misses, evictions, row_groups_skipped_zonemap,
/// partitions_skipped_bloom, bytes_scanned. Scan layers report their
/// pruning decisions through the Note*() methods so the /metrics
/// endpoint sees one coherent storage surface.
class BufferPool {
 public:
  explicit BufferPool(uint64_t budget_bytes,
                      obs::MetricsRegistry* metrics = nullptr);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the decoded chunk (group, column) of `table`, decoding on miss.
  /// `table` must outlive the pool's last reference to it.
  Result<PinnedPage> Pin(const PagedTable& table, uint32_t group,
                         uint32_t column);

  uint64_t budget_bytes() const { return budget_bytes_; }

  struct Stats {
    uint64_t resident_bytes = 0;
    uint64_t resident_pages = 0;
    uint64_t pinned_pages = 0;
  };
  Stats GetStats() const;

  /// Pruning/byte accounting from the scan layers (rolled into the
  /// storage.* counters; byte amounts are in the cost model's lexical
  /// domain so they line up with ChargeScan).
  void NoteRowGroupsSkipped(uint64_t n);
  void NotePartitionsSkipped(uint64_t n);
  void NoteBytesScanned(uint64_t bytes);

 private:
  friend class PinnedPage;

  void Unpin(PageFrame* frame);
  /// Evicts unpinned frames, least-recently-used first, until the
  /// resident footprint fits the budget (or nothing evictable remains).
  void EvictToBudgetLocked() PROST_REQUIRES(mu_);

  const uint64_t budget_bytes_;
  /// Fallback registry when the caller does not supply one.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  // Lock-free counter handles (see obs::Counter): safe to bump while
  // holding mu_ or no lock at all, so pool paths never touch the
  // registry mutex.
  obs::Counter& pages_pinned_;
  obs::Counter& page_misses_;
  obs::Counter& evictions_;
  obs::Counter& row_groups_skipped_;
  obs::Counter& partitions_skipped_;
  obs::Counter& bytes_scanned_;

  mutable Mutex<LockRank::kBufferPool> mu_;
  CondVar loaded_cv_;
  std::unordered_map<PageKey, std::unique_ptr<PageFrame>, PageKeyHash>
      frames_ PROST_GUARDED_BY(mu_);
  uint64_t resident_bytes_ PROST_GUARDED_BY(mu_) = 0;
  uint64_t lru_tick_ PROST_GUARDED_BY(mu_) = 0;
};

}  // namespace prost::columnar

#endif  // PROST_COLUMNAR_BUFFER_POOL_H_
