#ifndef GIR_STORAGE_DISK_MANAGER_H_
#define GIR_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "storage/fault_injector.h"
#include "storage/io_stats.h"

namespace gir {

using PageId = uint32_t;
constexpr PageId kInvalidPage = static_cast<PageId>(-1);

// Simulated disk: hands out page ids, enforces the page-size budget and
// accounts every page read. Substitutes for the paper's physical disk
// (see DESIGN.md §5); index nodes live in memory, but any access that
// would have been a disk read on the paper's setup must be routed
// through NoteRead so the I/O cost model stays faithful.
//
// Thread safety: the counters are atomic, so concurrent readers (e.g.
// BatchEngine fanning queries across a shared R-tree) may call NoteRead
// freely. Per-query deltas under concurrency must use ThreadStats(),
// which accumulates per calling thread: the global counters interleave
// reads from all in-flight queries.
class DiskManager {
 public:
  // The paper uses 4 KB pages; 10 ms approximates a random read on the
  // 2014-era SATA disks of its testbed.
  explicit DiskManager(size_t page_size_bytes = 4096,
                       double ms_per_read = 10.0);

  size_t page_size_bytes() const { return page_size_bytes_; }
  double ms_per_read() const { return ms_per_read_; }

  // Reserves a new page id.
  PageId Allocate();
  size_t allocated_pages() const {
    return next_page_.load(std::memory_order_relaxed);
  }

  // Attaches a fault schedule consulted by every ReadPage (non-owning;
  // nullptr detaches). The injector must outlive its attachment. A
  // plain NoteRead never faults — only the checked paths opt in.
  void AttachFaultInjector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return injector_.load(std::memory_order_acquire);
  }

  // Checked read of one page: charges the read like NoteRead, then
  // consults the attached fault plan — a latency fault stalls before
  // returning Ok, a read fault returns kUnavailable (the charge
  // stands: the device attempt happened). The fallible traversals
  // (BRS solo + shared) route their node fetches through this; legacy
  // accounting-only sites keep calling NoteRead and can never fail.
  Status ReadPage(PageId page) {
    NoteRead();
    FaultInjector* fi = injector_.load(std::memory_order_acquire);
    if (fi == nullptr) return Status::Ok();
    return fi->OnPageRead(page);
  }

  // Accounting hooks.
  void NoteRead() {
    reads_.fetch_add(1, std::memory_order_relaxed);
    ++ThreadStats().reads;
  }
  void NoteWrite() {
    writes_.fetch_add(1, std::memory_order_relaxed);
    ++ThreadStats().writes;
  }

  // Snapshot of the global counters (all threads, since construction or
  // the last ResetStats).
  IoStats stats() const {
    return IoStats{reads_.load(std::memory_order_relaxed),
                   writes_.load(std::memory_order_relaxed)};
  }
  // Zeroes the global counters AND the calling thread's ThreadStats
  // accumulator, so a reset between single-threaded measurement runs
  // does not leave stale thread-local counts skewing the next
  // before/after delta. Other threads' accumulators are untouched
  // (they diff around their own sections, so their deltas stay valid).
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    ThreadStats() = IoStats{};
  }

  // Cumulative I/O charged by the *calling thread*, across all
  // DiskManager instances. Diff around a section for exact per-query
  // accounting that stays correct when other threads share the disk:
  //
  //   IoStats before = DiskManager::ThreadStats();
  //   ... run the query on this thread ...
  //   IoStats cost = DiskManager::ThreadStats() - before;
  static IoStats& ThreadStats();

  // Simulated I/O time accumulated so far.
  double ReadMillis() const { return stats().ReadMillis(ms_per_read_); }

 private:
  size_t page_size_bytes_;
  double ms_per_read_;
  std::atomic<PageId> next_page_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<FaultInjector*> injector_{nullptr};
};

}  // namespace gir

#endif  // GIR_STORAGE_DISK_MANAGER_H_
