#ifndef GIR_STORAGE_IO_STATS_H_
#define GIR_STORAGE_IO_STATS_H_

#include <cstdint>

namespace gir {

// Counters for the simulated disk. The paper's experimental setup
// measures I/O time on a physical disk with 4 KB pages and no buffer
// pool (no page is ever fetched twice by the studied algorithms), so
// simulated I/O time is simply `reads * ms_per_read`.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;

  double ReadMillis(double ms_per_read) const {
    return static_cast<double>(reads) * ms_per_read;
  }

  IoStats& operator+=(const IoStats& other) {
    reads += other.reads;
    writes += other.writes;
    return *this;
  }
};

inline IoStats operator-(const IoStats& a, const IoStats& b) {
  return IoStats{a.reads - b.reads, a.writes - b.writes};
}

}  // namespace gir

#endif  // GIR_STORAGE_IO_STATS_H_
