#ifndef GIR_STORAGE_ARENA_FILE_H_
#define GIR_STORAGE_ARENA_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "storage/disk_manager.h"

namespace gir {

class FlatRTree;

// Version-stamped, page-aligned on-disk image of one engine epoch: the
// frozen tree's page store (per-node headers, node boxes, SoA
// coordinate planes and children; see NodePages) plus the dataset image
// it was frozen against (coordinates + tombstones). The layout is
// designed to be mmap'd and served directly: every section starts on a
// kArenaAlign boundary and the four node sections are bit-identical to
// the page arrays of the mutable tree and of its frozen image, so a
// mapped file serves them in place.
//
// File layout (little-endian, one kArenaAlign-sized header page):
//   header: u32 magic 'GARN' | u32 format | u64 epoch version
//           | u64 dim | u64 node capacity | u64 node count | i64 root
//           | u64 record count | u64 dataset rows | u64 tombstones
//           | u32 section count | u32 pad
//   per section (kArenaSectionCount entries):
//           u32 kind | u32 pad | u64 offset | u64 length
//           | u32 crc(payload) | u32 pad
//   then:   u32 crc(all header bytes above)
//   body:   each section's payload at its offset, zero-padded up to the
//           next kArenaAlign boundary.
//
// Durability: SnapshotStore::WriteArena publishes these files crash-
// safely — temp name, fsync, atomic rename, fsync of the directory —
// under an injected-fault surface (torn tail, flipped byte). It writes
// the file as a list of spans (ArenaImage): the four node sections and
// the dataset rows straight from the live arrays, the header and the
// tombstone list from packed buffers, padding from a static zero page;
// no whole-file buffer is built. ArenaFile::Open validates the magic, the
// header CRC and every section CRC before serving a single byte, so a
// torn or corrupt file is rejected at open, never mapped into an
// engine. ArenaFile::Verify makes the same checks, through the same
// header parser, by reading the file back in fixed-size chunks; the
// checkpoint uses it to decide whether the WAL may be truncated.
constexpr uint32_t kArenaMagic = 0x4E524147;  // "GARN"
constexpr uint32_t kArenaFormat = 1;
constexpr size_t kArenaAlign = 4096;
constexpr uint32_t kArenaSectionCount = 6;

enum class ArenaSection : uint32_t {
  kNodeMeta = 1,    // ArenaNodeMeta[node_count]
  kNodeMbb = 2,     // node_count * 2 * dim doubles (lo plane, hi plane)
  kCoords = 3,      // node_count * (2 * dim * capacity) doubles
  kChildren = 4,    // node_count * capacity int32
  kDataset = 5,     // dataset_rows * dim doubles
  kTombstones = 6,  // tombstone count int32 record ids
};

// Per-node header, on disk and in memory alike; plain data so the
// mapped section is the runtime representation (no parse step per
// node).
struct ArenaNodeMeta {
  uint32_t count = 0;
  int32_t level = 0;
  uint32_t is_leaf = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(ArenaNodeMeta) == 16, "on-disk layout is fixed");

// A contiguous run of an arena file's bytes.
struct ArenaSpan {
  const void* data = nullptr;
  size_t len = 0;
};

// Where one section's payload lies in the file.
struct ArenaExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

// One frozen epoch laid out as the bytes of its arena file, in order,
// without a copy of the epoch: the four node sections and the dataset
// span point into the flat tree's and its dataset's own contiguous
// arrays (which must outlive this object), and every section CRC is
// taken over those arrays. Only the header page and the tombstone
// section are packed here; alignment padding points at a static zero
// page.
class ArenaImage {
 public:
  ArenaImage(const FlatRTree& flat, uint64_t version);
  ArenaImage(const ArenaImage&) = delete;
  ArenaImage& operator=(const ArenaImage&) = delete;

  // The file's bytes in order; their lengths sum to bytes().
  const std::vector<ArenaSpan>& spans() const { return spans_; }
  size_t bytes() const { return bytes_; }
  // kArenaSectionCount entries, in section order.
  const ArenaExtent* sections() const { return sections_; }

 private:
  std::vector<uint8_t> header_;
  std::vector<int32_t> tombstones_;
  ArenaExtent sections_[kArenaSectionCount];
  std::vector<ArenaSpan> spans_;
  size_t bytes_ = 0;
};

// The spans of ArenaImage(flat, version) flattened into one buffer:
// the exact bytes WriteArena publishes. Tests compare images with it;
// the store itself never builds a whole-file buffer.
std::vector<uint8_t> BuildArenaImage(const FlatRTree& flat, uint64_t version);

// Reads the section table out of an arena file's leading `n` bytes
// without checking anything (the file may be torn or corrupt); false
// when `n` is too short to hold the table. Fault shaping aims a flipped
// byte at a section payload with it.
bool PeekArenaSections(const uint8_t* bytes, size_t n,
                       ArenaExtent out[kArenaSectionCount]);

// Reads `n` bytes at `offset` with pread; false on an error or an
// early end of file (a file that shrank under the read).
bool PreadFull(int fd, uint8_t* out, size_t n, uint64_t offset);

// A validated, read-only mmap of one arena file. Shared ownership is
// the epoch-swap mechanism: the engine's snapshot (and every pinned
// reader) holds a shared_ptr, so swapping epochs is "open + map the new
// file, atomically publish the new snapshot" and the old mapping is
// munmap'd exactly when its last pinned reader drains.
class ArenaFile {
 public:
  // Opens, maps and fully validates `path` (magic, format, header CRC,
  // section geometry, every section CRC). DataLoss on any damage —
  // a torn tail or a flipped byte is detected here, before any engine
  // state is built over the mapping. NotFound when the file is absent.
  static Result<std::shared_ptr<const ArenaFile>> Open(
      const std::string& path);

  // Makes every check Open makes, through the same header parser, and
  // returns the status Open would, without mapping the file: the
  // sections are read back with pread through one fixed-size buffer
  // and their CRCs chained over the chunks. A check that runs beside a
  // served epoch (the checkpoint's WAL-truncation gate, GarbageCollect)
  // thus adds no file-sized resident set to the process.
  static Status Verify(const std::string& path);

  ~ArenaFile();
  ArenaFile(const ArenaFile&) = delete;
  ArenaFile& operator=(const ArenaFile&) = delete;

  const std::string& path() const { return path_; }
  uint64_t version() const { return version_; }
  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }
  size_t node_count() const { return node_count_; }
  int64_t root() const { return root_; }
  size_t record_count() const { return record_count_; }
  size_t dataset_rows() const { return dataset_rows_; }
  size_t tombstone_count() const { return tombstone_count_; }
  size_t file_bytes() const { return bytes_; }

  const ArenaNodeMeta* node_meta() const { return node_meta_; }
  const double* node_mbbs() const { return node_mbbs_; }
  const double* coords() const { return coords_; }
  const int32_t* children() const { return children_; }
  const int32_t* tombstones() const { return tombstones_; }

  // Materializes the dataset image (coordinates + tombstones) as a heap
  // Dataset — Phase 2 and the scoring transforms read records through
  // the Dataset interface. The index arrays stay mapped; only the
  // record image is copied out.
  Result<std::unique_ptr<Dataset>> BuildDataset() const;

 private:
  ArenaFile() = default;

  std::string path_;
  int fd_ = -1;
  void* map_ = nullptr;
  size_t bytes_ = 0;
  uint64_t version_ = 0;
  size_t dim_ = 0;
  size_t capacity_ = 0;
  size_t node_count_ = 0;
  int64_t root_ = -1;
  size_t record_count_ = 0;
  size_t dataset_rows_ = 0;
  size_t tombstone_count_ = 0;
  const ArenaNodeMeta* node_meta_ = nullptr;
  const double* node_mbbs_ = nullptr;
  const double* coords_ = nullptr;
  const int32_t* children_ = nullptr;
  const double* dataset_ = nullptr;
  const int32_t* tombstones_ = nullptr;
};

}  // namespace gir

#endif  // GIR_STORAGE_ARENA_FILE_H_
