#include "storage/arena_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "common/crc32.h"
#include "index/flat_rtree.h"

namespace gir {

namespace {

// Header field block (before the section table): magic, format, version,
// dim, capacity, node count, root, record count, dataset rows,
// tombstones, section count + pad.
constexpr size_t kArenaFixedHeaderBytes = 4 + 4 + 8 * 8 + 4 + 4;
// Section table entry: kind + pad + offset + length + crc + pad.
constexpr size_t kArenaSectionEntryBytes = 4 + 4 + 8 + 8 + 4 + 4;
constexpr size_t kArenaHeaderBytes = kArenaFixedHeaderBytes +
                                     kArenaSectionCount *
                                         kArenaSectionEntryBytes +
                                     4;  // trailing header CRC

static_assert(kArenaHeaderBytes <= kArenaAlign,
              "the header must fit its reserved page");

size_t AlignUp(size_t n) {
  return (n + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

struct SectionPlan {
  ArenaSection kind;
  size_t offset = 0;
  size_t length = 0;
};

void PutU32(uint8_t* p, size_t* at, uint32_t v) {
  std::memcpy(p + *at, &v, sizeof(v));
  *at += sizeof(v);
}
void PutU64(uint8_t* p, size_t* at, uint64_t v) {
  std::memcpy(p + *at, &v, sizeof(v));
  *at += sizeof(v);
}

// Bounds-checked header reader: a truncated file can never walk the
// parser off the mapping.
struct Cursor {
  const uint8_t* p = nullptr;
  size_t n = 0;
  size_t at = 0;
  bool Bytes(void* out, size_t k) {
    if (k > n - at) return false;
    std::memcpy(out, p + at, k);
    at += k;
    return true;
  }
  bool U32(uint32_t* v) { return Bytes(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Bytes(v, sizeof(*v)); }
};

}  // namespace

std::vector<uint8_t> BuildArenaImage(const FlatRTree& flat,
                                     uint64_t version) {
  const Dataset& data = flat.dataset();
  const size_t n = flat.node_count();
  const size_t dim = data.dim();
  const size_t cap = flat.Capacity();
  const size_t stride = 2 * dim * cap;
  const size_t rows = data.size();

  std::vector<int32_t> dead;
  for (size_t i = 0; i < rows; ++i) {
    if (!data.IsLive(static_cast<RecordId>(i))) {
      dead.push_back(static_cast<int32_t>(i));
    }
  }

  SectionPlan plan[kArenaSectionCount] = {
      {ArenaSection::kNodeMeta, 0, n * sizeof(ArenaNodeMeta)},
      {ArenaSection::kNodeMbb, 0, n * 2 * dim * sizeof(double)},
      {ArenaSection::kCoords, 0, n * stride * sizeof(double)},
      {ArenaSection::kChildren, 0, n * cap * sizeof(int32_t)},
      {ArenaSection::kDataset, 0, rows * dim * sizeof(double)},
      {ArenaSection::kTombstones, 0, dead.size() * sizeof(int32_t)},
  };
  size_t offset = kArenaAlign;  // the header owns the first page
  for (SectionPlan& s : plan) {
    s.offset = offset;
    offset = AlignUp(offset + s.length);
  }

  std::vector<uint8_t> image(offset, 0);

  // Section payloads.
  {
    ArenaNodeMeta* meta =
        reinterpret_cast<ArenaNodeMeta*>(image.data() + plan[0].offset);
    double* mbbs = reinterpret_cast<double*>(image.data() + plan[1].offset);
    double* coords = reinterpret_cast<double*>(image.data() + plan[2].offset);
    int32_t* children =
        reinterpret_cast<int32_t*>(image.data() + plan[3].offset);
    for (size_t p = 0; p < n; ++p) {
      const FlatRTree::NodeView node =
          flat.PeekNode(static_cast<PageId>(p));
      meta[p].count = static_cast<uint32_t>(node.count());
      meta[p].level = node.level();
      meta[p].is_leaf = node.is_leaf() ? 1 : 0;
      const Mbb& box = node.mbb();
      for (size_t j = 0; j < dim; ++j) {
        mbbs[p * 2 * dim + j] = box.lo[j];
        mbbs[p * 2 * dim + dim + j] = box.hi[j];
      }
      // lo(0) is the node's SoA base: stride contiguous doubles.
      std::memcpy(coords + p * stride, node.lo(0), stride * sizeof(double));
      std::memcpy(children + p * cap, node.children(),
                  cap * sizeof(int32_t));
    }
    double* ds = reinterpret_cast<double*>(image.data() + plan[4].offset);
    for (size_t i = 0; i < rows; ++i) {
      const VecView row = data.Get(static_cast<RecordId>(i));
      std::memcpy(ds + i * dim, row.data(), dim * sizeof(double));
    }
    if (!dead.empty()) {
      std::memcpy(image.data() + plan[5].offset, dead.data(),
                  dead.size() * sizeof(int32_t));
    }
  }

  // Header.
  uint8_t* h = image.data();
  size_t at = 0;
  PutU32(h, &at, kArenaMagic);
  PutU32(h, &at, kArenaFormat);
  PutU64(h, &at, version);
  PutU64(h, &at, dim);
  PutU64(h, &at, cap);
  PutU64(h, &at, n);
  PutU64(h, &at, static_cast<uint64_t>(static_cast<int64_t>(
                     flat.root() == kInvalidPage
                         ? -1
                         : static_cast<int64_t>(flat.root()))));
  PutU64(h, &at, flat.size());
  PutU64(h, &at, rows);
  PutU64(h, &at, dead.size());
  PutU32(h, &at, kArenaSectionCount);
  PutU32(h, &at, 0);
  for (const SectionPlan& s : plan) {
    PutU32(h, &at, static_cast<uint32_t>(s.kind));
    PutU32(h, &at, 0);
    PutU64(h, &at, s.offset);
    PutU64(h, &at, s.length);
    PutU32(h, &at, Crc32(image.data() + s.offset, s.length));
    PutU32(h, &at, 0);
  }
  PutU32(h, &at, Crc32(image.data(), at));
  return image;
}

Result<std::shared_ptr<const ArenaFile>> ArenaFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no arena file at " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat " + path);
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  if (bytes < kArenaAlign) {
    ::close(fd);
    return Status::DataLoss("arena file " + path + " is truncated");
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return Status::Internal("cannot mmap " + path);
  }
  // Validation reads the whole file once, sequentially; asking for the
  // readahead up front overlaps the page-ins with the CRC loop instead
  // of faulting page by page.
  ::madvise(map, bytes, MADV_WILLNEED);

  // Keep ownership from here on, so every early return unmaps.
  std::shared_ptr<ArenaFile> file(new ArenaFile());
  file->path_ = path;
  file->fd_ = fd;
  file->map_ = map;
  file->bytes_ = bytes;

  const uint8_t* base = static_cast<const uint8_t*>(map);
  Cursor c{base, bytes, 0};
  uint32_t magic = 0;
  uint32_t format = 0;
  uint64_t dim = 0;
  uint64_t cap = 0;
  uint64_t nodes = 0;
  uint64_t root = 0;
  uint64_t records = 0;
  uint64_t rows = 0;
  uint64_t tombs = 0;
  uint32_t sections = 0;
  uint32_t pad = 0;
  const Status damaged = Status::DataLoss("arena file " + path +
                                          " is torn or corrupt");
  if (!c.U32(&magic) || magic != kArenaMagic) return damaged;
  if (!c.U32(&format) || format != kArenaFormat) {
    return Status::DataLoss("arena file " + path +
                            " has an unsupported format");
  }
  if (!c.U64(&file->version_) || !c.U64(&dim) || !c.U64(&cap) ||
      !c.U64(&nodes) || !c.U64(&root) || !c.U64(&records) || !c.U64(&rows) ||
      !c.U64(&tombs) || !c.U32(&sections) || !c.U32(&pad)) {
    return damaged;
  }
  if (dim == 0 || cap == 0 || sections != kArenaSectionCount) return damaged;
  file->dim_ = static_cast<size_t>(dim);
  file->capacity_ = static_cast<size_t>(cap);
  file->node_count_ = static_cast<size_t>(nodes);
  file->root_ = static_cast<int64_t>(root);
  file->record_count_ = static_cast<size_t>(records);
  file->dataset_rows_ = static_cast<size_t>(rows);
  file->tombstone_count_ = static_cast<size_t>(tombs);
  file->node_stride_ = 2 * file->dim_ * file->capacity_;
  if (file->root_ >= static_cast<int64_t>(nodes)) return damaged;
  if (tombs > rows) return damaged;

  struct ParsedSection {
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  ParsedSection parsed[kArenaSectionCount];
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    uint32_t kind = 0;
    uint32_t crc = 0;
    ParsedSection& ps = parsed[s];
    if (!c.U32(&kind) || !c.U32(&pad) || !c.U64(&ps.offset) ||
        !c.U64(&ps.length) || !c.U32(&crc) || !c.U32(&pad)) {
      return damaged;
    }
    if (kind != s + 1) return damaged;  // fixed section order
    if (ps.offset > bytes || ps.length > bytes - ps.offset) return damaged;
    if (ps.offset % kArenaAlign != 0) return damaged;
    if (crc != Crc32(base + ps.offset, static_cast<size_t>(ps.length))) {
      return damaged;
    }
  }
  uint32_t header_crc = 0;
  const size_t crc_at = c.at;
  if (!c.U32(&header_crc) || header_crc != Crc32(base, crc_at)) {
    return damaged;
  }

  // Geometry: every section must hold exactly what the counts promise.
  const uint64_t want[kArenaSectionCount] = {
      nodes * sizeof(ArenaNodeMeta),
      nodes * 2 * dim * sizeof(double),
      nodes * file->node_stride_ * sizeof(double),
      nodes * cap * sizeof(int32_t),
      rows * dim * sizeof(double),
      tombs * sizeof(int32_t),
  };
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    if (parsed[s].length != want[s]) return damaged;
  }
  file->node_meta_ =
      reinterpret_cast<const ArenaNodeMeta*>(base + parsed[0].offset);
  file->node_mbbs_ = reinterpret_cast<const double*>(base + parsed[1].offset);
  file->coords_ = reinterpret_cast<const double*>(base + parsed[2].offset);
  file->children_ = reinterpret_cast<const int32_t*>(base + parsed[3].offset);
  file->dataset_ = reinterpret_cast<const double*>(base + parsed[4].offset);
  file->tombstones_ =
      reinterpret_cast<const int32_t*>(base + parsed[5].offset);
  return std::shared_ptr<const ArenaFile>(std::move(file));
}

ArenaFile::~ArenaFile() {
  if (map_ != nullptr) ::munmap(map_, bytes_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Dataset>> ArenaFile::BuildDataset() const {
  auto out = std::make_unique<Dataset>(dim_);
  out->Reserve(dataset_rows_);
  out->AppendRows(dataset_, dataset_rows_);
  for (size_t t = 0; t < tombstone_count_; ++t) {
    const int32_t id = tombstones_[t];
    if (id < 0 || static_cast<size_t>(id) >= dataset_rows_) {
      return Status::DataLoss("arena tombstone id out of range");
    }
    out->MarkDeleted(id);
  }
  return out;
}

void ArenaFile::NodeSpan(PageId page, const uint8_t** addr,
                         size_t* len) const {
  const size_t begin = reinterpret_cast<size_t>(coords_) +
                       static_cast<size_t>(page) * node_stride_ *
                           sizeof(double);
  const size_t end = begin + node_stride_ * sizeof(double);
  const size_t lo = begin & ~(kArenaAlign - 1);
  *addr = reinterpret_cast<const uint8_t*>(lo);
  *len = AlignUp(end) - lo;
}

void ArenaFile::PrefetchNodes(const PageId* pages, size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* addr = nullptr;
    size_t len = 0;
    NodeSpan(pages[i], &addr, &len);
    ::madvise(const_cast<uint8_t*>(addr), len, MADV_WILLNEED);
  }
}

bool ArenaFile::TouchNode(PageId page) const {
  const uint8_t* addr = nullptr;
  size_t len = 0;
  NodeSpan(page, &addr, &len);
  unsigned char resident = 0;
  const bool was_resident =
      ::mincore(const_cast<uint8_t*>(addr), 1, &resident) == 0 &&
      (resident & 1) != 0;
  // Force the page in so the fetch's fault cost lands here, inside the
  // charged read, not inside the scoring kernel that follows.
  const volatile uint8_t* touch = addr;
  (void)*touch;
  return was_resident;
}

void ArenaFile::Evict() const {
  ::madvise(map_, bytes_, MADV_DONTNEED);
  // Also drop the (clean) page-cache copies, so the next touch is a
  // real device read and not a silent cache refill.
  ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
}

size_t ArenaFile::ResidentBytes() const {
  const size_t pages = (bytes_ + kArenaAlign - 1) / kArenaAlign;
  std::vector<unsigned char> vec(pages, 0);
  if (::mincore(map_, bytes_, vec.data()) != 0) return 0;
  size_t resident = 0;
  for (unsigned char v : vec) resident += (v & 1) ? kArenaAlign : 0;
  return resident;
}

}  // namespace gir
