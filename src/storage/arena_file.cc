#include "storage/arena_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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

// Source of every alignment gap (always shorter than a page).
const uint8_t kZeroPage[kArenaAlign] = {};

void PutU32(uint8_t* p, size_t* at, uint32_t v) {
  std::memcpy(p + *at, &v, sizeof(v));
  *at += sizeof(v);
}
void PutU64(uint8_t* p, size_t* at, uint64_t v) {
  std::memcpy(p + *at, &v, sizeof(v));
  *at += sizeof(v);
}

// Bounds-checked header reader: a truncated file can never walk the
// parser off the header page.
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

Status Damaged(const std::string& path) {
  return Status::DataLoss("arena file " + path + " is torn or corrupt");
}

struct ArenaHeader {
  uint64_t version = 0;
  uint64_t dim = 0;
  uint64_t cap = 0;
  uint64_t nodes = 0;
  uint64_t root = 0;
  uint64_t records = 0;
  uint64_t rows = 0;
  uint64_t tombs = 0;
  ArenaExtent sections[kArenaSectionCount];
  uint32_t crcs[kArenaSectionCount] = {};
};

// The one header check, shared by Open and Verify: magic, format,
// header CRC, section order, alignment and bounds within the file's
// `bytes`, and section geometry against the header's counts. `page`
// holds the file's first kArenaAlign bytes and is not read when the
// file is shorter than that. Section CRCs are the caller's, over the
// mapping or over read-back chunks.
Status ParseArenaHeader(const std::string& path, const uint8_t* page,
                        size_t bytes, ArenaHeader* h) {
  if (bytes < kArenaAlign) {
    return Status::DataLoss("arena file " + path + " is truncated");
  }
  Cursor c{page, kArenaAlign, 0};
  uint32_t magic = 0;
  uint32_t format = 0;
  uint32_t sections = 0;
  uint32_t pad = 0;
  if (!c.U32(&magic) || magic != kArenaMagic) return Damaged(path);
  if (!c.U32(&format) || format != kArenaFormat) {
    return Status::DataLoss("arena file " + path +
                            " has an unsupported format");
  }
  if (!c.U64(&h->version) || !c.U64(&h->dim) || !c.U64(&h->cap) ||
      !c.U64(&h->nodes) || !c.U64(&h->root) || !c.U64(&h->records) ||
      !c.U64(&h->rows) || !c.U64(&h->tombs) || !c.U32(&sections) ||
      !c.U32(&pad)) {
    return Damaged(path);
  }
  if (h->dim == 0 || h->cap == 0 || sections != kArenaSectionCount) {
    return Damaged(path);
  }
  if (static_cast<int64_t>(h->root) >= static_cast<int64_t>(h->nodes)) {
    return Damaged(path);
  }
  if (h->tombs > h->rows) return Damaged(path);
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    uint32_t kind = 0;
    ArenaExtent& e = h->sections[s];
    if (!c.U32(&kind) || !c.U32(&pad) || !c.U64(&e.offset) ||
        !c.U64(&e.length) || !c.U32(&h->crcs[s]) || !c.U32(&pad)) {
      return Damaged(path);
    }
    if (kind != s + 1) return Damaged(path);  // fixed section order
    if (e.offset > bytes || e.length > bytes - e.offset) return Damaged(path);
    if (e.offset % kArenaAlign != 0) return Damaged(path);
  }
  uint32_t header_crc = 0;
  const size_t crc_at = c.at;
  if (!c.U32(&header_crc) || header_crc != Crc32(page, crc_at)) {
    return Damaged(path);
  }

  // Geometry: every section must hold exactly what the counts promise.
  const uint64_t stride = 2 * h->dim * h->cap;
  const uint64_t want[kArenaSectionCount] = {
      h->nodes * sizeof(ArenaNodeMeta),
      h->nodes * 2 * h->dim * sizeof(double),
      h->nodes * stride * sizeof(double),
      h->nodes * h->cap * sizeof(int32_t),
      h->rows * h->dim * sizeof(double),
      h->tombs * sizeof(int32_t),
  };
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    if (h->sections[s].length != want[s]) return Damaged(path);
  }
  return Status::Ok();
}

}  // namespace

bool PreadFull(int fd, uint8_t* out, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (r <= 0) return false;
    out += r;
    n -= static_cast<size_t>(r);
    offset += static_cast<uint64_t>(r);
  }
  return true;
}

ArenaImage::ArenaImage(const FlatRTree& flat, uint64_t version) {
  const Dataset& data = flat.dataset();
  const size_t n = flat.node_count();
  const size_t dim = data.dim();
  const size_t cap = flat.Capacity();
  const size_t stride = 2 * dim * cap;
  const size_t rows = data.size();

  for (size_t i = 0; i < rows; ++i) {
    if (!data.IsLive(static_cast<RecordId>(i))) {
      tombstones_.push_back(static_cast<int32_t>(i));
    }
  }
  // The flat tree's four page arrays are the four node sections, and
  // the dataset keeps its rows packed row-major.
  const void* dataset = rows == 0 ? nullptr : data.Get(0).data();
  const ArenaSpan payload[kArenaSectionCount] = {
      {flat.meta(), n * sizeof(ArenaNodeMeta)},
      {flat.boxes(), n * 2 * dim * sizeof(double)},
      {flat.coords(), n * stride * sizeof(double)},
      {flat.children(), n * cap * sizeof(int32_t)},
      {dataset, rows * dim * sizeof(double)},
      {tombstones_.data(), tombstones_.size() * sizeof(int32_t)},
  };

  // Header.
  header_.resize(kArenaHeaderBytes);
  uint8_t* h = header_.data();
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
  PutU64(h, &at, tombstones_.size());
  PutU32(h, &at, kArenaSectionCount);
  PutU32(h, &at, 0);
  size_t offset = kArenaAlign;  // the header owns the first page
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    sections_[s] = {offset, payload[s].len};
    PutU32(h, &at, s + 1);
    PutU32(h, &at, 0);
    PutU64(h, &at, offset);
    PutU64(h, &at, payload[s].len);
    PutU32(h, &at, Crc32(payload[s].data, payload[s].len));
    PutU32(h, &at, 0);
    offset = AlignUp(offset + payload[s].len);
  }
  PutU32(h, &at, Crc32(h, at));
  bytes_ = offset;

  // Spans, in file order: each piece followed by its zero padding.
  size_t end = 0;
  auto append = [&](const ArenaSpan& span) {
    if (span.len > 0) spans_.push_back(span);
    end += span.len;
    const size_t gap = AlignUp(end) - end;
    if (gap > 0) spans_.push_back({kZeroPage, gap});
    end += gap;
  };
  append({header_.data(), header_.size()});
  for (const ArenaSpan& span : payload) append(span);
}

std::vector<uint8_t> BuildArenaImage(const FlatRTree& flat,
                                     uint64_t version) {
  const ArenaImage image(flat, version);
  std::vector<uint8_t> out;
  out.reserve(image.bytes());
  for (const ArenaSpan& span : image.spans()) {
    const uint8_t* p = static_cast<const uint8_t*>(span.data);
    out.insert(out.end(), p, p + span.len);
  }
  return out;
}

bool PeekArenaSections(const uint8_t* bytes, size_t n,
                       ArenaExtent out[kArenaSectionCount]) {
  if (n < kArenaFixedHeaderBytes +
              kArenaSectionCount * kArenaSectionEntryBytes) {
    return false;
  }
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    const uint8_t* entry =
        bytes + kArenaFixedHeaderBytes + s * kArenaSectionEntryBytes;
    std::memcpy(&out[s].offset, entry + 8, sizeof(uint64_t));
    std::memcpy(&out[s].length, entry + 16, sizeof(uint64_t));
  }
  return true;
}

Result<std::shared_ptr<const ArenaFile>> ArenaFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no arena file at " + path);
  // Keep ownership from here on, so every early return unmaps and
  // closes.
  std::shared_ptr<ArenaFile> file(new ArenaFile());
  file->path_ = path;
  file->fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    return Status::Internal("cannot stat " + path);
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  const uint8_t* base = nullptr;
  if (bytes >= kArenaAlign) {
    void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) return Status::Internal("cannot mmap " + path);
    // Validation reads the whole file once, sequentially; asking for
    // the readahead up front overlaps the page-ins with the CRC loop
    // instead of faulting page by page.
    ::madvise(map, bytes, MADV_WILLNEED);
    file->map_ = map;
    file->bytes_ = bytes;
    base = static_cast<const uint8_t*>(map);
  }

  ArenaHeader h;
  const Status parsed = ParseArenaHeader(path, base, bytes, &h);
  if (!parsed.ok()) return parsed;
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    const ArenaExtent& e = h.sections[s];
    if (h.crcs[s] != Crc32(base + e.offset, static_cast<size_t>(e.length))) {
      return Damaged(path);
    }
  }
  file->version_ = h.version;
  file->dim_ = static_cast<size_t>(h.dim);
  file->capacity_ = static_cast<size_t>(h.cap);
  file->node_count_ = static_cast<size_t>(h.nodes);
  file->root_ = static_cast<int64_t>(h.root);
  file->record_count_ = static_cast<size_t>(h.records);
  file->dataset_rows_ = static_cast<size_t>(h.rows);
  file->tombstone_count_ = static_cast<size_t>(h.tombs);
  const ArenaExtent* sec = h.sections;
  file->node_meta_ =
      reinterpret_cast<const ArenaNodeMeta*>(base + sec[0].offset);
  file->node_mbbs_ = reinterpret_cast<const double*>(base + sec[1].offset);
  file->coords_ = reinterpret_cast<const double*>(base + sec[2].offset);
  file->children_ = reinterpret_cast<const int32_t*>(base + sec[3].offset);
  file->dataset_ = reinterpret_cast<const double*>(base + sec[4].offset);
  file->tombstones_ = reinterpret_cast<const int32_t*>(base + sec[5].offset);
  return std::shared_ptr<const ArenaFile>(std::move(file));
}

Status ArenaFile::Verify(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no arena file at " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    return Status::Internal("cannot stat " + path);
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  // Small enough to stay in a core's L2 between the copy and the CRC.
  constexpr size_t kChunk = size_t{1} << 18;
  std::unique_ptr<uint8_t[]> buf(new uint8_t[kChunk]);
  if (!PreadFull(fd, buf.get(), std::min(bytes, kArenaAlign), 0)) {
    return Damaged(path);
  }
  ArenaHeader h;
  const Status parsed = ParseArenaHeader(path, buf.get(), bytes, &h);
  if (!parsed.ok()) return parsed;
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    uint64_t at = h.sections[s].offset;
    uint64_t left = h.sections[s].length;
    uint32_t crc = 0;
    while (left > 0) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(left, kChunk));
      if (!PreadFull(fd, buf.get(), n, at)) return Damaged(path);
      crc = Crc32(buf.get(), n, crc);
      at += n;
      left -= n;
    }
    if (crc != h.crcs[s]) return Damaged(path);
  }
  return Status::Ok();
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

}  // namespace gir
