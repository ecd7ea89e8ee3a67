#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"

namespace gir {

namespace {

namespace fs = std::filesystem;

// magic + format + base epoch + dim + header CRC.
constexpr size_t kWalHeaderBytes = 4 + 4 + 8 + 8 + 4;
// record CRC + payload length.
constexpr size_t kFramePrefixBytes = 4 + 8;

void AppendBytes(std::vector<uint8_t>* out, const void* p, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  if (n > 0) std::memcpy(out->data() + at, p, n);
}
void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  AppendBytes(out, &v, sizeof(v));
}
void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  AppendBytes(out, &v, sizeof(v));
}

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

bool ParseWalName(const std::string& name, uint64_t* base) {
  constexpr const char* kPrefix = "wal-";
  constexpr const char* kSuffix = ".gwal";
  const size_t plen = std::strlen(kPrefix);
  const size_t slen = std::strlen(kSuffix);
  if (name.size() <= plen + slen) return false;
  if (name.rfind(kPrefix, 0) != 0) return false;
  if (name.compare(name.size() - slen, slen, kSuffix) != 0) return false;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *base = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

std::vector<uint8_t> SegmentHeader(uint64_t base_epoch, uint64_t dim) {
  std::vector<uint8_t> out;
  out.reserve(kWalHeaderBytes);
  AppendU32(&out, kWalMagic);
  AppendU32(&out, kWalFormat);
  AppendU64(&out, base_epoch);
  AppendU64(&out, dim);
  AppendU32(&out, Crc32(out.data(), out.size()));
  return out;
}

std::vector<uint8_t> RecordPayload(const UpdateBatch& batch, uint64_t epoch,
                                   uint64_t dim) {
  std::vector<uint8_t> out;
  out.reserve(16 + batch.inserts.size() * dim * sizeof(double) +
              batch.deletes.size() * sizeof(int64_t) + 16);
  AppendU64(&out, epoch);
  AppendU64(&out, batch.inserts.size());
  for (const Vec& row : batch.inserts) {
    AppendBytes(&out, row.data(), row.size() * sizeof(double));
  }
  AppendU64(&out, batch.deletes.size());
  for (RecordId id : batch.deletes) {
    const int64_t wide = id;
    AppendBytes(&out, &wide, sizeof(wide));
  }
  return out;
}

std::vector<uint8_t> FrameRecord(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFramePrefixBytes + payload.size() + 4);
  AppendU32(&out, Crc32(payload.data(), payload.size()));
  AppendU64(&out, payload.size());
  AppendBytes(&out, payload.data(), payload.size());
  AppendU32(&out, kWalCommitMagic);
  return out;
}

// Parses one committed record payload; false on any structural damage.
bool ParsePayload(const uint8_t* p, size_t n, uint64_t dim,
                  WalStore::ReplayRecord* out) {
  Cursor c{p, n};
  uint64_t n_ins = 0;
  uint64_t n_del = 0;
  if (!c.U64(&out->epoch) || !c.U64(&n_ins)) return false;
  if (dim == 0 || n_ins > (n - c.at) / sizeof(double) / dim) return false;
  out->batch.inserts.resize(static_cast<size_t>(n_ins));
  for (uint64_t i = 0; i < n_ins; ++i) {
    Vec& row = out->batch.inserts[static_cast<size_t>(i)];
    row.resize(static_cast<size_t>(dim));
    if (!c.Bytes(row.data(), row.size() * sizeof(double))) return false;
  }
  if (!c.U64(&n_del) || n_del > (n - c.at) / sizeof(int64_t)) return false;
  out->batch.deletes.resize(static_cast<size_t>(n_del));
  for (uint64_t i = 0; i < n_del; ++i) {
    int64_t wide = 0;
    if (!c.Bytes(&wide, sizeof(wide))) return false;
    if (wide < 0 || wide > INT32_MAX) return false;
    out->batch.deletes[static_cast<size_t>(i)] = static_cast<RecordId>(wide);
  }
  return c.at == n;
}

bool ReadWholeFile(const fs::path& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(out->size()));
  return static_cast<bool>(in);
}

Status WriteFull(int fd, const uint8_t* data, size_t n,
                 const std::string& what) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w <= 0) {
      return Status::Internal("short write to " + what);
    }
    off += static_cast<size_t>(w);
  }
  return Status::Ok();
}

}  // namespace

// ----- WalStore -----

std::string WalStore::SegmentFileName(uint64_t base_epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.gwal",
                static_cast<unsigned long long>(base_epoch));
  return buf;
}

std::vector<uint64_t> WalStore::ListSegmentBases() const {
  std::vector<uint64_t> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_, ec)) {
    uint64_t base = 0;
    if (ParseWalName(e.path().filename().string(), &base)) {
      out.push_back(base);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<WalStore::ReplayLog> WalStore::ReadCommitted(
    uint64_t after_epoch) const {
  ReplayLog out;
  out.tail_epoch = after_epoch;

  std::vector<uint8_t> file;
  for (uint64_t base : ListSegmentBases()) {
    ++out.segments_scanned;
    SegmentState seg;
    seg.base = base;
    const fs::path path = fs::path(dir_) / SegmentFileName(base);
    if (!ReadWholeFile(path, &file) || file.size() < kWalHeaderBytes) {
      // Not even a header: nothing inside is replayable or trustworthy.
      ++out.torn_truncated;
      seg.action = SegmentState::Action::kRemove;
      out.segments.push_back(seg);
      continue;
    }
    Cursor c{file.data(), file.size()};
    uint32_t magic = 0;
    uint32_t format = 0;
    uint64_t header_base = 0;
    uint64_t dim = 0;
    uint32_t header_crc = 0;
    if (!c.U32(&magic) || magic != kWalMagic || !c.U32(&format) ||
        format != kWalFormat || !c.U64(&header_base) || !c.U64(&dim) ||
        !c.U32(&header_crc) ||
        header_crc != Crc32(file.data(), kWalHeaderBytes - 4) ||
        header_base != base || dim == 0 ||
        (out.wal_dim != 0 && dim != out.wal_dim)) {
      // A damaged, renamed or foreign-shape header: without a trusted
      // dim no record inside can be parsed, so the whole segment goes.
      ++out.torn_truncated;
      seg.action = SegmentState::Action::kRemove;
      out.segments.push_back(seg);
      continue;
    }
    out.wal_dim = dim;
    seg.keep_bytes = kWalHeaderBytes;
    while (c.at < file.size()) {
      uint32_t crc = 0;
      uint64_t len = 0;
      uint32_t commit = 0;
      ReplayRecord rec;
      // Any structural failure below is a torn or corrupt tail: the
      // record was never fully committed, so nothing *in this segment*
      // after it was acknowledged either (framing is not
      // self-synchronizing). Truncate this segment here; later segments
      // — e.g. one a post-recovery writer appended to — still replay
      // while they stay epoch-contiguous.
      if (!c.U32(&crc) || !c.U64(&len) || len > file.size() - c.at) {
        ++out.torn_truncated;
        seg.action = SegmentState::Action::kTruncate;
        break;
      }
      const uint8_t* payload = file.data() + c.at;
      c.at += static_cast<size_t>(len);
      if (!c.U32(&commit) || commit != kWalCommitMagic ||
          crc != Crc32(payload, static_cast<size_t>(len)) ||
          !ParsePayload(payload, static_cast<size_t>(len), dim, &rec)) {
        ++out.torn_truncated;
        seg.action = SegmentState::Action::kTruncate;
        break;
      }
      ++out.committed_seen;
      if (rec.epoch <= out.tail_epoch) {
        ++out.overlap_skipped;  // idempotence: already covered
        seg.keep_bytes = c.at;
        continue;
      }
      if (rec.epoch != out.tail_epoch + 1) {
        // An epoch gap (e.g. a truncated-away middle segment, or a
        // stale pre-recovery timeline): the record — and everything
        // after it, since epochs only grow within a segment — can never
        // be applied consistently, so the clean prefix ends before it.
        ++out.gap_dropped;
        seg.action = SegmentState::Action::kTruncate;
        break;
      }
      out.tail_epoch = rec.epoch;
      out.records.push_back(std::move(rec));
      seg.keep_bytes = c.at;
    }
    out.segments.push_back(seg);
  }
  return out;
}

Result<WalStore::SanitizeStats> WalStore::Sanitize(const ReplayLog& log) {
  SanitizeStats out;
  bool mutated = false;
  for (const SegmentState& seg : log.segments) {
    const fs::path path = fs::path(dir_) / SegmentFileName(seg.base);
    if (seg.action == SegmentState::Action::kKeep) continue;
    if (seg.action == SegmentState::Action::kRemove) {
      std::error_code ec;
      fs::remove(path, ec);
      if (ec) {
        return Status::Internal("cannot remove wal segment " + path.string() +
                                ": " + ec.message());
      }
      ++out.removed_segments;
      mutated = true;
      continue;
    }
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) {
      return Status::Internal("cannot open wal segment " + path.string() +
                              " for tail truncation");
    }
    const bool cut = ::ftruncate(fd, static_cast<off_t>(seg.keep_bytes)) == 0;
    const bool synced = cut && ::fsync(fd) == 0;
    if (::close(fd) != 0 || !cut || !synced) {
      return Status::Internal("cannot truncate wal segment " + path.string() +
                              " to its clean prefix");
    }
    ++out.truncated_segments;
    mutated = true;
  }
  if (mutated) {
    const int dfd = ::open(dir_.c_str(), O_RDONLY);
    if (dfd < 0) {
      return Status::Internal("cannot open wal dir " + dir_ + " for fsync");
    }
    const bool dir_synced = ::fsync(dfd) == 0;
    const bool dir_closed = ::close(dfd) == 0;
    if (!dir_synced || !dir_closed) {
      return Status::Internal("directory fsync failed on " + dir_);
    }
  }
  return out;
}

Result<WalStore::TruncateStats> WalStore::Truncate(uint64_t durable_epoch) {
  TruncateStats out;
  const std::vector<uint64_t> bases = ListSegmentBases();
  for (size_t i = 0; i < bases.size(); ++i) {
    // Segment i holds records in (bases[i], bases[i+1]]; it is obsolete
    // only when a successor exists and every record it can hold is at
    // or below the durable epoch. The active (last) segment never goes.
    const bool obsolete =
        i + 1 < bases.size() && bases[i + 1] <= durable_epoch;
    if (obsolete) {
      std::error_code ec;
      if (fs::remove(fs::path(dir_) / SegmentFileName(bases[i]), ec) && !ec) {
        ++out.removed_segments;
        continue;
      }
    }
    ++out.kept_segments;
  }
  return out;
}

// ----- WalWriter -----

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalStore* store,
                                                   uint64_t base_epoch,
                                                   uint64_t dim) {
  if (store == nullptr) {
    return Status::InvalidArgument("WalWriter requires a WalStore");
  }
  if (dim == 0) {
    return Status::InvalidArgument("WalWriter requires dim >= 1");
  }
  std::error_code ec;
  fs::create_directories(store->dir(), ec);
  if (ec) {
    return Status::Internal("cannot create wal dir " + store->dir() + ": " +
                            ec.message());
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(store, dim));
  Status opened = writer->OpenSegmentLocked(base_epoch);
  if (!opened.ok()) return opened;
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::OpenSegmentLocked(uint64_t base) {
  const fs::path path =
      fs::path(store_->dir()) / WalStore::SegmentFileName(base);
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open wal segment " + path.string());
  }
  const std::vector<uint8_t> header = SegmentHeader(base, dim_);
  Status written = WriteFull(fd, header.data(), header.size(), path.string());
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::Internal("fsync failed on " + path.string());
  }
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  // Make the segment *name* durable too: replay lists the directory.
  const int dfd = ::open(store_->dir().c_str(), O_RDONLY);
  if (dfd < 0) {
    ::close(fd);
    return Status::Internal("cannot open wal dir " + store_->dir() +
                            " for fsync");
  }
  const bool dir_synced = ::fsync(dfd) == 0;
  const bool dir_closed = ::close(dfd) == 0;
  if (!dir_synced || !dir_closed) {
    ::close(fd);
    return Status::Internal("directory fsync failed on " + store_->dir());
  }
  if (fd_ >= 0 && ::close(fd_) != 0) {
    ::close(fd);
    return Status::Internal("close failed on " + segment_path_);
  }
  fd_ = fd;
  base_epoch_ = base;
  segment_path_ = path.string();
  file_offset_ = header.size();
  return Status::Ok();
}

bool WalWriter::RollbackLocked() {
  // The lseek must succeed too: appending past a failed seek would leave
  // a zero-filled hole that replay reads as a torn tail, hiding every
  // record after it.
  return ::ftruncate(fd_, static_cast<off_t>(file_offset_)) == 0 &&
         ::lseek(fd_, static_cast<off_t>(file_offset_), SEEK_SET) ==
             static_cast<off_t>(file_offset_);
}

Status WalWriter::AppendDurable(const UpdateBatch& batch, uint64_t epoch) {
  for (const Vec& row : batch.inserts) {
    if (row.size() != dim_) {
      return Status::InvalidArgument(
          "wal append: insert dimension " + std::to_string(row.size()) +
          " != wal dim " + std::to_string(dim_));
    }
  }
  const std::vector<uint8_t> payload = RecordPayload(batch, epoch, dim_);
  const std::vector<uint8_t> frame = FrameRecord(payload);

  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  if (epoch <= base_epoch_) {
    return Status::InvalidArgument(
        "wal append: epoch " + std::to_string(epoch) +
        " not past segment base " + std::to_string(base_epoch_));
  }

  size_t publish_len = frame.size();
  const uint8_t* publish_data = frame.data();
  std::vector<uint8_t> damaged;
  FaultInjector::WriteFault injected = FaultInjector::WriteFault::kNone;
  if (store_->injector() != nullptr) {
    const FaultInjector::WriteDecision d = store_->injector()->OnWalAppend();
    injected = d.fault;
    if (d.fault == FaultInjector::WriteFault::kTorn && frame.size() > 2) {
      publish_len =
          1 + static_cast<size_t>(
                  store_->injector()->ShapeDrawAt(
                      FaultInjector::Site::kWalAppend, d.op, 0) *
                  static_cast<double>(frame.size() - 2));
    } else if (d.fault == FaultInjector::WriteFault::kCorrupt &&
               payload.size() > 1) {
      damaged = frame;
      const size_t at =
          kFramePrefixBytes +
          static_cast<size_t>(store_->injector()->ShapeDrawAt(
                                  FaultInjector::Site::kWalAppend, d.op, 1) *
                              static_cast<double>(payload.size() - 1));
      damaged[at] ^= 0x40;
      publish_data = damaged.data();
    }
  }

  Status written = WriteFull(fd_, publish_data, publish_len, segment_path_);
  if (!written.ok()) {
    // A real write error: roll the partial frame back so the segment
    // tail stays clean, and fail the ack without poisoning — the
    // device may work again on the next batch.
    if (RollbackLocked()) return written;
    poison_ = Status::DataLoss("wal rollback failed after write error on " +
                               segment_path_);
    return poison_;
  }
  if (injected != FaultInjector::WriteFault::kNone) {
    // The injected damage models a crash mid-append (torn) or bit rot
    // under the write head (corrupt). Either way the bytes on disk are
    // wrong and the process cannot trust anything it appends after
    // them, so the writer is dead until recovery truncates the tail.
    // The batch is NOT acknowledged.
    poison_ = Status::DataLoss(
        std::string("injected ") +
        (injected == FaultInjector::WriteFault::kTorn ? "torn" : "corrupt") +
        " wal append (simulated crash) on " + segment_path_);
    return poison_;
  }
  ++appends_;
  appended_bytes_ += frame.size();

  Status synced = Status::Ok();
  if (store_->injector() != nullptr) {
    synced = store_->injector()->OnWalFsync();
  }
  if (synced.ok() && ::fsync(fd_) != 0) {
    synced = Status::Internal("fsync failed on " + segment_path_);
  }
  if (!synced.ok()) {
    // EIO on commit: the record is in an unknown on-disk state and its
    // ack must fail. Roll it back so an unacknowledged batch is never
    // replayed, then poison — after a failed fsync the kernel may have
    // dropped the dirty pages, and nothing appended later could be
    // trusted either.
    poison_ = RollbackLocked()
                  ? synced
                  : Status::DataLoss(
                        "wal rollback failed after fsync error on " +
                        segment_path_);
    return poison_;
  }
  file_offset_ += publish_len;
  ++fsyncs_;
  return Status::Ok();
}

Status WalWriter::Rotate(uint64_t new_base_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  if (new_base_epoch < base_epoch_) {
    return Status::InvalidArgument(
        "wal rotate: new base " + std::to_string(new_base_epoch) +
        " below current base " + std::to_string(base_epoch_));
  }
  if (new_base_epoch == base_epoch_) return Status::Ok();
  Status opened = OpenSegmentLocked(new_base_epoch);
  if (!opened.ok()) {
    // The old fd may already be closed; nothing is trustworthy now.
    poison_ = opened;
    return opened;
  }
  ++rotations_;
  return Status::Ok();
}

WalWriter::Stats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.appends = appends_;
  s.fsyncs = fsyncs_;
  s.appended_bytes = appended_bytes_;
  s.rotations = rotations_;
  return s;
}

}  // namespace gir
