#include "storage/snapshot_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/crc32.h"
#include "index/flat_rtree.h"
#include "index/rtree_codec.h"
#include "storage/arena_file.h"

namespace gir {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kSectionDataset = 1;
constexpr uint32_t kSectionRtree = 2;
// magic + format + version + section count + header CRC.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;

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

// Bounds-checked reader; every accessor fails instead of overrunning,
// so a truncated file can never walk the parser off the buffer.
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

std::vector<uint8_t> DatasetPayload(const Dataset& d) {
  std::vector<uint8_t> out;
  AppendU64(&out, d.dim());
  AppendU64(&out, d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    const VecView row = d.Get(static_cast<RecordId>(i));
    AppendBytes(&out, row.data(), row.size() * sizeof(double));
  }
  std::vector<int32_t> dead;
  for (size_t i = 0; i < d.size(); ++i) {
    if (!d.IsLive(static_cast<RecordId>(i))) {
      dead.push_back(static_cast<int32_t>(i));
    }
  }
  AppendU64(&out, dead.size());
  AppendBytes(&out, dead.data(), dead.size() * sizeof(int32_t));
  return out;
}

Result<std::unique_ptr<Dataset>> ParseDataset(const uint8_t* p, size_t n) {
  Cursor c{p, n};
  uint64_t dim = 0;
  uint64_t count = 0;
  if (!c.U64(&dim) || !c.U64(&count) || dim == 0) {
    return Status::DataLoss("snapshot dataset section malformed");
  }
  // The coordinate block must fit what the section actually holds.
  if (count > (n - c.at) / sizeof(double) / dim) {
    return Status::DataLoss("snapshot dataset section truncated");
  }
  auto out = std::make_unique<Dataset>(static_cast<size_t>(dim));
  out->Reserve(static_cast<size_t>(count));
  std::vector<double> row(static_cast<size_t>(dim));
  for (uint64_t i = 0; i < count; ++i) {
    if (!c.Bytes(row.data(), row.size() * sizeof(double))) {
      return Status::DataLoss("snapshot dataset section truncated");
    }
    out->Append(VecView(row.data(), row.size()));
  }
  uint64_t dead_count = 0;
  if (!c.U64(&dead_count) || dead_count > count) {
    return Status::DataLoss("snapshot dataset tombstones malformed");
  }
  for (uint64_t i = 0; i < dead_count; ++i) {
    int32_t id = 0;
    if (!c.Bytes(&id, sizeof(id)) || id < 0 ||
        static_cast<uint64_t>(id) >= count) {
      return Status::DataLoss("snapshot dataset tombstones malformed");
    }
    out->MarkDeleted(id);
  }
  if (c.at != n) {
    return Status::DataLoss("snapshot dataset section has trailing bytes");
  }
  return out;
}

struct ParsedSnapshot {
  uint64_t version = 0;
  const uint8_t* dataset = nullptr;
  size_t dataset_len = 0;
  const uint8_t* rtree = nullptr;
  size_t rtree_len = 0;
};

// Full structural + checksum validation; false on any damage. This is
// the recovery gate: a file only counts as a restore candidate when
// every byte it claims to hold is present and every section checksum
// matches.
bool ValidateAndParse(const std::vector<uint8_t>& file, ParsedSnapshot* out) {
  Cursor c{file.data(), file.size()};
  uint32_t magic = 0;
  uint32_t format = 0;
  uint32_t sections = 0;
  uint32_t header_crc = 0;
  if (!c.U32(&magic) || magic != kSnapshotMagic) return false;
  if (!c.U32(&format) || format != kSnapshotFormat) return false;
  if (!c.U64(&out->version)) return false;
  if (!c.U32(&sections)) return false;
  if (!c.U32(&header_crc)) return false;
  if (header_crc != Crc32(file.data(), kHeaderBytes - 4)) return false;
  for (uint32_t s = 0; s < sections; ++s) {
    uint32_t kind = 0;
    uint32_t crc = 0;
    uint64_t len = 0;
    if (!c.U32(&kind) || !c.U32(&crc) || !c.U64(&len)) return false;
    if (len > file.size() - c.at) return false;
    const uint8_t* payload = file.data() + c.at;
    if (crc != Crc32(payload, static_cast<size_t>(len))) return false;
    if (kind == kSectionDataset) {
      out->dataset = payload;
      out->dataset_len = static_cast<size_t>(len);
    } else if (kind == kSectionRtree) {
      out->rtree = payload;
      out->rtree_len = static_cast<size_t>(len);
    }
    // Unknown kinds are legal (newer writers): checksummed and skipped.
    c.at += static_cast<size_t>(len);
  }
  uint32_t footer = 0;
  if (!c.U32(&footer) || footer != kSnapshotFooter) return false;
  if (c.at != file.size()) return false;  // trailing garbage
  return out->dataset != nullptr && out->rtree != nullptr;
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

// True when a recovery candidate that failed to open is gone from its
// directory: GarbageCollect deleted it after the listing. A dangling
// symlink is still listed, so it counts as damaged and a rescan can
// never loop on it.
bool Vanished(const fs::path& path) {
  std::error_code ec;
  return fs::symlink_status(path, ec).type() == fs::file_type::not_found;
}

// Lists dir's `prefix*suffix` files sorted by name, which for the
// zero-padded epoch names is version order (directory iteration order
// is not deterministic). False when dir cannot be read.
bool ListCandidates(const std::string& dir, const std::string& prefix,
                    const std::string& suffix, std::vector<fs::path>* out) {
  out->clear();
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() > suffix.size() && name.rfind(prefix, 0) == 0 &&
        name.substr(name.size() - suffix.size()) == suffix) {
      out->push_back(e.path());
    }
  }
  if (ec) return false;
  std::sort(out->begin(), out->end());
  return true;
}

// Applies one OnSnapshotWrite fault decision to an arena image about
// to be published (by WriteArena or by a replication ship): kTorn
// shortens the published length to a strict nonempty prefix, kCorrupt
// flips one byte inside a section *payload* — the alignment padding
// between sections carries no data, so a flip there is not a loss and
// would never (and should never) be detected. The section table sits
// right after the fixed header fields; each 32-byte entry holds u64
// offset / u64 length at bytes 8 / 16.
size_t ShapeArenaFault(FaultInjector* injector, std::vector<uint8_t>* file,
                       FaultInjector::WriteFault* injected) {
  size_t publish_len = file->size();
  if (injector == nullptr) return publish_len;
  const FaultInjector::WriteDecision d = injector->OnSnapshotWrite();
  *injected = d.fault;
  if (d.fault == FaultInjector::WriteFault::kTorn) {
    publish_len = 1 + static_cast<size_t>(
                          injector->ShapeDraw(d.op, 0) *
                          static_cast<double>(file->size() - 2));
  } else if (d.fault == FaultInjector::WriteFault::kCorrupt) {
    constexpr size_t kHeaderFixed = 80;
    constexpr size_t kEntryBytes = 32;
    if (file->size() < kHeaderFixed + kArenaSectionCount * kEntryBytes) {
      // Shipping an already-torn source: no intact section table to
      // aim at; flip the middle byte instead.
      (*file)[file->size() / 2] ^= 0x40;
      return publish_len;
    }
    uint64_t total = 0;
    uint64_t offsets[kArenaSectionCount];
    uint64_t lengths[kArenaSectionCount];
    for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
      const uint8_t* entry = file->data() + kHeaderFixed + s * kEntryBytes;
      std::memcpy(&offsets[s], entry + 8, sizeof(uint64_t));
      std::memcpy(&lengths[s], entry + 16, sizeof(uint64_t));
      total += lengths[s];
    }
    uint64_t at = static_cast<uint64_t>(injector->ShapeDraw(d.op, 1) *
                                        static_cast<double>(total - 1));
    for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
      if (at < lengths[s] && offsets[s] + at < file->size()) {
        (*file)[offsets[s] + at] ^= 0x40;
        break;
      }
      if (at < lengths[s]) break;  // torn source: flip target truncated away
      at -= lengths[s];
    }
  }
  return publish_len;
}

// Crash-safe publish: temp file in the same directory, fsync the data,
// atomic rename onto the final name, fsync the directory entry. Shared
// by the snapshot and arena writers.
Status PublishAtomically(const std::string& dir, const fs::path& final_path,
                         const uint8_t* data, size_t publish_len) {
  const fs::path tmp_path =
      fs::path(dir) / (final_path.filename().string() + ".tmp");
  {
    const int fd =
        ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
      return Status::Internal("cannot open " + tmp_path.string());
    }
    size_t off = 0;
    while (off < publish_len) {
      const ssize_t w = ::write(fd, data + off, publish_len - off);
      if (w <= 0) {
        ::close(fd);
        return Status::Internal("short write to " + tmp_path.string());
      }
      off += static_cast<size_t>(w);
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      return Status::Internal("fsync failed on " + tmp_path.string());
    }
    // A failed close can be the first report of a deferred write error
    // (NFS, some local filesystems flush on close): the publish did not
    // happen, and pretending otherwise would acknowledge lost data.
    if (::close(fd) != 0) {
      return Status::Internal("close failed on " + tmp_path.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::Internal("rename to " + final_path.string() +
                            " failed: " + ec.message());
  }
  // The rename itself is only durable once the directory entry is: a
  // dir-fsync failure means the publish may vanish on power loss, so it
  // fails the write instead of being best-effort.
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    return Status::Internal("cannot open dir " + dir + " for fsync");
  }
  const bool dir_synced = ::fsync(dfd) == 0;
  const bool dir_closed = ::close(dfd) == 0;
  if (!dir_synced || !dir_closed) {
    return Status::Internal("directory fsync failed on " + dir);
  }
  return Status::Ok();
}

}  // namespace

std::string SnapshotStore::FileName(uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.gsnp",
                static_cast<unsigned long long>(version));
  return buf;
}

Result<SnapshotStore::WriteStats> SnapshotStore::WriteSnapshot(
    const Dataset& dataset, const RTree& tree, uint64_t version) {
  Result<std::vector<uint8_t>> image = SaveRTreeImage(tree);
  if (!image.ok()) return image.status();
  const std::vector<uint8_t> ds = DatasetPayload(dataset);

  std::vector<uint8_t> file;
  file.reserve(kHeaderBytes + ds.size() + image->size() + 64);
  AppendU32(&file, kSnapshotMagic);
  AppendU32(&file, kSnapshotFormat);
  AppendU64(&file, version);
  AppendU32(&file, 2);  // section count
  AppendU32(&file, Crc32(file.data(), file.size()));
  const auto append_section = [&file](uint32_t kind,
                                      const std::vector<uint8_t>& payload) {
    AppendU32(&file, kind);
    AppendU32(&file, Crc32(payload.data(), payload.size()));
    AppendU64(&file, payload.size());
    AppendBytes(&file, payload.data(), payload.size());
  };
  append_section(kSectionDataset, ds);
  append_section(kSectionRtree, *image);
  AppendU32(&file, kSnapshotFooter);

  WriteStats stats;
  stats.bytes = file.size();

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot dir " + dir_ + ": " +
                            ec.message());
  }
  const fs::path final_path = fs::path(dir_) / FileName(version);
  stats.path = final_path.string();

  // One fault decision per published file, shaped deterministically
  // from the decision's op ordinal.
  size_t publish_len = file.size();
  if (injector_ != nullptr) {
    const FaultInjector::WriteDecision d = injector_->OnSnapshotWrite();
    stats.injected = d.fault;
    if (d.fault == FaultInjector::WriteFault::kTorn) {
      // The modeled crash: rename durable, tail data blocks not — the
      // final name holds a strict prefix. Always at least one byte
      // short, never empty (both extremes are separately interesting
      // but the schedule should hit the middle).
      publish_len = 1 + static_cast<size_t>(
                            injector_->ShapeDraw(d.op, 0) *
                            static_cast<double>(file.size() - 2));
    } else if (d.fault == FaultInjector::WriteFault::kCorrupt) {
      // Bit rot after publish: flip one byte past the header (so only
      // a section checksum — not the magic — can catch it), sparing
      // the footer.
      const size_t span = file.size() - kHeaderBytes - sizeof(uint32_t);
      const size_t at =
          kHeaderBytes + static_cast<size_t>(injector_->ShapeDraw(d.op, 1) *
                                             static_cast<double>(span));
      file[at] ^= 0x40;
    }
  }

  Status published =
      PublishAtomically(dir_, final_path, file.data(), publish_len);
  if (!published.ok()) return published;
  return stats;
}

std::string SnapshotStore::ArenaFileName(uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "arena-%020llu.garn",
                static_cast<unsigned long long>(version));
  return buf;
}

Result<SnapshotStore::WriteStats> SnapshotStore::WriteArena(
    const FlatRTree& flat, uint64_t version) {
  std::vector<uint8_t> file = BuildArenaImage(flat, version);

  WriteStats stats;
  stats.bytes = file.size();

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot dir " + dir_ + ": " +
                            ec.message());
  }
  const fs::path final_path = fs::path(dir_) / ArenaFileName(version);
  stats.path = final_path.string();

  // Same fault surface as WriteSnapshot: one decision per published
  // file, shaped deterministically from the decision's op ordinal.
  const size_t publish_len = ShapeArenaFault(injector_, &file, &stats.injected);

  Status published =
      PublishAtomically(dir_, final_path, file.data(), publish_len);
  if (!published.ok()) return published;
  return stats;
}

// Both recovery scans count a candidate that is gone from the directory
// by the time they open it as vanished, not rejected: GarbageCollect
// deleted it after the listing. GC deletes a file only once a newer
// valid epoch is published, so when a candidate newer than the best
// valid one (if any) vanished, the listing is stale: rescan, and find
// that epoch. Candidates are scanned oldest first, so "newer than the
// best" is "vanished after the best was picked".
Result<SnapshotStore::ArenaPick> SnapshotStore::RecoverLatestArena() const {
  std::vector<fs::path> candidates;
  for (;;) {
    if (!ListCandidates(dir_, "arena-", ".garn", &candidates)) {
      return Status::NotFound("no snapshot directory at " + dir_);
    }
    ArenaPick out;
    bool found = false;
    bool lost_newer = false;
    for (const fs::path& path : candidates) {
      ++out.scanned;
      // Full validation (header + every section CRC). The winning
      // mapping is kept open and handed to the caller — re-opening
      // would checksum the whole file a second time, doubling the
      // cold-restart cost this path exists to cut.
      Result<std::shared_ptr<const ArenaFile>> arena =
          ArenaFile::Open(path.string());
      if (!arena.ok()) {
        if (Vanished(path)) {
          lost_newer = true;
        } else {
          ++out.rejected;
        }
        continue;
      }
      if (!found || (*arena)->version() > out.version) {
        found = true;
        lost_newer = false;
        out.version = (*arena)->version();
        out.path = path.string();
        out.file = std::move(*arena);
      }
    }
    if (lost_newer) continue;
    if (!found) {
      return Status::NotFound(
          "no valid arena in " + dir_ + " (" + std::to_string(out.scanned) +
          " scanned, " + std::to_string(out.rejected) + " rejected)");
    }
    return out;
  }
}

Result<SnapshotStore::Recovered> SnapshotStore::RecoverLatest(
    DiskManager* disk) const {
  Recovered out;
  std::vector<fs::path> candidates;
  std::vector<uint8_t> best_file;
  ParsedSnapshot best;
  std::vector<uint8_t> file;
  for (;;) {
    if (!ListCandidates(dir_, "snapshot-", ".gsnp", &candidates)) {
      return Status::NotFound("no snapshot directory at " + dir_);
    }
    out = Recovered();
    bool found = false;
    bool lost_newer = false;
    for (const fs::path& path : candidates) {
      ++out.scanned;
      ParsedSnapshot parsed;
      if (!ReadWholeFile(path, &file)) {
        if (Vanished(path)) {
          lost_newer = true;
        } else {
          ++out.rejected;
        }
        continue;
      }
      if (!ValidateAndParse(file, &parsed)) {
        ++out.rejected;
        continue;
      }
      if (!found || parsed.version > best.version) {
        best_file.swap(file);
        // Re-anchor the parsed spans into the retained buffer.
        if (!ValidateAndParse(best_file, &best)) {
          ++out.rejected;  // unreachable: same bytes just validated
          found = false;
          continue;
        }
        found = true;
        lost_newer = false;
        out.path = path.string();
      }
    }
    if (lost_newer) continue;
    if (!found) {
      return Status::NotFound(
          "no valid snapshot in " + dir_ + " (" + std::to_string(out.scanned) +
          " scanned, " + std::to_string(out.rejected) + " rejected)");
    }
    break;
  }

  Result<std::unique_ptr<Dataset>> dataset =
      ParseDataset(best.dataset, best.dataset_len);
  if (!dataset.ok()) return dataset.status();
  std::vector<uint8_t> image(best.rtree, best.rtree + best.rtree_len);
  Result<RTree> tree = LoadRTreeImage(dataset->get(), disk, image);
  if (!tree.ok()) return tree.status();

  out.version = best.version;
  out.dataset = std::move(*dataset);
  out.tree.emplace(std::move(*tree));
  return out;
}

namespace {

// Parses the version out of a canonical epoch filename
// (prefix-<20 digits>.suffix); false when the name is not ours.
bool ParseEpochName(const std::string& name, const char* prefix,
                    const char* suffix, uint64_t* version) {
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.rfind(prefix, 0) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *version = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

}  // namespace

std::vector<uint64_t> SnapshotStore::ListArenaVersions() const {
  std::vector<uint64_t> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_, ec)) {
    uint64_t v = 0;
    if (ParseEpochName(e.path().filename().string(), "arena-", ".garn", &v)) {
      out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<SnapshotStore::WriteStats> SnapshotStore::ShipArenaFrom(
    const SnapshotStore& src, uint64_t version) {
  const fs::path src_path = fs::path(src.dir()) / ArenaFileName(version);
  std::vector<uint8_t> file;
  if (!ReadWholeFile(src_path, &file) || file.empty()) {
    return Status::NotFound("no arena epoch " + std::to_string(version) +
                            " in " + src.dir());
  }

  WriteStats stats;
  stats.bytes = file.size();

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot dir " + dir_ + ": " +
                            ec.message());
  }
  const fs::path final_path = fs::path(dir_) / ArenaFileName(version);
  stats.path = final_path.string();

  // The ship is a write on the receiving side: it draws from the same
  // injected-fault surface as a local publish, because a replication
  // transport fails the same ways a local disk does.
  const size_t publish_len = ShapeArenaFault(injector_, &file, &stats.injected);

  Status published =
      PublishAtomically(dir_, final_path, file.data(), publish_len);
  if (!published.ok()) return published;
  return stats;
}

Result<SnapshotStore::GcStats> SnapshotStore::GarbageCollect(
    size_t keep_last_n) {
  if (keep_last_n == 0) {
    return Status::InvalidArgument(
        "GarbageCollect keep_last_n must be >= 1 (the newest valid epoch is "
        "never deleted)");
  }
  struct Candidate {
    fs::path path;
    uint64_t version = 0;
    bool valid = false;
  };
  std::vector<Candidate> snaps;
  std::vector<Candidate> arenas;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_, ec)) {
    const std::string name = e.path().filename().string();
    uint64_t v = 0;
    if (ParseEpochName(name, "snapshot-", ".gsnp", &v)) {
      snaps.push_back({e.path(), v, false});
    } else if (ParseEpochName(name, "arena-", ".garn", &v)) {
      arenas.push_back({e.path(), v, false});
    }
  }
  if (ec) {
    return Status::NotFound("no snapshot directory at " + dir_);
  }
  std::vector<uint8_t> buf;
  for (Candidate& c : snaps) {
    ParsedSnapshot parsed;
    c.valid = ReadWholeFile(c.path, &buf) && ValidateAndParse(buf, &parsed);
  }
  for (Candidate& c : arenas) {
    c.valid = ArenaFile::Open(c.path.string()).ok();
  }

  GcStats out;
  const auto sweep = [&out](std::vector<Candidate>& cands, size_t keep,
                            size_t* removed) {
    // Newest first; a file is reclaimed only when a newer valid epoch
    // exists and it is not one of the `keep` newest valid files — so
    // the newest valid epoch always survives, and damaged files newer
    // than it are left alone (they may matter to a post-mortem, and
    // recovery rejects them anyway).
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.version > b.version;
              });
    bool have_newest_valid = false;
    uint64_t newest_valid = 0;
    for (const Candidate& c : cands) {
      if (c.valid) {
        newest_valid = c.version;
        have_newest_valid = true;
        break;
      }
    }
    size_t valid_seen = 0;
    for (const Candidate& c : cands) {
      if (c.valid) ++valid_seen;
      const bool reclaim = have_newest_valid && c.version < newest_valid &&
                           !(c.valid && valid_seen <= keep);
      if (reclaim) {
        std::error_code rm_ec;
        if (fs::remove(c.path, rm_ec) && !rm_ec) {
          ++*removed;
          continue;
        }
      }
      ++out.kept;
    }
  };
  sweep(snaps, keep_last_n, &out.removed_snapshots);
  sweep(arenas, keep_last_n, &out.removed_arenas);
  return out;
}

}  // namespace gir
