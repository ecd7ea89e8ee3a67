#include "storage/snapshot_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "index/flat_rtree.h"
#include "storage/arena_file.h"

namespace gir {

namespace {

namespace fs = std::filesystem;

// True when a recovery candidate that failed to open is gone from its
// directory: GarbageCollect deleted it after the listing. A dangling
// symlink is still listed, so it counts as damaged and a rescan can
// never loop on it.
bool Vanished(const fs::path& path) {
  std::error_code ec;
  return fs::symlink_status(path, ec).type() == fs::file_type::not_found;
}

constexpr char kArenaPrefix[] = "arena-";
constexpr char kArenaSuffix[] = ".garn";

// Lists dir's arena-*.garn files sorted by name, which for the
// zero-padded epoch names is version order (directory iteration order
// is not deterministic). False when dir cannot be read.
bool ListCandidates(const std::string& dir, std::vector<fs::path>* out) {
  const std::string prefix = kArenaPrefix;
  const std::string suffix = kArenaSuffix;
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

// Parses the version out of a canonical arena filename
// (arena-<20 digits>.garn); false when the name is not ours.
bool ParseArenaName(const std::string& name, uint64_t* version) {
  const size_t plen = std::strlen(kArenaPrefix);
  const size_t slen = std::strlen(kArenaSuffix);
  if (name.size() <= plen + slen) return false;
  if (name.rfind(kArenaPrefix, 0) != 0) return false;
  if (name.compare(name.size() - slen, slen, kArenaSuffix) != 0) return false;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *version = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

constexpr size_t kNoFlip = SIZE_MAX;

// One OnSnapshotWrite fault decision, shaped onto the file about to be
// published (by WriteArena or by a replication ship).
struct FaultShape {
  size_t publish_len = 0;    // bytes published: a strict prefix when torn
  size_t flip_at = kNoFlip;  // offset of the one byte published flipped
};

// Shapes the decision onto a file of `bytes` bytes whose section table
// is `sections` (null when the file is too short to hold one: a torn
// ship source). kTorn shortens the published length to a strict
// nonempty prefix; kCorrupt flips one byte inside a section *payload* —
// the alignment padding between sections carries no data, so a flip
// there is not a loss and would never (and should never) be detected.
// A source without a table gets its middle byte flipped instead.
FaultShape ShapeArenaFault(FaultInjector* injector, size_t bytes,
                           const ArenaExtent* sections,
                           FaultInjector::WriteFault* injected) {
  FaultShape shape;
  shape.publish_len = bytes;
  if (injector == nullptr) return shape;
  const FaultInjector::WriteDecision d = injector->OnSnapshotWrite();
  *injected = d.fault;
  if (d.fault == FaultInjector::WriteFault::kTorn) {
    shape.publish_len =
        1 + static_cast<size_t>(injector->ShapeDraw(d.op, 0) *
                                static_cast<double>(bytes - 2));
  } else if (d.fault == FaultInjector::WriteFault::kCorrupt) {
    if (sections == nullptr) {
      shape.flip_at = bytes / 2;
      return shape;
    }
    uint64_t total = 0;
    for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
      total += sections[s].length;
    }
    uint64_t at = static_cast<uint64_t>(injector->ShapeDraw(d.op, 1) *
                                        static_cast<double>(total - 1));
    for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
      if (at < sections[s].length) {
        // A torn ship source may have lost the target byte: no flip.
        if (sections[s].offset + at < bytes) {
          shape.flip_at = static_cast<size_t>(sections[s].offset + at);
        }
        break;
      }
      at -= sections[s].length;
    }
  }
  return shape;
}

bool WriteAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// Writes `spans`, which start at file offset `at`, cut at
// shape.publish_len and with the byte at shape.flip_at flipped.
bool WriteShaped(int fd, const std::vector<ArenaSpan>& spans,
                 const FaultShape& shape, size_t at) {
  for (const ArenaSpan& span : spans) {
    if (at >= shape.publish_len) break;
    const uint8_t* p = static_cast<const uint8_t*>(span.data);
    const size_t n = std::min(span.len, shape.publish_len - at);
    if (shape.flip_at >= at && shape.flip_at - at < n) {
      const size_t k = shape.flip_at - at;
      const uint8_t flipped = p[k] ^ 0x40;
      if (!WriteAll(fd, p, k) || !WriteAll(fd, &flipped, 1) ||
          !WriteAll(fd, p + k + 1, n - k - 1)) {
        return false;
      }
    } else if (!WriteAll(fd, p, n)) {
      return false;
    }
    at += n;
  }
  return true;
}

// Writes a file's bytes to `fd`, shaped by a fault decision.
using WriteFile = std::function<bool(int fd, const FaultShape& shape)>;

// Crash-safe publish: temp file in the same directory, fsync the data,
// atomic rename onto the final name, fsync the directory entry. Shared
// by the arena writer and the replication ship.
Status PublishAtomically(const std::string& dir, const fs::path& final_path,
                         const WriteFile& write, const FaultShape& shape) {
  const fs::path tmp_path =
      fs::path(dir) / (final_path.filename().string() + ".tmp");
  {
    const int fd =
        ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
      return Status::Internal("cannot open " + tmp_path.string());
    }
    if (!write(fd, shape)) {
      ::close(fd);
      return Status::Internal("short write to " + tmp_path.string());
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

// Publishes the arena file `write` writes (`bytes` long, section table
// `sections`) as version `version` in `dir`, under one fault decision
// of `injector`. Shared by WriteArena and ShipArenaFrom.
Result<SnapshotStore::WriteStats> PublishArena(
    const std::string& dir, FaultInjector* injector, uint64_t version,
    size_t bytes, const ArenaExtent* sections, const WriteFile& write) {
  SnapshotStore::WriteStats stats;
  stats.bytes = bytes;

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot dir " + dir + ": " +
                            ec.message());
  }
  const fs::path final_path =
      fs::path(dir) / SnapshotStore::ArenaFileName(version);
  stats.path = final_path.string();

  // One fault decision per published file, shaped deterministically
  // from the decision's op ordinal.
  const FaultShape shape =
      ShapeArenaFault(injector, bytes, sections, &stats.injected);
  Status published = PublishAtomically(dir, final_path, write, shape);
  if (!published.ok()) return published;
  return stats;
}

}  // namespace

std::string SnapshotStore::ArenaFileName(uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "arena-%020llu.garn",
                static_cast<unsigned long long>(version));
  return buf;
}

Result<SnapshotStore::WriteStats> SnapshotStore::WriteArena(
    const FlatRTree& flat, uint64_t version) {
  const ArenaImage image(flat, version);
  return PublishArena(dir_, injector_, version, image.bytes(),
                      image.sections(), [&](int fd, const FaultShape& shape) {
                        return WriteShaped(fd, image.spans(), shape, 0);
                      });
}

// The recovery scan counts a candidate that is gone from the directory
// by the time it opens it as vanished, not rejected: GarbageCollect
// deleted it after the listing. GC deletes a file only once a newer
// valid epoch is published, so when a candidate newer than the best
// valid one (if any) vanished, the listing is stale: rescan, and find
// that epoch. Candidates are scanned oldest first, so "newer than the
// best" is "vanished after the best was picked".
Result<SnapshotStore::ArenaPick> SnapshotStore::RecoverLatestArena() const {
  std::vector<fs::path> candidates;
  for (;;) {
    if (!ListCandidates(dir_, &candidates)) {
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

std::vector<uint64_t> SnapshotStore::ListArenaVersions() const {
  std::vector<uint64_t> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_, ec)) {
    uint64_t v = 0;
    if (ParseArenaName(e.path().filename().string(), &v)) {
      out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<SnapshotStore::WriteStats> SnapshotStore::ShipArenaFrom(
    const SnapshotStore& src, uint64_t version) {
  const fs::path src_path = fs::path(src.dir()) / ArenaFileName(version);
  const int in = ::open(src_path.c_str(), O_RDONLY);
  struct stat st;
  if (in < 0 || ::fstat(in, &st) != 0 || st.st_size <= 0) {
    if (in >= 0) ::close(in);
    return Status::NotFound("no arena epoch " + std::to_string(version) +
                            " in " + src.dir());
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{in};
  const size_t bytes = static_cast<size_t>(st.st_size);
  // The source streams through one fixed-size buffer, so a ship adds no
  // file-sized resident set. The ship is a write on the receiving side:
  // it draws from the same injected-fault surface as a local publish,
  // because a replication transport fails the same ways a local disk
  // does. The source may be torn, so its section table is read
  // unchecked.
  constexpr size_t kChunk = size_t{1} << 18;
  std::unique_ptr<uint8_t[]> buf(new uint8_t[kChunk]);
  const size_t head = std::min(bytes, kChunk);
  if (!PreadFull(in, buf.get(), head, 0)) {
    return Status::Internal("cannot read " + src_path.string());
  }
  ArenaExtent sections[kArenaSectionCount];
  const bool has_table = PeekArenaSections(buf.get(), head, sections);
  return PublishArena(
      dir_, injector_, version, bytes, has_table ? sections : nullptr,
      [&](int fd, const FaultShape& shape) {
        for (size_t at = 0; at < shape.publish_len; at += kChunk) {
          const size_t n = std::min(kChunk, bytes - at);
          if (!PreadFull(in, buf.get(), n, at) ||
              !WriteShaped(fd, {{buf.get(), n}}, shape, at)) {
            return false;
          }
        }
        return true;
      });
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
  std::vector<Candidate> cands;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_, ec)) {
    uint64_t v = 0;
    if (ParseArenaName(e.path().filename().string(), &v)) {
      cands.push_back(
          {e.path(), v, ArenaFile::Verify(e.path().string()).ok()});
    }
  }
  if (ec) {
    return Status::NotFound("no snapshot directory at " + dir_);
  }

  // Newest first; a file is reclaimed only when a newer valid epoch
  // exists and it is not one of the `keep_last_n` newest valid files —
  // so the newest valid epoch always survives, and damaged files newer
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
  GcStats out;
  size_t valid_seen = 0;
  for (const Candidate& c : cands) {
    if (c.valid) ++valid_seen;
    const bool reclaim = have_newest_valid && c.version < newest_valid &&
                         !(c.valid && valid_seen <= keep_last_n);
    if (reclaim) {
      std::error_code rm_ec;
      if (fs::remove(c.path, rm_ec) && !rm_ec) {
        ++out.removed_arenas;
        continue;
      }
    }
    ++out.kept;
  }
  return out;
}

}  // namespace gir
