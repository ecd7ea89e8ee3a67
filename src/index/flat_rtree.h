#ifndef GIR_INDEX_FLAT_RTREE_H_
#define GIR_INDEX_FLAT_RTREE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/rtree.h"
#include "storage/arena_file.h"

namespace gir {

class ThreadPool;

// Read-only image of an RTree, produced by Freeze() — or mapped
// straight from an on-disk arena file by FromArena().
//
// The image and the mutable tree keep their nodes in one layout, the
// arena's page format (NodePages), so Freeze copies the master's
// arrays. Inside a node the entry coordinates are SoA planes — for each
// dimension j the `lo` values of all entries are contiguous, then the
// `hi` values — so a batched kernel can stream `w_j * g_j(hi_j[e])`
// over whole planes.
//
// Storage is pointer-rebased: the four arrays are reached through raw
// base pointers that aim either at the image's own heap copy (Freeze)
// or directly into a read-only mmap of an arena file (FromArena). The
// mapped variant keeps the ArenaFile alive through a shared_ptr, so an
// epoch swap munmaps the old file exactly when the last pinned reader
// drains. Both variants serve bit-identical bytes — the on-disk
// sections are written from the arrays unmodified — so every traversal,
// score and IoStats count is identical across them (property-tested per
// SIMD tier).
//
// Every query algorithm runs on this image; the mutable tree only
// builds and updates, and RTree::Thaw copies an image back. Page ids
// are preserved 1:1 from the source tree, and ReadNode charges exactly
// one simulated page read per node access. Leaf entry planes hold the
// record coordinates themselves (a leaf MBB is its point), which is
// what makes leaf scoring a pure SoA streaming loop.
class FlatRTree : public NodePages {
 public:
  using NodeView = gir::NodeView;

  // An empty image (no nodes, invalid root); assign a Freeze result to
  // make it usable. Lets snapshot holders default-construct in place.
  FlatRTree() = default;

  // Copies `tree`'s page arrays. The source tree's disk manager (and,
  // without an override, its dataset) must outlive the frozen image; the
  // freeze itself charges no simulated I/O (it copies pages already
  // written).
  //
  // `dataset_override` (when non-null) is the dataset the image — and
  // every query over it — will read instead of the tree's own: the
  // update subsystem freezes against an immutable per-epoch dataset
  // copy so in-flight readers never observe the master mutating. The
  // override must hold bit-identical coordinates for every record id in
  // the tree.
  //
  // `pool` (when non-null) copies node ranges in parallel; the image is
  // the same bytes either way. Open and recovery pass their set-up pool;
  // ApplyUpdates freezes inline.
  static FlatRTree Freeze(const RTree& tree,
                          const Dataset* dataset_override = nullptr,
                          ThreadPool* pool = nullptr);

  // Maps an image straight from a validated arena file: all four page
  // arrays are served from the read-only mapping (no copy; the kernel
  // pages them in on demand). `dataset` must be the record image the
  // arena was written with (ArenaFile::BuildDataset) and must outlive
  // the image; the shared_ptr keeps the mapping alive for as long as
  // any reader holds this image. InvalidArgument when
  // the dataset's shape does not match the arena's header; DataLoss when
  // a node is inconsistent (entry count over capacity, leaf flag not
  // matching level 0, leaf record id outside the dataset, child page out
  // of range or not one level below its parent, a reached internal page
  // with fewer than two entries).
  static Result<FlatRTree> FromArena(std::shared_ptr<const ArenaFile> arena,
                                     const Dataset* dataset,
                                     DiskManager* disk);

  // Node access, charging one simulated page read. Accounting-only and
  // infallible — used by the Phase-2 continuations, which re-expand
  // pending nodes already resident; the fallible traversals fetch
  // through FetchPage instead.
  NodeView ReadNode(PageId page) const {
    disk_->NoteRead();
    return PeekNode(page);
  }

  // Checked fetch of one page: charges the read through the
  // DiskManager's fault-injectable ReadPage path.
  Status FetchPage(PageId page) const { return disk_->ReadPage(page); }

 private:
  // Owned storage (Freeze). Null when arena-backed.
  std::unique_ptr<ArenaNodeMeta[]> meta_;
  std::unique_ptr<double[]> boxes_;
  std::unique_ptr<double[]> coords_;
  std::unique_ptr<int32_t[]> children_;
  // Mapping keepalive (FromArena only).
  std::shared_ptr<const ArenaFile> arena_;
};

}  // namespace gir

#endif  // GIR_INDEX_FLAT_RTREE_H_
