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

// Read-only, cache-friendly image of an RTree, produced by Freeze() —
// or mapped straight from an on-disk arena file by FromArena().
//
// The mutable tree stores one heap-allocated std::vector<RTreeEntry> per
// node with AoS Mbb objects, which defeats locality and vectorization on
// the query hot loops (per-entry maxscore bounding, leaf point scoring).
// FlatRTree repacks every node into one contiguous arena with a fixed
// per-node stride; inside a node the entry coordinates are stored as SoA
// planes — for each dimension j, the `lo` values of all entries are
// contiguous, then the `hi` values — so a batched kernel can stream
// `w_j * g_j(hi_j[e])` over whole planes.
//
// Storage is pointer-rebased: the hot arrays (coordinate planes,
// children) are reached through raw base pointers that aim either at
// the image's own heap vectors (Freeze) or directly into a read-only
// mmap of an arena file (FromArena). The mapped variant keeps the
// ArenaFile alive through a shared_ptr, so an epoch swap munmaps the
// old file exactly when the last pinned reader drains. Both variants
// serve bit-identical bytes — the on-disk sections are written from the
// frozen vectors unmodified — so every traversal, score and IoStats
// count is identical across them (property-tested per SIMD tier).
//
// Every query algorithm runs on this image; the mutable tree only
// builds and updates, and RTree::Thaw rebuilds it from an image. Page
// ids are preserved 1:1 from the source tree, and ReadNode charges
// exactly one simulated page read per node access. Leaf entry planes
// hold the record coordinates themselves (a leaf MBB is its point),
// which is what makes leaf scoring a pure SoA streaming loop.
// Fixed-size per-node header of the flat arena (an implementation
// detail of FlatRTree, at namespace scope only so NodeView's inline
// accessors can see the complete type).
struct FlatNodeMeta {
  uint32_t count = 0;
  int32_t level = 0;
  bool is_leaf = true;
  Mbb mbb;
};

class FlatRTree {
 public:
  // Lightweight accessor for one node of the arena. Cheap to copy; valid
  // as long as the FlatRTree is alive and unmoved.
  class NodeView {
   public:
    bool is_leaf() const { return meta_->is_leaf; }
    int level() const { return meta_->level; }
    size_t count() const { return meta_->count; }
    // The node's own MBB (union of its entries), captured at freeze.
    const Mbb& mbb() const { return meta_->mbb; }

    const int32_t* children() const { return children_; }
    int32_t child(size_t e) const { return children_[e]; }

    // SoA planes: count() contiguous doubles per dimension.
    const double* lo(size_t j) const { return coords_ + j * cap_; }
    const double* hi(size_t j) const { return coords_ + (dim_ + j) * cap_; }
    // Distance in doubles between consecutive planes (the capacity).
    size_t plane_stride() const { return cap_; }

    // Materializes entry `e` as an Mbb (bitwise equal to the source
    // RTreeEntry::mbb). Used where a traversal retains a box, e.g. in
    // PendingNode; the hot score loops read the planes directly.
    Mbb EntryMbb(size_t e) const;

    // In-place variant: resizes out's corners to the tree
    // dimensionality (a no-op when the Mbb is being recycled) and fills
    // them with entry e's box. The shared-traversal executor drains
    // pending nodes through this so a warmed output vector is refilled
    // without touching the heap.
    void EntryMbbInto(size_t e, Mbb* out) const;

    // Copies entry `e`'s top corner (hi coordinates) into `out`,
    // resizing it to the tree dimensionality.
    void EntryTopCorner(size_t e, Vec* out) const;

   private:
    friend class FlatRTree;
    NodeView(const FlatNodeMeta* meta, const double* coords,
             const int32_t* children, size_t dim, size_t cap)
        : meta_(meta),
          coords_(coords),
          children_(children),
          dim_(dim),
          cap_(cap) {}

    const FlatNodeMeta* meta_;
    const double* coords_;
    const int32_t* children_;
    size_t dim_;
    size_t cap_;
  };

  // An empty image (no nodes, invalid root); assign a Freeze result to
  // make it usable. Lets snapshot holders default-construct in place.
  FlatRTree() = default;

  // The base pointers track the owned vectors, so moves re-anchor them
  // and copies are forbidden (a copy would alias the source's buffers).
  FlatRTree(FlatRTree&& other) noexcept { *this = std::move(other); }
  FlatRTree& operator=(FlatRTree&& other) noexcept;
  FlatRTree(const FlatRTree&) = delete;
  FlatRTree& operator=(const FlatRTree&) = delete;

  // Compacts `tree` into the flat arena. The source tree, its dataset
  // and disk manager must outlive the frozen image; the freeze itself
  // charges no simulated I/O (it repacks pages already written).
  //
  // `dataset_override` (when non-null) is the dataset the image — and
  // every query over it — will read instead of the tree's own: the
  // update subsystem freezes against an immutable per-epoch dataset
  // copy so in-flight readers never observe the master mutating. The
  // override must hold bit-identical coordinates for every record id in
  // the tree.
  //
  // `pool` (when non-null) packs node ranges in parallel; the image is
  // the same bytes either way. Open and recovery pass their set-up pool;
  // ApplyUpdates freezes inline.
  static FlatRTree Freeze(const RTree& tree,
                          const Dataset* dataset_override = nullptr,
                          ThreadPool* pool = nullptr);

  // Maps an image straight from a validated arena file: the coordinate
  // planes and children arrays are served from the read-only mapping
  // (no copy; the kernel pages them in on demand), only the small
  // per-node metadata is rebuilt on the heap. `dataset` must be the
  // record image the arena was written with (ArenaFile::BuildDataset)
  // and must outlive the image; the shared_ptr keeps the mapping alive
  // for as long as any reader holds this image. InvalidArgument when
  // the dataset's shape does not match the arena's header; DataLoss when
  // a node is inconsistent (entry count over capacity, leaf flag not
  // matching level 0, leaf record id outside the dataset, child page out
  // of range or not one level below its parent).
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
  // Accounting-free access for tests and validation.
  NodeView PeekNode(PageId page) const {
    const size_t p = page;
    return NodeView(&meta_[p], coords_base_ + p * node_stride_,
                    children_base_ + p * capacity_, dim_, capacity_);
  }

  // Checked fetch of one page: charges the read through the
  // DiskManager's fault-injectable ReadPage path, and — when the image
  // is arena-backed — physically touches the node's mapped bytes so
  // the page-in cost lands inside the charged read. `resident` (may be
  // null) reports whether the mapped page was already resident
  // (prefetch hit signal); always true for heap-backed images.
  Status FetchPage(PageId page, bool* resident = nullptr) const {
    Status read = disk_->ReadPage(page);
    if (arena_ != nullptr) {
      const bool was = arena_->TouchNode(page);
      if (resident != nullptr) *resident = was;
      if (read.ok()) disk_->NotePrefetchTouch(was);
    } else if (resident != nullptr) {
      *resident = true;
    }
    return read;
  }

  // True when the image serves its arrays from an mmap'd arena file.
  bool arena_backed() const { return arena_ != nullptr; }
  const std::shared_ptr<const ArenaFile>& arena() const { return arena_; }

  // Asks the kernel to read ahead `n` nodes' mapped ranges
  // (madvise(MADV_WILLNEED)) and accounts the issue; no-op on
  // heap-backed images. The shared-traversal executor calls this with
  // the union page set of the upcoming lockstep round.
  void PrefetchPages(const PageId* pages, size_t n) const {
    if (arena_ == nullptr || n == 0) return;
    arena_->PrefetchNodes(pages, n);
    disk_->NotePrefetchIssued(n);
  }

  PageId root() const { return root_; }
  size_t height() const;  // number of levels (1 = root is a leaf)
  size_t size() const { return record_count_; }
  size_t node_count() const { return meta_.size(); }
  size_t Capacity() const { return capacity_; }

  // All record ids whose point intersects `box` (accounting-free; used
  // by tests to cross-check against the mutable tree).
  std::vector<RecordId> RangeQuery(const Mbb& box) const;

  const Dataset& dataset() const { return *dataset_; }
  DiskManager* disk() const { return disk_; }

 private:
  const Dataset* dataset_ = nullptr;
  DiskManager* disk_ = nullptr;
  size_t dim_ = 0;
  size_t capacity_ = 0;
  size_t node_stride_ = 0;  // doubles per node behind coords_base_
  // Owned storage (Freeze). Null when arena-backed.
  std::unique_ptr<double[]> coords_;
  std::unique_ptr<int32_t[]> children_;
  // Hot-array bases: the owned vectors' data, or spans of the mapping.
  const double* coords_base_ = nullptr;
  const int32_t* children_base_ = nullptr;
  // Mapping keepalive (FromArena only).
  std::shared_ptr<const ArenaFile> arena_;
  std::vector<FlatNodeMeta> meta_;
  PageId root_ = kInvalidPage;
  size_t record_count_ = 0;
};

}  // namespace gir

#endif  // GIR_INDEX_FLAT_RTREE_H_
