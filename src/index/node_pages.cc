#include "index/node_pages.h"

#include "common/simd.h"

namespace gir {

Mbb NodeView::mbb() const {
  Mbb box;
  MbbInto(&box);
  return box;
}

void NodeView::MbbInto(Mbb* out) const {
  out->lo.assign(box_, box_ + dim_);
  out->hi.assign(box_ + dim_, box_ + 2 * dim_);
}

Mbb NodeView::EntryMbb(size_t e) const {
  Mbb box;
  EntryMbbInto(e, &box);
  return box;
}

void NodeView::EntryMbbInto(size_t e, Mbb* out) const {
  out->lo.resize(dim_);
  out->hi.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    out->lo[j] = lo(j)[e];
    out->hi[j] = hi(j)[e];
  }
}

void NodeView::EntryTopCorner(size_t e, Vec* out) const {
  out->resize(dim_);
  for (size_t j = 0; j < dim_; ++j) (*out)[j] = hi(j)[e];
}

size_t NodePages::height() const {
  if (root_ == kInvalidPage) return 0;
  return static_cast<size_t>(meta_base_[root_].level) + 1;
}

std::vector<RecordId> NodePages::RangeQuery(const Mbb& box) const {
  std::vector<RecordId> out;
  if (root_ == kInvalidPage) return out;
  std::vector<PageId> stack = {root_};
  std::vector<uint8_t> mask;
  while (!stack.empty()) {
    const NodeView node = PeekNode(stack.back());
    stack.pop_back();
    const size_t count = node.count();
    mask.assign(count, 1);
    for (size_t j = 0; j < dim_; ++j) {
      simd::IntervalOverlapMask(node.lo(j), node.hi(j), box.lo[j], box.hi[j],
                                mask.data(), count);
    }
    for (size_t e = 0; e < count; ++e) {
      if (!mask[e]) continue;
      if (node.is_leaf()) {
        out.push_back(node.child(e));
      } else {
        stack.push_back(static_cast<PageId>(node.child(e)));
      }
    }
  }
  return out;
}

}  // namespace gir
