#include "nexus/noc/topology.hpp"

#include <algorithm>

namespace nexus::noc {

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kIdeal: return "ideal";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

bool parse_topology(std::string_view name, TopologyKind* out) {
  if (name == "ideal") {
    *out = TopologyKind::kIdeal;
  } else if (name == "ring") {
    *out = TopologyKind::kRing;
  } else if (name == "mesh") {
    *out = TopologyKind::kMesh;
  } else if (name == "torus") {
    *out = TopologyKind::kTorus;
  } else {
    return false;
  }
  return true;
}

Topology::Topology(TopologyKind kind, std::uint32_t endpoints,
                   std::uint32_t mesh_cols)
    : kind_(kind), endpoints_(endpoints), nodes_(endpoints) {
  NEXUS_ASSERT_MSG(endpoints >= 1, "topology needs at least one endpoint");
  switch (kind_) {
    case TopologyKind::kIdeal:
      break;  // a crossbar: no modelled links
    case TopologyKind::kRing: {
      out_links_.resize(nodes_);
      // Clockwise links first (i -> i+1), then counter-clockwise. A 2-node
      // ring keeps one link per direction (the counter-clockwise set would
      // duplicate it); a 1-node ring has no links at all.
      if (nodes_ == 2) {
        add_link(0, 1);
        add_link(1, 0);
      } else if (nodes_ > 2) {
        for (NodeId i = 0; i < nodes_; ++i) add_link(i, (i + 1) % nodes_);
        for (NodeId i = 0; i < nodes_; ++i)
          add_link(i, (i + nodes_ - 1) % nodes_);
      }
      break;
    }
    case TopologyKind::kMesh:
    case TopologyKind::kTorus: {
      cols_ = mesh_cols;
      if (cols_ == 0) {
        while (cols_ * cols_ < endpoints_) ++cols_;
      }
      NEXUS_ASSERT_MSG(cols_ >= 1, "mesh needs at least one column");
      rows_ = (endpoints_ + cols_ - 1) / cols_;
      nodes_ = rows_ * cols_;  // full router grid; fillers host no endpoint
      out_links_.resize(nodes_);
      for (NodeId n = 0; n < nodes_; ++n) {
        const std::uint32_t x = n % cols_;
        const std::uint32_t y = n / cols_;
        if (x + 1 < cols_) add_link(n, n + 1);
        if (x > 0) add_link(n, n - 1);
        if (y + 1 < rows_) add_link(n, n + cols_);
        if (y > 0) add_link(n, n - cols_);
        if (kind_ == TopologyKind::kTorus) {
          // Wraparound links. Dimensions of size <= 2 already connect their
          // two nodes both ways through the mesh links (a wrap would
          // duplicate them), so wraps only exist from size 3 on — the same
          // rule the 2-node ring applies.
          if (cols_ >= 3) {
            if (x == cols_ - 1) add_link(n, n - (cols_ - 1));
            if (x == 0) add_link(n, n + (cols_ - 1));
          }
          if (rows_ >= 3) {
            if (y == rows_ - 1) add_link(n, n - (rows_ - 1) * cols_);
            if (y == 0) add_link(n, n + (rows_ - 1) * cols_);
          }
        }
      }
      break;
    }
  }
}

void Topology::add_link(NodeId src, NodeId dst) {
  out_links_[src].push_back(static_cast<LinkId>(links_.size()));
  links_.push_back(Link{src, dst});
}

LinkId Topology::link_between(NodeId a, NodeId b) const {
  for (const LinkId l : out_links_[a])
    if (links_[l].dst == b) return l;
  NEXUS_ASSERT_MSG(false, "no link between adjacent nodes");
  return 0;
}

std::uint32_t Topology::hops(NodeId from, NodeId to) const {
  NEXUS_DCHECK(from < nodes_ && to < nodes_);
  if (from == to) return 0;
  switch (kind_) {
    case TopologyKind::kIdeal:
      return 1;  // one crossbar traversal
    case TopologyKind::kRing: {
      const std::uint32_t cw = (to + nodes_ - from) % nodes_;
      const std::uint32_t ccw = (from + nodes_ - to) % nodes_;
      return cw <= ccw ? cw : ccw;
    }
    case TopologyKind::kMesh: {
      const auto dx = static_cast<std::int64_t>(to % cols_) -
                      static_cast<std::int64_t>(from % cols_);
      const auto dy = static_cast<std::int64_t>(to / cols_) -
                      static_cast<std::int64_t>(from / cols_);
      return static_cast<std::uint32_t>((dx < 0 ? -dx : dx) +
                                        (dy < 0 ? -dy : dy));
    }
    case TopologyKind::kTorus: {
      // Each dimension is a ring: the shorter way may wrap around.
      const std::uint32_t fwd_x = (to % cols_ + cols_ - from % cols_) % cols_;
      const std::uint32_t fwd_y = (to / cols_ + rows_ - from / cols_) % rows_;
      const std::uint32_t dx = fwd_x == 0 ? 0 : std::min(fwd_x, cols_ - fwd_x);
      const std::uint32_t dy = fwd_y == 0 ? 0 : std::min(fwd_y, rows_ - fwd_y);
      return dx + dy;
    }
  }
  return 0;
}

LinkId Topology::next_link(NodeId from, NodeId to) const {
  NEXUS_DCHECK(from != to && from < nodes_ && to < nodes_);
  NEXUS_ASSERT_MSG(kind_ != TopologyKind::kIdeal,
                   "the ideal crossbar has no routed links");
  if (kind_ == TopologyKind::kRing) {
    const std::uint32_t cw = (to + nodes_ - from) % nodes_;
    const std::uint32_t ccw = (from + nodes_ - to) % nodes_;
    // Shortest way; clockwise on a tie (deterministic across runs).
    const NodeId next = cw <= ccw ? (from + 1) % nodes_
                                  : (from + nodes_ - 1) % nodes_;
    return link_between(from, next);
  }
  // Mesh/torus: dimension-ordered XY routing — exhaust the x offset, then
  // y. The torus additionally picks the shorter way around each dimension's
  // ring (forward on a tie, deterministic across runs).
  const std::uint32_t fx = from % cols_;
  const std::uint32_t tx = to % cols_;
  const std::uint32_t fy = from / cols_;
  const std::uint32_t ty = to / cols_;
  NodeId next = 0;
  if (kind_ == TopologyKind::kTorus) {
    if (fx != tx) {
      const std::uint32_t fwd = (tx + cols_ - fx) % cols_;
      const std::uint32_t nx = fwd <= cols_ - fwd ? (fx + 1) % cols_
                                                  : (fx + cols_ - 1) % cols_;
      next = fy * cols_ + nx;
    } else {
      const std::uint32_t fwd = (ty + rows_ - fy) % rows_;
      const std::uint32_t ny = fwd <= rows_ - fwd ? (fy + 1) % rows_
                                                  : (fy + rows_ - 1) % rows_;
      next = ny * cols_ + fx;
    }
  } else if (fx != tx) {
    next = fx < tx ? from + 1 : from - 1;
  } else {
    next = fy < ty ? from + cols_ : from - cols_;
  }
  return link_between(from, next);
}

void Topology::route(NodeId from, NodeId to, std::vector<LinkId>* out) const {
  out->clear();
  if (kind_ == TopologyKind::kIdeal) return;
  NodeId at = from;
  while (at != to) {
    const LinkId l = next_link(at, to);
    out->push_back(l);
    at = links_[l].dst;
  }
}

std::string Topology::link_label(LinkId l) const {
  // Appended piecewise: GCC 12 at -O3 flags the chained operator+ form
  // with a false -Wrestrict from inlined libstdc++ string code.
  std::string label = "l";
  label += std::to_string(l);
  label += '_';
  label += std::to_string(links_[l].src);
  label += "to";
  label += std::to_string(links_[l].dst);
  return label;
}

std::string Topology::describe() const {
  switch (kind_) {
    case TopologyKind::kIdeal: return "ideal";
    case TopologyKind::kRing: return "ring" + std::to_string(nodes_);
    case TopologyKind::kMesh:
      return "mesh" + std::to_string(rows_) + "x" + std::to_string(cols_);
    case TopologyKind::kTorus:
      return "torus" + std::to_string(rows_) + "x" + std::to_string(cols_);
  }
  return "?";
}

}  // namespace nexus::noc
