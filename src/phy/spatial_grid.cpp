#include "phy/spatial_grid.hpp"

#include <cmath>
#include <stdexcept>

#include "phy/wireless_phy.hpp"

namespace eblnet::phy {

void SpatialGrid::Bucket::clear() noexcept {
  phys.clear();
  x.clear();
  y.clear();
  seq.clear();
}

SpatialGrid::SpatialGrid(double cell_size_m) { reset(cell_size_m); }

void SpatialGrid::reset(double cell_size_m) {
  if (!(cell_size_m > 0.0)) throw std::invalid_argument{"SpatialGrid: cell size must be > 0"};
  for (auto& [k, bucket] : cells_) {
    // Unhook live phys so a remove/update that arrives before their
    // re-insertion is a clean no-op instead of indexing a cleared bucket.
    for (WirelessPhy* phy : bucket.phys) phy->grid_bucketed_ = false;
    bucket.clear();
  }
  size_ = 0;
  cell_ = cell_size_m;
  inv_cell_ = 1.0 / cell_size_m;
}

std::int32_t SpatialGrid::coord(double v) const noexcept {
  return static_cast<std::int32_t>(std::floor(v * inv_cell_));
}

void SpatialGrid::insert(WirelessPhy* phy, mobility::Vec2 pos) {
  phy->grid_cx_ = coord(pos.x);
  phy->grid_cy_ = coord(pos.y);
  Bucket& b = cells_[key(phy->grid_cx_, phy->grid_cy_)];
  phy->grid_idx_ = static_cast<std::uint32_t>(b.count());
  phy->grid_bucketed_ = true;
  b.phys.push_back(phy);
  b.x.push_back(pos.x);
  b.y.push_back(pos.y);
  b.seq.push_back(phy->attach_seq_);
  ++size_;
}

void SpatialGrid::remove(WirelessPhy* phy) {
  if (!phy->grid_bucketed_) return;
  Bucket& b = cells_.at(key(phy->grid_cx_, phy->grid_cy_));
  const std::size_t i = phy->grid_idx_;
  const std::size_t last = b.count() - 1;
  if (i != last) {
    // Swap-remove across every parallel array: in-bucket order is
    // irrelevant, the channel sorts survivors by attach sequence.
    b.phys[i] = b.phys[last];
    b.phys[i]->grid_idx_ = static_cast<std::uint32_t>(i);
    b.x[i] = b.x[last];
    b.y[i] = b.y[last];
    b.seq[i] = b.seq[last];
  }
  b.phys.pop_back();
  b.x.pop_back();
  b.y.pop_back();
  b.seq.pop_back();
  phy->grid_bucketed_ = false;
  --size_;
}

void SpatialGrid::update(WirelessPhy* phy, mobility::Vec2 pos) {
  const std::int32_t cx = coord(pos.x);
  const std::int32_t cy = coord(pos.y);
  if (phy->grid_bucketed_ && cx == phy->grid_cx_ && cy == phy->grid_cy_) {
    // Same cell: refresh the stored position so the SoA lane is never
    // staler than one re-bucket period (the cull radius's mobility slack
    // is sized to exactly that drift).
    Bucket& b = cells_.at(key(cx, cy));
    b.x[phy->grid_idx_] = pos.x;
    b.y[phy->grid_idx_] = pos.y;
    return;
  }
  remove(phy);
  insert(phy, pos);
}

std::uint64_t SpatialGrid::cull(mobility::Vec2 center, double radius_m,
                                const WirelessPhy* exclude,
                                std::vector<GridCandidate>& out) const {
  out.clear();
  const double r2 = radius_m * radius_m;
  const std::int32_t cx = coord(center.x);
  const std::int32_t cy = coord(center.y);
  const auto span = static_cast<std::int32_t>(std::ceil(radius_m * inv_cell_));
  std::uint64_t lanes = 0;
  for (std::int32_t dx = -span; dx <= span; ++dx) {
    for (std::int32_t dy = -span; dy <= span; ++dy) {
      const auto it = cells_.find(key(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      const Bucket& b = it->second;
      const std::size_t n = b.count();
      lanes += n;
      // One range² test per lane over the contiguous position arrays (no
      // pointer derefs, no calls); only lanes in range read the phy and
      // sequence lanes.
      const double* xs = b.x.data();
      const double* ys = b.y.data();
      for (std::size_t i = 0; i < n; ++i) {
        const double ddx = xs[i] - center.x;
        const double ddy = ys[i] - center.y;
        if (ddx * ddx + ddy * ddy > r2 || b.phys[i] == exclude) continue;
        out.push_back({b.seq[i], b.phys[i]});
      }
    }
  }
  return lanes;
}

}  // namespace eblnet::phy
