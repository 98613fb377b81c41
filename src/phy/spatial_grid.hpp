#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mobility/vec2.hpp"

namespace eblnet::phy {

class WirelessPhy;

/// One spatial-grid query hit: the attach sequence (the delivery-order
/// sort key, so sorting survivors chases no pointers) and the phy, which
/// the channel's exact filter dereferences only for survivors of the
/// batched cull.
struct GridCandidate {
  std::uint64_t seq;  ///< attach sequence (stable delivery order)
  WirelessPhy* phy;
};

/// Uniform hash grid over phy positions — the channel's broadcast
/// candidate index. Cells are square, keyed by floor(pos / cell), and
/// sized by the channel to the maximum interference range plus a mobility
/// slack, so a query only ever scans the 3x3 cell neighbourhood around
/// the sender.
///
/// Each cell bucket is a structure of parallel arrays (position x/y,
/// attach sequence, phy pointer), kept in sync by swap-remove on
/// insert/update/remove. `cull` sweeps the position arrays with one
/// range² test per lane — no pointer chasing, no virtual calls. GCC does
/// not vectorize that loop at `-O2`; the layout is kept because it
/// measured faster than array-of-structs buckets (DESIGN.md §3.7). It
/// does not sort: the channel runs one post-cull sort over the surviving
/// candidates.
///
/// The grid stores its per-phy bookkeeping (cached cell, index within the
/// bucket) inside WirelessPhy itself, so insert/update/remove are
/// side-table-free and O(1).
class SpatialGrid {
 public:
  explicit SpatialGrid(double cell_size_m = 1.0);

  double cell_size() const noexcept { return cell_; }
  std::size_t size() const noexcept { return size_; }

  /// Drop every bucketed phy and adopt a new cell size (the channel
  /// rebuilds after the interference range grows). Live phys still
  /// bucketed are unhooked first (their `grid_bucketed_` flag clears), so
  /// a later remove/update on them is safe without re-insertion.
  void reset(double cell_size_m);

  /// Bucket `phy` at `pos`; its attach sequence is copied into the
  /// bucket's parallel arrays.
  void insert(WirelessPhy* phy, mobility::Vec2 pos);
  void remove(WirelessPhy* phy);
  /// Re-bucket `phy` if it crossed a cell boundary since it was last
  /// inserted/updated; otherwise refresh its stored position in place
  /// (the SoA lanes must never be staler than one re-bucket period — the
  /// mobility slack baked into the cull radius covers exactly that drift).
  void update(WirelessPhy* phy, mobility::Vec2 pos);

  /// Phase-1 batched cull: clear `out` and append a candidate for every
  /// phy in the neighbourhood whose bucketed position lies within
  /// `radius_m` of `center` (`exclude`d sender skipped), in one pass over
  /// the bucket's contiguous arrays. The channel's radius already encodes
  /// the envelope-power threshold (range_for_threshold over the
  /// deterministic envelope) plus the mobility slack, so a phy the exact
  /// filter would accept is never culled; the exact filter checks
  /// frequency channel and CS threshold. Returns the number of lanes
  /// scanned (the `batch_culled` statistic is lanes minus survivors).
  std::uint64_t cull(mobility::Vec2 center, double radius_m, const WirelessPhy* exclude,
                     std::vector<GridCandidate>& out) const;

 private:
  /// Structure-of-arrays cell bucket; all vectors stay index-aligned.
  struct Bucket {
    std::vector<WirelessPhy*> phys;
    std::vector<double> x, y;        ///< bucketed positions
    std::vector<std::uint64_t> seq;  ///< attach sequence

    std::size_t count() const noexcept { return phys.size(); }
    void clear() noexcept;
  };

  static std::uint64_t key(std::int32_t cx, std::int32_t cy) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  std::int32_t coord(double v) const noexcept;

  double cell_;
  double inv_cell_;
  std::size_t size_{0};
  /// Emptied buckets keep their map slot (and vector capacity): vehicles
  /// sweep through a bounded strip of cells, so the map stays small and
  /// steady-state queries allocate nothing.
  std::unordered_map<std::uint64_t, Bucket> cells_;
};

}  // namespace eblnet::phy
