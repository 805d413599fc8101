// Pane math for shared sliding-window aggregation (DESIGN.md § 9).
//
// Slicing the time line into panes of width g = gcd(WA, WS) ("panes", Li
// et al.; "factor windows", Wu et al.) gives the finest partition such
// that every window instance [ℓ·WA, ℓ·WA + WS) is an exact union of
// panes: both boundaries of every instance are multiples of g. A tuple is
// then stored (or pre-aggregated) exactly once — in its pane — no matter
// how many instances overlap it, killing the O(WS/WA) per-tuple fan-out
// of the buffering backend.
#pragma once

#include <cassert>
#include <numeric>
#include <vector>

#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

/// The pane partition induced by a WindowSpec. Negative timestamps use the
/// same floor_div convention as the instance math, so pane assignment and
/// instance membership agree on the whole time line.
struct PaneGeometry {
  Timestamp width{1};  ///< g = gcd(WA, WS)

  static PaneGeometry of(const WindowSpec& spec) {
    assert(spec.advance > 0 && spec.size > 0);
    return {std::gcd(spec.advance, spec.size)};
  }

  /// Left boundary of the pane containing event time ts.
  constexpr Timestamp pane_of(Timestamp ts) const {
    return floor_div(ts, width) * width;
  }

  /// Number of panes a window instance spans (WS / g).
  constexpr Timestamp panes_per_window(const WindowSpec& spec) const {
    return spec.size / width;
  }

  /// Number of panes the window advances per slide (WA / g).
  constexpr Timestamp panes_per_advance(const WindowSpec& spec) const {
    return spec.advance / width;
  }
};

/// Pane width shared by a set of window specs: the gcd of every spec's
/// advance and size, so each spec's instances are exact pane unions (for
/// one spec, PaneGeometry::of(spec).width).
inline Timestamp shared_pane_width(const std::vector<WindowSpec>& specs) {
  Timestamp g = 0;
  for (const WindowSpec& s : specs) {
    assert(s.advance > 0 && s.size > 0);
    g = std::gcd(g, std::gcd(s.advance, s.size));
  }
  return g > 0 ? g : kDelta;
}

}  // namespace aggspes::swa
