// Word-parallel palette kernels: the inner loop of every list-coloring
// subroutine intersects a node's allowed palette with the colors its
// neighbors hold. PaletteSet is a fixed-capacity bitset over the color
// space [0, width) with popcount/ctz-based ops so that membership tests,
// free-color counts and k-th-free selection cost O(width/64) words instead
// of O(list) comparisons or a sort. Each op is one scalar loop over the
// words; the paper's constant-degree palettes fit in one or a few words.
// ColorLists is the flat CSR-style storage for per-node color lists (one
// offsets array + one flat Color array) replacing
// std::vector<std::vector<Color>> — one allocation, no per-node heap
// vectors, cache-linear sweeps.
//
// Determinism contract: every enumeration (nth_free, sample_free,
// for_each) walks colors in ascending order, exactly matching the order a
// sorted std::vector<Color> scan would produce. Callers that must preserve
// an *arbitrary* list order (the deg+1 class-greedy picks the first color
// of the node's list, which tests exercise with unsorted lists) instead
// build the *taken* set as a PaletteSet and scan their list testing
// contains() — bit-identical to the previous binary_search code for any
// list order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace deltacolor {

/// Fixed-capacity bitset over colors [0, width). reset(width) reuses the
/// backing words (allocation only when the high-water capacity grows), so a
/// thread_local instance is allocation-free on the steady-state path.
class PaletteSet {
 public:
  PaletteSet() = default;
  explicit PaletteSet(int width) { reset(width); }

  /// Clears the set and (re)sizes it to `width` colors. Backing storage
  /// only ever grows; repeated reset at or below the high-water width
  /// performs no allocation.
  void reset(int width) {
    DC_DCHECK(width >= 0);
    width_ = width;
    const std::size_t need = words_needed(width);
    if (need > words_.size()) words_.resize(need);
    for (std::size_t w = 0; w < need; ++w) words_[w] = 0;
  }

  int width() const { return width_; }

  /// Turns every color of [0, width) on (the "full palette" start state the
  /// trial sampler carves neighbors out of).
  void fill() {
    const std::size_t need = words_needed(width_);
    for (std::size_t w = 0; w < need; ++w) words_[w] = ~std::uint64_t{0};
    if (width_ % 64 != 0 && need > 0)
      words_[need - 1] = (std::uint64_t{1} << (width_ % 64)) - 1;
  }

  void insert(Color c) {
    DC_DCHECK(c >= 0 && c < width_);
    words_[static_cast<std::size_t>(c) >> 6] |= bit(c);
  }

  void erase(Color c) {
    if (c < 0 || c >= width_) return;  // kNoColor and out-of-palette no-ops
    words_[static_cast<std::size_t>(c) >> 6] &= ~bit(c);
  }

  bool contains(Color c) const {
    if (c < 0 || c >= width_) return false;
    return (words_[static_cast<std::size_t>(c) >> 6] & bit(c)) != 0;
  }

  /// Popcount over all words.
  int count() const {
    int total = 0;
    for (std::size_t w = 0; w < words_needed(width_); ++w)
      total += __builtin_popcountll(words_[w]);
    return total;
  }

  /// k-th member (0-based) in ascending color order, or kNoColor when the
  /// set has at most k members. Skips whole words by popcount, then selects
  /// within the final word by clearing low bits.
  Color nth_free(int k) const {
    DC_DCHECK(k >= 0);
    const std::size_t n = words_needed(width_);
    std::size_t w = 0;
    for (; w < n; ++w) {
      const int pop = __builtin_popcountll(words_[w]);
      if (k < pop) break;
      k -= pop;
    }
    if (w == n) return kNoColor;
    std::uint64_t word = words_[w];
    while (k-- > 0) word &= word - 1;  // drop the k lowest set bits
    return static_cast<Color>(
        w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
  }

  /// Uniform member pick from a raw 64-bit draw: nth_free(draw % count).
  /// The ascending enumeration makes this bit-identical to indexing into a
  /// sorted vector of the members. Checked non-empty.
  Color sample_free(std::uint64_t draw) const {
    const int c = count();
    DC_CHECK_MSG(c > 0, "sample_free on an empty palette");
    return nth_free(static_cast<int>(draw % static_cast<std::uint64_t>(c)));
  }

  /// fn(c) for every member in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_needed(width_); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        fn(static_cast<Color>(
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(word))));
        word &= word - 1;
      }
    }
  }

 private:
  static std::size_t words_needed(int width) {
    return (static_cast<std::size_t>(width) + 63) / 64;
  }
  static std::uint64_t bit(Color c) {
    return std::uint64_t{1} << (static_cast<std::size_t>(c) & 63);
  }

  int width_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Flat CSR-style per-node color lists: offsets_[v] .. offsets_[v+1) index
/// into one contiguous Color array. Replaces std::vector<std::vector<Color>>
/// in the list-coloring API — construction is one (amortized) allocation,
/// and a node's list is a std::span over cache-linear storage. Tracks the
/// maximum color so callers can size PaletteSets without rescanning.
/// uniform() lists are the exception: one row, shared by every node.
class ColorLists {
 public:
  ColorLists() = default;

  /// Implicit conversion from the nested-vector shape (tests and ad-hoc
  /// callers build small nested lists; pipelines build flat directly).
  ColorLists(const std::vector<std::vector<Color>>& nested) {
    std::size_t total = 0;
    for (const auto& list : nested) total += list.size();
    reserve(nested.size(), total);
    for (const auto& list : nested) add_list(list);
  }

  /// n identical lists {0, .., num_colors-1} — the (Delta+1)-coloring
  /// default palette. The row is stored once and every node's span is that
  /// row, so the lists take O(num_colors) memory; they cannot be extended.
  static ColorLists uniform(std::size_t num_nodes, int num_colors) {
    ColorLists lists;
    for (Color c = 0; c < num_colors; ++c) lists.push(c);
    lists.close_list();
    lists.shared_row_nodes_ = num_nodes;
    return lists;
  }

  void reserve(std::size_t num_nodes, std::size_t total_colors) {
    offsets_.reserve(num_nodes + 1);
    flat_.reserve(total_colors);
  }

  /// Incremental building: push the current node's colors, then close its
  /// list. Lists must be closed in node order 0, 1, ...
  void push(Color c) {
    DC_CHECK(!shared_row());
    flat_.push_back(c);
    if (c > max_color_) max_color_ = c;
  }
  void close_list() {
    DC_CHECK(!shared_row());
    offsets_.push_back(static_cast<std::uint32_t>(flat_.size()));
  }

  void add_list(std::span<const Color> list) {
    for (const Color c : list) push(c);
    close_list();
  }

  /// Number of node lists.
  std::size_t size() const {
    return shared_row() ? *shared_row_nodes_ : offsets_.size() - 1;
  }
  bool empty() const { return size() == 0; }

  std::span<const Color> operator[](std::size_t v) const {
    DC_DCHECK(v < size());
    if (shared_row()) return flat_;
    return {flat_.data() + offsets_[v],
            flat_.data() + offsets_[v + 1]};
  }

  std::size_t total_colors() const {
    return shared_row() ? *shared_row_nodes_ * flat_.size() : flat_.size();
  }

  /// Largest color across all lists (kNoColor when every list is empty) —
  /// the PaletteSet width bound for these lists is max_color() + 1.
  Color max_color() const { return max_color_; }

 private:
  bool shared_row() const { return shared_row_nodes_.has_value(); }

  std::vector<std::uint32_t> offsets_{0};
  std::vector<Color> flat_;
  Color max_color_ = kNoColor;
  /// Set by uniform(): the node count that shares the single stored row.
  std::optional<std::size_t> shared_row_nodes_;
};

}  // namespace deltacolor
