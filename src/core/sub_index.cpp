#include "core/sub_index.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace hypersub::core {

namespace {

/// Put the entries of `v[lo, hi)` whose sorted positions are ranks[0, n)
/// (ascending, distinct, all in [lo, hi)) where std::sort would, leaving
/// the rest partitioned around them: a build needs only the cell
/// boundaries' order statistics, not the whole sorted endpoint list.
void select_ranks(std::vector<double>& v, std::size_t lo, std::size_t hi,
                  const std::size_t* ranks, std::size_t n) {
  if (n == 0) return;
  const std::size_t mid = n / 2;
  const std::size_t at = ranks[mid];
  std::nth_element(v.begin() + std::ptrdiff_t(lo),
                   v.begin() + std::ptrdiff_t(at),
                   v.begin() + std::ptrdiff_t(hi));
  select_ranks(v, lo, at, ranks, mid);
  select_ranks(v, at + 1, hi, ranks + mid + 1, n - mid - 1);
}

}  // namespace

std::size_t SubIndex::cell_of(const Dim& d, double x) {
  // std::upper_bound without data-dependent branches: the trip count
  // depends only on the bound count, and each step is a conditional move.
  // Builds locate every endpoint this way and events every coordinate,
  // and neither order is one a branch predictor can learn.
  const double* first = d.bounds.data();
  std::size_t len = d.bounds.size();
  if (len == 0) return 0;
  while (len > 1) {
    const std::size_t half = len / 2;
    first = (x < first[half]) ? first : first + half;
    len -= half;
  }
  return std::size_t(first - d.bounds.data()) + (x < *first ? 0 : 1);
}

std::uint32_t SubIndex::insert(const HyperRect& range) {
  assert(!range.empty());
  if (dims_.empty()) dims_.resize(range.dimensions());
  assert(range.dimensions() == dims_.size());

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    rects_[slot] = range;
  } else {
    slot = std::uint32_t(rects_.size());
    rects_.push_back(range);
  }
  ++live_;
  if (live_ > cfg_.rebuild_factor * built_size_) {
    rebuild();  // re-derive boundaries from the grown endpoint population
  } else {
    set_bits(range, slot);
  }
  return slot;
}

void SubIndex::remove(std::uint32_t slot) {
  assert(slot < rects_.size() && !rects_[slot].empty());
  clear_bits(rects_[slot], slot);
  rects_[slot] = HyperRect{};
  free_.push_back(slot);
  --live_;
  if (live_ * cfg_.rebuild_factor < built_size_) rebuild();
}

void SubIndex::set_bits(const HyperRect& r, std::uint32_t slot) {
  const std::size_t w = slot / 64;
  const std::uint64_t m = std::uint64_t{1} << (slot % 64);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    Dim& dim = dims_[d];
    if (dim.cells.empty()) dim.cells.resize(dim.bounds.size() + 1);
    const std::size_t c0 = cell_of(dim, r.dim(d).lo);
    const std::size_t c1 = cell_of(dim, r.dim(d).hi);
    for (std::size_t c = c0; c <= c1; ++c) {
      auto& words = dim.cells[c];
      if (words.size() <= w) words.resize(w + 1, 0);
      words[w] |= m;
    }
  }
}

void SubIndex::clear_bits(const HyperRect& r, std::uint32_t slot) {
  const std::size_t w = slot / 64;
  const std::uint64_t m = std::uint64_t{1} << (slot % 64);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    Dim& dim = dims_[d];
    if (dim.cells.empty()) continue;
    const std::size_t c0 = cell_of(dim, r.dim(d).lo);
    const std::size_t c1 = cell_of(dim, r.dim(d).hi);
    for (std::size_t c = c0; c <= c1; ++c) {
      auto& words = dim.cells[c];
      if (words.size() > w) words[w] &= ~m;
    }
  }
}

void SubIndex::assign(std::vector<HyperRect> ranges) {
  rects_ = std::move(ranges);
  free_.clear();
  live_ = rects_.size();
  dims_.assign(rects_.empty() ? 0 : rects_.front().dimensions(), Dim{});
  rebuild();
}

void SubIndex::rebuild() {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::size_t n = rects_.size();
  std::vector<double> endpoints;
  endpoints.reserve(2 * live_);
  std::vector<std::size_t> ranks;
  // Per cell, singly linked lists of the slots whose range starts there
  // and of those whose range ends there; `active` is the sweep's running
  // set of ranges overlapping the current cell.
  std::vector<std::uint32_t> head_in, head_out;
  std::vector<std::uint32_t> next_in(n), next_out(n);
  std::vector<std::uint64_t> active((n + 63) / 64, 0);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    Dim& dim = dims_[d];
    endpoints.clear();
    for (const auto& r : rects_) {
      if (r.empty()) continue;
      endpoints.push_back(r.dim(d).lo);
      endpoints.push_back(r.dim(d).hi);
    }
    // Equi-depth boundaries over the sorted endpoint list; duplicates
    // collapse, so a degenerate (single-valued) dimension ends up with <= 2
    // cells.
    const std::size_t c = cfg_.cells_per_dim;
    ranks.clear();
    for (std::size_t k = 1; k < c && !endpoints.empty(); ++k) {
      const std::size_t r = k * endpoints.size() / c;
      if (ranks.empty() || ranks.back() < r) ranks.push_back(r);
    }
    select_ranks(endpoints, 0, endpoints.size(), ranks.data(), ranks.size());
    dim.bounds.clear();
    for (const std::size_t r : ranks) {
      const double b = endpoints[r];
      if (dim.bounds.empty() || dim.bounds.back() < b) dim.bounds.push_back(b);
    }
    const std::size_t cells = dim.bounds.size() + 1;
    dim.cells.assign(cells, {});
    head_in.assign(cells, kNone);
    head_out.assign(cells, kNone);
    for (std::uint32_t s = 0; s < n; ++s) {
      const HyperRect& r = rects_[s];
      if (r.empty()) continue;
      const std::size_t c0 = cell_of(dim, r.dim(d).lo);
      const std::size_t c1 = cell_of(dim, r.dim(d).hi);
      next_in[s] = std::exchange(head_in[c0], s);
      next_out[s] = std::exchange(head_out[c1], s);
    }
    // Each cell holds exactly the ranges overlapping it, trimmed after the
    // last non-zero word — what per-range insertion would have left.
    for (std::size_t cell = 0; cell < cells; ++cell) {
      for (std::uint32_t s = head_in[cell]; s != kNone; s = next_in[s]) {
        active[s / 64] |= std::uint64_t{1} << (s % 64);
      }
      std::size_t len = active.size();
      while (len > 0 && active[len - 1] == 0) --len;
      dim.cells[cell].assign(active.begin(),
                             active.begin() + std::ptrdiff_t(len));
      for (std::uint32_t s = head_out[cell]; s != kNone; s = next_out[s]) {
        active[s / 64] &= ~(std::uint64_t{1} << (s % 64));
      }
    }
  }
  built_size_ = live_;
}

void SubIndex::candidates(const Point& p,
                          std::vector<std::uint32_t>& out) const {
  if (live_ == 0) return;
  assert(p.size() == dims_.size());
  // Words absent from a shorter cell vector are zero, so the AND result is
  // only as wide as the narrowest cell.
  std::size_t len = ~std::size_t{0};
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const Dim& dim = dims_[d];
    if (dim.cells.empty()) return;
    len = std::min(len, dim.cells[cell_of(dim, p[d])].size());
  }
  if (len == 0) return;

  {
    const Dim& dim = dims_[0];
    const auto& words = dim.cells[cell_of(dim, p[0])];
    scratch_.assign(words.begin(), words.begin() + std::ptrdiff_t(len));
  }
  for (std::size_t d = 1; d < dims_.size(); ++d) {
    const Dim& dim = dims_[d];
    const auto& words = dim.cells[cell_of(dim, p[d])];
    for (std::size_t w = 0; w < len; ++w) scratch_[w] &= words[w];
  }
  for (std::size_t w = 0; w < len; ++w) {
    std::uint64_t bits = scratch_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      out.push_back(std::uint32_t(w * 64 + std::size_t(b)));
    }
  }
}

}  // namespace hypersub::core
