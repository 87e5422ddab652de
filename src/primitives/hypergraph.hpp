// Multihypergraph support for the hyperedge grabbing problem (Lemma 5,
// [BMN+25-role]).
//
// Stored as CSR, like Graph and ColorLists: the members of every hyperedge
// sit in one flat array behind per-edge offsets, and build_incidence()
// lays out the hyperedges of every vertex the same way, so a hypergraph
// of any size costs a few allocations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace deltacolor {

struct Hypergraph {
  int num_vertices = 0;

  int num_edges() const { return static_cast<int>(edge_offsets_.size()) - 1; }

  /// Appends hyperedge num_edges() with these member vertex indices
  /// (duplicates allowed across edges: this is a multihypergraph).
  void add_edge(std::span<const int> members) {
    members_.insert(members_.end(), members.begin(), members.end());
    edge_offsets_.push_back(members_.size());
  }
  void add_edge(std::initializer_list<int> members) {
    add_edge(std::span<const int>(members.begin(), members.size()));
  }

  /// Member vertex indices of hyperedge f, in the order they were added.
  std::span<const int> edge(int f) const {
    return {members_.data() + edge_offsets_[static_cast<std::size_t>(f)],
            members_.data() + edge_offsets_[static_cast<std::size_t>(f) + 1]};
  }

  /// Lays out incidence(v) for every vertex: a counting sort of the
  /// members by vertex, scattered in ascending edge order, so each
  /// vertex's hyperedges come out ascending. Call after the last add_edge.
  void build_incidence() {
    const std::size_t nv = static_cast<std::size_t>(num_vertices);
    incidence_offsets_.assign(nv + 1, 0);
    for (const int v : members_) {
      DC_CHECK(v >= 0 && v < num_vertices);
      ++incidence_offsets_[static_cast<std::size_t>(v) + 1];
    }
    for (std::size_t v = 0; v < nv; ++v)
      incidence_offsets_[v + 1] += incidence_offsets_[v];
    incident_edges_.resize(members_.size());
    std::vector<std::size_t> cursor(incidence_offsets_.begin(),
                                    incidence_offsets_.end() - 1);
    for (int f = 0; f < num_edges(); ++f)
      for (const int v : edge(f))
        incident_edges_[cursor[static_cast<std::size_t>(v)]++] = f;
  }

  /// True once build_incidence() has run for the current vertex count.
  bool has_incidence() const {
    return incidence_offsets_.size() ==
           static_cast<std::size_t>(num_vertices) + 1;
  }

  /// The hyperedges containing v, ascending (requires build_incidence()).
  std::span<const int> incidence(int v) const {
    const std::size_t i = static_cast<std::size_t>(v);
    return {incident_edges_.data() + incidence_offsets_[i],
            incident_edges_.data() + incidence_offsets_[i + 1]};
  }

  /// Maximum number of vertices in any hyperedge.
  int rank() const {
    std::size_t r = 0;
    for (std::size_t f = 0; f + 1 < edge_offsets_.size(); ++f)
      r = std::max(r, edge_offsets_[f + 1] - edge_offsets_[f]);
    return static_cast<int>(r);
  }

  /// Minimum number of hyperedges incident to any vertex (requires
  /// build_incidence()).
  int min_degree() const {
    DC_CHECK(has_incidence());
    std::size_t d = static_cast<std::size_t>(num_edges());
    for (std::size_t v = 0; v + 1 < incidence_offsets_.size(); ++v)
      d = std::min(d, incidence_offsets_[v + 1] - incidence_offsets_[v]);
    return static_cast<int>(d);
  }

 private:
  std::vector<std::size_t> edge_offsets_{0};  // size num_edges() + 1
  std::vector<int> members_;
  std::vector<std::size_t> incidence_offsets_;  // size num_vertices + 1
  std::vector<int> incident_edges_;
};

}  // namespace deltacolor
