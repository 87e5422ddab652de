// On-disk CSR container suite: round-trips (in-memory graph -> .dcsr file
// -> mmap-backed Graph must be bit-identical through the public API,
// including ids), files written from edge soups vs their cleaned pairs,
// mapped-graph ownership semantics (copies and set_ids outlive the
// original mapping), and hostile inputs — truncation, bad magic, wrong
// version, corrupted payload, short header — each of which must surface as
// a structured CsrError with the right kind and a one-line message, never
// a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace deltacolor {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "dcsr_test_" + name;
}

// Structural equality through the public API (same checks the CSR builder
// suite pins): edges, per-node adjacency/arc spans, offsets, ids.
void expect_identical(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.max_degree(), want.max_degree());
  const auto ge = got.edges();
  const auto we = want.edges();
  EXPECT_TRUE(std::equal(ge.begin(), ge.end(), we.begin(), we.end()));
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    const auto gn = got.neighbors(v);
    const auto wn = want.neighbors(v);
    ASSERT_EQ(gn.size(), wn.size()) << "degree mismatch at node " << v;
    EXPECT_TRUE(std::equal(gn.begin(), gn.end(), wn.begin()))
        << "adjacency mismatch at node " << v;
    const auto gi = got.incident_edges(v);
    const auto wi = want.incident_edges(v);
    EXPECT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
        << "arc mismatch at node " << v;
    EXPECT_EQ(got.id(v), want.id(v)) << "id mismatch at node " << v;
  }
}

/// FNV-1a over the full structure — the golden-hash form used to compare a
/// mapped graph against its in-memory source without trusting either side's
/// iteration shortcuts.
std::uint64_t structure_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ull;
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  mix(static_cast<std::uint64_t>(g.max_degree()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    mix(g.id(v));
    for (const NodeId u : g.neighbors(v)) mix(u);
    for (const EdgeId e : g.incident_edges(v)) mix(e);
  }
  for (const auto& [u, v] : g.edges()) {
    mix(u);
    mix(v);
  }
  return h;
}

TEST(CsrFile, RoundTripGeneratorFamilies) {
  const std::string path = tmp_path("roundtrip.dcsr");
  const Graph graphs[] = {path_graph(17), cycle_graph(30),
                          complete_graph(9), torus_grid(5, 7),
                          random_graph(64, 0.2, 7)};
  for (const Graph& g : graphs) {
    write_csr_file(path, g);
    const Graph loaded = load_csr_file(path, {CsrVerify::kAlways});
    expect_identical(loaded, g);
    EXPECT_EQ(structure_hash(loaded), structure_hash(g));
  }
  std::remove(path.c_str());
}

TEST(CsrFile, RoundTripPreservesShuffledIds) {
  Graph g = cycle_graph(12);
  std::vector<std::uint64_t> ids;
  for (NodeId v = 0; v < 12; ++v)
    ids.push_back(1000 + static_cast<std::uint64_t>(11 - v) * 7);
  g.set_ids(ids);
  const std::string path = tmp_path("ids.dcsr");
  write_csr_file(path, g);
  const Graph loaded = load_csr_file(path, {CsrVerify::kAlways});
  for (NodeId v = 0; v < 12; ++v) EXPECT_EQ(loaded.id(v), ids[v]);
  std::remove(path.c_str());
}

TEST(CsrFile, EmptyAndSingleNodeGraphs) {
  const std::string path = tmp_path("tiny.dcsr");
  for (const NodeId n : {NodeId{0}, NodeId{1}, NodeId{3}}) {
    const Graph g(n, {});
    write_csr_file(path, g);
    const Graph loaded = load_csr_file(path, {CsrVerify::kAlways});
    expect_identical(loaded, g);
  }
  std::remove(path.c_str());
}

// csr_checksums must return, range by range, exactly what the single-range
// csr_checksum returns: for 1..kNumSections ranges of unequal lengths
// around the byte loop's edges, with each range in turn the longest.
TEST(CsrChecksum, InterleavedMatchesSingleRange) {
  constexpr std::size_t kLengths[] = {0, 1, 7, 8, 63, 64, 65};
  constexpr std::size_t kNumLengths = std::size(kLengths);
  constexpr std::size_t kLong = (3u << 20) + 5;
  std::vector<std::byte> pool(kLong + 64 * kNumSections);
  Rng rng(2025);
  for (std::byte& b : pool) b = static_cast<std::byte>(rng() & 0xff);

  const auto check = [&](const std::vector<std::size_t>& lengths) {
    std::vector<std::span<const std::byte>> ranges;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      // Distinct start offsets so no two ranges hash the same bytes; an
      // empty range is a null span.
      if (lengths[i] == 0)
        ranges.emplace_back();
      else
        ranges.emplace_back(pool.data() + 13 * i, lengths[i]);
    }
    std::vector<std::uint64_t> got(ranges.size(), 0);
    csr_checksums(ranges, got);
    for (std::size_t i = 0; i < ranges.size(); ++i)
      EXPECT_EQ(got[i], csr_checksum(ranges[i].data(), ranges[i].size()))
          << "range " << i << " of " << ranges.size() << ", length "
          << lengths[i];
  };

  for (std::size_t count = 1; count <= kNumSections; ++count) {
    for (std::size_t longest = 0; longest < count; ++longest) {
      // One range of a few MiB, the others short and pairwise distinct.
      std::vector<std::size_t> lengths(count);
      for (std::size_t i = 0; i < count; ++i)
        lengths[i] =
            i == longest ? kLong : kLengths[(i + longest) % kNumLengths];
      check(lengths);
    }
    for (std::size_t shift = 0; shift < kNumLengths; ++shift) {
      // Short ranges only; the rotation makes each position the longest.
      std::vector<std::size_t> lengths(count);
      for (std::size_t i = 0; i < count; ++i)
        lengths[i] = kLengths[(i + shift) % kNumLengths];
      check(lengths);
    }
  }
}

// The section and header checksums of a small fixed graph's file, pinned
// as literals: any change to the values, or to the bytes they cover,
// fails here.
TEST(CsrFile, ChecksumsArePinned) {
  Graph g(7, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
              {6, 0}, {1, 4}});
  g.set_ids({70, 11, 52, 33, 94, 15, 26});
  const std::string path = tmp_path("pinned.dcsr");
  write_csr_file(path, g);
  const CsrFileInfo info = peek_csr_file(path);
  constexpr std::uint64_t kWant[kNumSections] = {
      0x4d2706716947d8aeull,  // offsets
      0x9a852c65aa58cb62ull,  // adjacency
      0x853bc9bf8a2d02e5ull,  // arc_edge
      0xfd5dc1f5b20ad892ull,  // edges
      0x5c5f84eeb06e3656ull,  // ids
  };
  for (int s = 0; s < kNumSections; ++s)
    EXPECT_EQ(info.header.sections[s].checksum, kWant[s])
        << kCsrSectionNames[s];
  EXPECT_EQ(info.header.header_checksum, 0x446945775c3d7ea7ull);
  EXPECT_EQ(info.file_bytes, 704u);
  expect_identical(load_csr_file(path, {CsrVerify::kAlways}), g);
  std::remove(path.c_str());
}

EdgeList normalized_unique(EdgeList edges) {
  for (auto& [u, v] : edges)
    if (u > v) std::swap(u, v);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// An edge soup with duplicates and both orientations, written from
// Graph(n, soup) as dcolor-import `edges` does, loads back identical to the
// graph of its cleaned pairs. (The name is kept from the retired external
// builder, DESIGN.md §8.)
TEST(CsrFile, ExternalBuildMatchesInMemoryBuilder) {
  EdgeList soup;
  const NodeId n = 41;
  std::uint64_t state = 99;
  for (int i = 0; i < 400; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const NodeId u = static_cast<NodeId>((state >> 32) % n);
    const NodeId v = static_cast<NodeId>((state >> 13) % n);
    if (u == v) continue;
    soup.emplace_back(u, v);
    if (i % 3 == 0) soup.emplace_back(v, u);  // reversed duplicate
  }
  const EdgeList clean = normalized_unique(soup);
  ASSERT_LT(clean.size(), soup.size());
  const Graph want(n, clean, kSortedUniqueEdges);

  const std::string path = tmp_path("soup.dcsr");
  write_csr_file(path, Graph(n, soup));
  const Graph loaded = load_csr_file(path, {CsrVerify::kAlways});
  expect_identical(loaded, want);
  EXPECT_EQ(structure_hash(loaded), structure_hash(want));
  std::remove(path.c_str());
}

// The file written from a torus's raw pairs, built without hints, is
// byte-for-byte the file of the generator's hinted build. (The name is kept
// from the retired external builder, DESIGN.md §8.)
TEST(CsrFile, ExternalBuildFileBitIdenticalToWriter) {
  const NodeId rows = 6, cols = 9;
  EdgeList pairs;
  for (NodeId r = 0; r < rows; ++r)
    for (NodeId c = 0; c < cols; ++c) {
      const NodeId cell = r * cols + c;
      pairs.emplace_back(cell, r * cols + (c + 1) % cols);
      pairs.emplace_back(cell, (r + 1) % rows * cols + c);
    }
  const std::string a = tmp_path("generator.dcsr");
  const std::string b = tmp_path("pairs.dcsr");
  write_csr_file(a, torus_grid(rows, cols));
  write_csr_file(b, Graph(rows * cols, pairs, kUnsortedEdges));
  EXPECT_EQ(file_bytes(a), file_bytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CsrFile, MappedGraphSurvivesCopyAndSetIds) {
  const std::string path = tmp_path("ownership.dcsr");
  write_csr_file(path, random_graph(32, 0.3, 3));
  const Graph want = load_csr_file(path);
  {
    Graph copy;
    {
      const Graph mapped = load_csr_file(path);
      copy = mapped;  // shares the mapping via storage keep-alive
    }
    expect_identical(copy, want);  // original mapping handle destroyed
    // set_ids must work on a mapped graph: new ids are owned, the rest
    // stays mapped.
    std::vector<std::uint64_t> ids(32);
    for (NodeId v = 0; v < 32; ++v) ids[v] = 5000 + v;
    copy.set_ids(ids);
    EXPECT_EQ(copy.id(7), 5007u);
    const Graph copy2 = copy;  // partially-owned graph must copy cleanly
    EXPECT_EQ(copy2.id(7), 5007u);
    EXPECT_TRUE(std::equal(copy2.neighbors(0).begin(),
                           copy2.neighbors(0).end(),
                           want.neighbors(0).begin()));
  }
  std::remove(path.c_str());
}

TEST(CsrFile, PeekAndSniff) {
  const std::string path = tmp_path("peek.dcsr");
  const Graph g = cycle_graph(25);
  write_csr_file(path, g);
  EXPECT_TRUE(is_csr_file(path));
  const CsrFileInfo info = peek_csr_file(path);
  EXPECT_EQ(info.header.num_nodes, 25u);
  EXPECT_EQ(info.header.num_edges, 25u);
  EXPECT_EQ(info.header.max_degree, 2u);
  EXPECT_GT(info.file_bytes, sizeof(CsrFileHeader));

  const std::string text = tmp_path("plain.txt");
  std::ofstream(text) << "5 4\n0 1\n";
  EXPECT_FALSE(is_csr_file(text));
  EXPECT_FALSE(is_csr_file(tmp_path("does_not_exist")));
  std::remove(path.c_str());
  std::remove(text.c_str());
}

// --- hostile inputs: every failure is a typed CsrError, never a crash ---

CsrErrorKind load_kind(const std::string& path,
                       CsrVerify verify = CsrVerify::kAlways,
                       std::string* message = nullptr) {
  try {
    (void)load_csr_file(path, {verify});
  } catch (const CsrError& e) {
    // Structured one-line message: mentions the path, no embedded newline.
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_EQ(std::string(e.what()).find('\n'), std::string::npos);
    if (message != nullptr) *message = e.what();
    return e.kind();
  }
  ADD_FAILURE() << "load of " << path << " unexpectedly succeeded";
  return CsrErrorKind::kOpen;
}

std::string write_valid_file(const std::string& name) {
  const std::string path = tmp_path(name);
  write_csr_file(path, torus_grid(4, 5));
  return path;
}

void corrupt_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(CsrFileHostile, MissingFile) {
  EXPECT_EQ(load_kind(tmp_path("missing.dcsr")), CsrErrorKind::kOpen);
}

TEST(CsrFileHostile, ShortHeader) {
  const std::string path = tmp_path("short.dcsr");
  std::ofstream(path, std::ios::binary) << "DC";  // 2 bytes
  EXPECT_EQ(load_kind(path), CsrErrorKind::kShortHeader);
  std::ofstream(path, std::ios::binary | std::ios::trunc);  // 0 bytes
  EXPECT_EQ(load_kind(path), CsrErrorKind::kShortHeader);
  std::remove(path.c_str());
}

TEST(CsrFileHostile, BadMagic) {
  const std::string path = write_valid_file("magic.dcsr");
  corrupt_byte(path, 0);
  EXPECT_EQ(load_kind(path), CsrErrorKind::kBadMagic);
  EXPECT_FALSE(is_csr_file(path));
  std::remove(path.c_str());
}

TEST(CsrFileHostile, BadVersion) {
  const std::string path = write_valid_file("version.dcsr");
  // Version field sits right after the 8-byte magic.
  corrupt_byte(path, 8);
  EXPECT_EQ(load_kind(path), CsrErrorKind::kBadVersion);
  std::remove(path.c_str());
}

TEST(CsrFileHostile, CorruptedHeaderGeometry) {
  const std::string path = write_valid_file("geometry.dcsr");
  // num_nodes field: magic(8) + version(4) + header_bytes(4).
  corrupt_byte(path, 16);
  const CsrErrorKind kind = load_kind(path);
  // Depending on which bit flips, this is caught by the header checksum.
  EXPECT_EQ(kind, CsrErrorKind::kBadHeader);
  std::remove(path.c_str());
}

TEST(CsrFileHostile, TruncatedPayload) {
  const std::string path = write_valid_file("truncated.dcsr");
  const CsrFileInfo info = peek_csr_file(path);
  std::ofstream f(path, std::ios::binary | std::ios::in);
  f.close();
  // Chop the last section short.
  const std::uint64_t keep = info.file_bytes - 64;
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(keep)), 0);
  EXPECT_EQ(load_kind(path), CsrErrorKind::kTruncated);
  // Even with verification off, geometry still protects the mapping.
  EXPECT_EQ(load_kind(path, CsrVerify::kNever), CsrErrorKind::kTruncated);
  std::remove(path.c_str());
}

TEST(CsrFileHostile, PayloadChecksumMismatch) {
  // Flip the first, then the last byte of each section in turn: the
  // interleaved verification must see every lane's whole range, and the
  // error must name the section whose bytes changed.
  for (int s = 0; s < kNumSections; ++s) {
    for (const bool last : {false, true}) {
      const std::string path = write_valid_file("payload.dcsr");
      const CsrSection sec = peek_csr_file(path).header.sections[s];
      ASSERT_GT(sec.bytes, 0u);
      corrupt_byte(path, sec.offset + (last ? sec.bytes - 1 : 0));
      const std::string where = std::string(kCsrSectionNames[s]) +
                                (last ? ", last byte" : ", first byte");
      std::string message;
      EXPECT_EQ(load_kind(path, CsrVerify::kAlways, &message),
                CsrErrorKind::kChecksum)
          << where;
      EXPECT_NE(message.find("section " + std::to_string(s) + " (" +
                             kCsrSectionNames[s] + ")"),
                std::string::npos)
          << where << ": " << message;
      // kNever skips payload verification by design: the load succeeds
      // (the header is intact), which is exactly the lazy-page tradeoff
      // documented in the header. kAuto on a small file verifies.
      EXPECT_NO_THROW((void)load_csr_file(path, {CsrVerify::kNever}));
      EXPECT_EQ(load_kind(path, CsrVerify::kAuto), CsrErrorKind::kChecksum)
          << where;
      std::remove(path.c_str());
    }
  }
}

TEST(CsrFile, LoaderRejectsDuplicateIds) {
  // The algorithms break symmetry by id, and from_external trusts its
  // arrays: a file whose ids section repeats a value must fail to load,
  // whatever the verification policy. Node 0's id is copied onto a clique
  // neighbor, then onto a node in another clique (the case only det used
  // to notice, deep in Phase 1).
  CliqueInstanceOptions opt;
  opt.num_cliques = 64;
  opt.delta = 16;
  opt.clique_size = 16;
  opt.seed = 1;
  const CliqueInstance inst = clique_blowup_instance(opt);
  const Graph& g = inst.graph;
  ASSERT_EQ(g.num_nodes(), 1024u);
  NodeId far = 1;
  while (g.has_edge(0, far)) ++far;
  for (const NodeId copy_to : {g.neighbors(0)[0], far}) {
    std::vector<std::uint64_t> ids(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = g.id(v);
    ids[copy_to] = ids[0];
    Graph::ExternalCsr csr = g.external_view();
    csr.ids = ids.data();
    const std::string path = tmp_path("dup_ids.dcsr");
    write_csr_file(path, Graph::from_external(csr, nullptr));
    for (const CsrVerify verify : {CsrVerify::kAlways, CsrVerify::kNever}) {
      std::string message;
      EXPECT_EQ(load_kind(path, verify, &message),
                CsrErrorKind::kDuplicateIds)
          << "copy_to=" << copy_to;
      EXPECT_NE(message.find("repeats LOCAL identifier " +
                             std::to_string(ids[0])),
                std::string::npos)
          << message;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace deltacolor
