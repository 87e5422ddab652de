#include "graph/csr_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace deltacolor {

static_assert(std::endian::native == std::endian::little,
              "the .dcsr reader/writer assumes a little-endian host");
static_assert(sizeof(std::pair<NodeId, NodeId>) == 8 &&
                  std::is_standard_layout_v<std::pair<NodeId, NodeId>>,
              "edge pairs must map 1:1 onto the on-disk (u32,u32) records");
// Field offsets are part of the frozen v1 wire format, not an accident of
// the struct definition.
static_assert(offsetof(CsrFileHeader, magic) == 0);
static_assert(offsetof(CsrFileHeader, version) == 8);
static_assert(offsetof(CsrFileHeader, header_bytes) == 12);
static_assert(offsetof(CsrFileHeader, num_nodes) == 16);
static_assert(offsetof(CsrFileHeader, num_edges) == 24);
static_assert(offsetof(CsrFileHeader, max_degree) == 32);
static_assert(offsetof(CsrFileHeader, flags) == 36);
static_assert(offsetof(CsrFileHeader, sections) == 40);
static_assert(offsetof(CsrFileHeader, header_checksum) == 160);

namespace {

[[noreturn]] void fail(CsrErrorKind kind, const std::string& path,
                       const std::string& what) {
  throw CsrError(kind, "csr_file: " + path + ": " + what);
}

std::uint64_t align_up(std::uint64_t x) {
  return (x + (kCsrSectionAlign - 1)) & ~(std::uint64_t{kCsrSectionAlign} - 1);
}

/// Section placement for a graph with n nodes and m edges. Checksums are
/// left zero — the writer fills them, the reader compares them.
struct CsrLayout {
  CsrSection sections[kNumSections];
  std::uint64_t total_bytes = 0;
};

CsrLayout csr_layout(std::uint64_t n, std::uint64_t m) {
  const std::uint64_t sizes[kNumSections] = {
      8 * (n + 1),  // offsets
      4 * 2 * m,    // adjacency
      4 * 2 * m,    // arc_edge
      8 * m,        // edges
      8 * n,        // ids
  };
  CsrLayout layout;
  std::uint64_t pos = align_up(sizeof(CsrFileHeader));
  for (int s = 0; s < kNumSections; ++s) {
    layout.sections[s].offset = pos;
    layout.sections[s].bytes = sizes[s];
    pos = align_up(pos + sizes[s]);
  }
  layout.total_bytes = pos;
  return layout;
}

/// Every structural check shared by peek and load. `file_bytes` is the
/// real size on disk. Throws the most specific CsrError it can.
void validate_header(const CsrFileHeader& h, std::uint64_t file_bytes,
                     const std::string& path) {
  if (h.magic != kCsrMagic) fail(CsrErrorKind::kBadMagic, path, "bad magic (not a .dcsr file)");
  if (h.version != kCsrVersion)
    fail(CsrErrorKind::kBadVersion, path,
         "unsupported version " + std::to_string(h.version) +
             " (reader understands " + std::to_string(kCsrVersion) + ")");
  if (h.header_bytes < sizeof(CsrFileHeader))
    fail(CsrErrorKind::kBadHeader, path,
         "header_bytes " + std::to_string(h.header_bytes) + " too small");
  CsrFileHeader probe = h;
  probe.header_checksum = 0;
  if (csr_checksum(&probe, sizeof(probe)) != h.header_checksum)
    fail(CsrErrorKind::kBadHeader, path, "header checksum mismatch");
  if (h.flags != 0)
    fail(CsrErrorKind::kBadHeader, path, "unknown flags set");
  const CsrLayout want = csr_layout(h.num_nodes, h.num_edges);
  for (int s = 0; s < kNumSections; ++s) {
    if (h.sections[s].offset != want.sections[s].offset ||
        h.sections[s].bytes != want.sections[s].bytes)
      fail(CsrErrorKind::kBadHeader, path,
           "section " + std::to_string(s) + " geometry inconsistent with "
           "num_nodes/num_edges");
  }
  if (file_bytes < want.total_bytes)
    fail(CsrErrorKind::kTruncated, path,
         "file is " + std::to_string(file_bytes) + " bytes, sections need " +
             std::to_string(want.total_bytes));
}

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Advances each FNV-1a-64 chain h[k] by the next `len` bytes at p[k], one
/// byte of every chain per step. The multiplies of a step do not depend on
/// each other, so a step costs about one multiply latency whatever the
/// lane count. The lanes are a pack expansion so that each chain stays in
/// a register.
template <std::size_t... K>
void fnv1a_lanes(std::index_sequence<K...>, const unsigned char** p,
                 std::uint64_t* h, std::size_t len) {
  const unsigned char* const q[] = {p[K]...};
  std::uint64_t x[] = {h[K]...};
  for (std::size_t i = 0; i < len; ++i)
    ((x[K] = (x[K] ^ q[K][i]) * kFnvPrime), ...);
  ((h[K] = x[K], p[K] += len), ...);
}

/// The checksums of all kNumSections payloads starting at `base`.
std::array<std::uint64_t, kNumSections> section_checksums(
    const std::byte* base, const CsrSection (&sections)[kNumSections]) {
  std::span<const std::byte> payloads[kNumSections];
  for (int s = 0; s < kNumSections; ++s)
    payloads[s] = {base + sections[s].offset, sections[s].bytes};
  std::array<std::uint64_t, kNumSections> sums;
  csr_checksums(payloads, sums);
  return sums;
}

CsrVerify verify_policy(CsrVerify requested) {
  const char* env = std::getenv("DELTACOLOR_CSR_VERIFY");
  if (env == nullptr) return requested;
  const std::string v(env);
  if (v == "always" || v == "1") return CsrVerify::kAlways;
  if (v == "never" || v == "0") return CsrVerify::kNever;
  if (v == "auto") return CsrVerify::kAuto;
  std::fprintf(stderr,
               "csr_file: ignoring unknown DELTACOLOR_CSR_VERIFY=%s "
               "(expected always|never|auto)\n",
               env);
  return requested;
}

}  // namespace

std::uint64_t csr_checksum(const void* data, std::size_t bytes,
                           std::uint64_t seed) {
  // FNV-1a-64, the single-range reference. Each byte waits for the
  // previous multiply, so this runs at one multiply latency per byte;
  // section payloads go through csr_checksums instead.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void csr_checksums(std::span<const std::span<const std::byte>> ranges,
                   std::span<std::uint64_t> out) {
  const std::size_t count = ranges.size();
  DC_CHECK(count <= kNumSections && out.size() == count);
  // Lanes sorted by length: all chains advance together until the
  // shortest ends, then the others go on without it, and so on.
  std::size_t order[kNumSections];
  std::iota(order, order + count, std::size_t{0});
  std::sort(order, order + count, [&](std::size_t a, std::size_t b) {
    return ranges[a].size() < ranges[b].size();
  });
  const unsigned char* p[kNumSections];
  std::uint64_t h[kNumSections];
  for (std::size_t i = 0; i < count; ++i) {
    p[i] = reinterpret_cast<const unsigned char*>(ranges[order[i]].data());
    h[i] = kFnvOffsetBasis;
  }
  std::size_t done = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = ranges[order[i]].size() - done;
    if (len == 0) continue;
    const unsigned char** lp = p + i;
    std::uint64_t* lh = h + i;
    switch (count - i) {
      case 5: fnv1a_lanes(std::make_index_sequence<5>{}, lp, lh, len); break;
      case 4: fnv1a_lanes(std::make_index_sequence<4>{}, lp, lh, len); break;
      case 3: fnv1a_lanes(std::make_index_sequence<3>{}, lp, lh, len); break;
      case 2: fnv1a_lanes(std::make_index_sequence<2>{}, lp, lh, len); break;
      default: fnv1a_lanes(std::make_index_sequence<1>{}, lp, lh, len);
    }
    done += len;
  }
  for (std::size_t i = 0; i < count; ++i) out[order[i]] = h[i];
}

CsrMapping::CsrMapping(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    fail(CsrErrorKind::kOpen, path,
         std::string("open failed: ") + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(CsrErrorKind::kOpen, path,
         std::string("stat failed: ") + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    // mmap rejects zero-length maps; a zero-byte file is simply too short.
    ::close(fd);
    fail(CsrErrorKind::kShortHeader, path, "file is empty");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED)
    fail(CsrErrorKind::kOpen, path,
         std::string("mmap failed: ") + std::strerror(errno));
  data_ = static_cast<const std::byte*>(map);
}

CsrMapping::~CsrMapping() {
  if (data_ != nullptr)
    ::munmap(const_cast<std::byte*>(data_), size_);
}

CsrFileInfo peek_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    fail(CsrErrorKind::kOpen, path,
         std::string("open failed: ") + std::strerror(errno));
  in.seekg(0, std::ios::end);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  CsrFileInfo info;
  info.file_bytes = file_bytes;
  if (file_bytes < sizeof(CsrFileHeader))
    fail(CsrErrorKind::kShortHeader, path,
         "file is " + std::to_string(file_bytes) +
             " bytes, header needs " + std::to_string(sizeof(CsrFileHeader)));
  in.read(reinterpret_cast<char*>(&info.header), sizeof(info.header));
  if (!in)
    fail(CsrErrorKind::kOpen, path, "header read failed");
  validate_header(info.header, file_bytes, path);
  return info;
}

bool is_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kCsrMagic;
}

Graph load_csr_file(const std::string& path, const CsrLoadOptions& options) {
  auto mapping = std::make_shared<CsrMapping>(path);
  if (mapping->size() < sizeof(CsrFileHeader))
    fail(CsrErrorKind::kShortHeader, path,
         "file is " + std::to_string(mapping->size()) +
             " bytes, header needs " + std::to_string(sizeof(CsrFileHeader)));
  CsrFileHeader header;
  std::memcpy(&header, mapping->data(), sizeof(header));
  validate_header(header, mapping->size(), path);

  const CsrVerify verify = verify_policy(options.verify);
  const bool check_sections =
      verify == CsrVerify::kAlways ||
      (verify == CsrVerify::kAuto && mapping->size() <= kAutoVerifyLimit);
  if (check_sections) {
    const auto sums = section_checksums(mapping->data(), header.sections);
    for (int s = 0; s < kNumSections; ++s) {
      if (sums[s] != header.sections[s].checksum)
        fail(CsrErrorKind::kChecksum, path,
             "section " + std::to_string(s) + " (" + kCsrSectionNames[s] +
                 ") checksum mismatch");
    }
  }

  const std::byte* base = mapping->data();
  Graph::ExternalCsr csr;
  csr.offsets = reinterpret_cast<const std::uint64_t*>(
      base + header.sections[kSecOffsets].offset);
  csr.adjacency = reinterpret_cast<const NodeId*>(
      base + header.sections[kSecAdjacency].offset);
  csr.arc_edge = reinterpret_cast<const EdgeId*>(
      base + header.sections[kSecArcEdge].offset);
  csr.edges = reinterpret_cast<const std::pair<NodeId, NodeId>*>(
      base + header.sections[kSecEdges].offset);
  csr.ids = reinterpret_cast<const std::uint64_t*>(
      base + header.sections[kSecIds].offset);
  csr.num_nodes = static_cast<NodeId>(header.num_nodes);
  csr.num_edges = static_cast<EdgeId>(header.num_edges);
  csr.max_degree = static_cast<int>(header.max_degree);
  // Graph::from_external trusts its arrays, and the algorithms break
  // symmetry by id: a repeated id must not get past the loader.
  if (const auto duplicate = find_duplicate_id({csr.ids, csr.num_nodes}))
    fail(CsrErrorKind::kDuplicateIds, path,
         "ids section repeats LOCAL identifier " + std::to_string(*duplicate));
  return Graph::from_external(csr, std::move(mapping));
}

void write_csr_file(const std::string& path, const Graph& g) {
  const Graph::ExternalCsr v = g.external_view();
  const std::uint64_t n = v.num_nodes;
  const std::uint64_t m = v.num_edges;
  CsrLayout layout = csr_layout(n, m);

  const void* payloads[kNumSections] = {v.offsets, v.adjacency, v.arc_edge,
                                        v.edges, v.ids};
  std::span<const std::byte> ranges[kNumSections];
  for (int s = 0; s < kNumSections; ++s)
    ranges[s] = {static_cast<const std::byte*>(payloads[s]),
                 layout.sections[s].bytes};
  std::uint64_t sums[kNumSections];
  csr_checksums(ranges, sums);
  CsrFileHeader header;
  header.header_bytes = sizeof(CsrFileHeader);
  header.num_nodes = n;
  header.num_edges = m;
  header.max_degree = static_cast<std::uint32_t>(v.max_degree);
  for (int s = 0; s < kNumSections; ++s) {
    header.sections[s] = layout.sections[s];
    header.sections[s].checksum = sums[s];
  }
  header.header_checksum = 0;
  header.header_checksum = csr_checksum(&header, sizeof(header));

  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out)
    fail(CsrErrorKind::kOpen, tmp,
         std::string("open failed: ") + std::strerror(errno));
  const auto pad_to = [&out](std::uint64_t target) {
    static const char zeros[kCsrSectionAlign] = {};
    std::uint64_t at = static_cast<std::uint64_t>(out.tellp());
    while (at < target) {
      const std::uint64_t chunk = std::min<std::uint64_t>(
          target - at, sizeof(zeros));
      out.write(zeros, static_cast<std::streamsize>(chunk));
      at += chunk;
    }
  };
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (int s = 0; s < kNumSections; ++s) {
    pad_to(layout.sections[s].offset);
    out.write(static_cast<const char*>(payloads[s]),
              static_cast<std::streamsize>(layout.sections[s].bytes));
  }
  pad_to(layout.total_bytes);
  out.flush();
  if (!out)
    fail(CsrErrorKind::kOpen, tmp, "write failed");
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    fail(CsrErrorKind::kOpen, path,
         std::string("rename failed: ") + std::strerror(errno));
}

}  // namespace deltacolor
