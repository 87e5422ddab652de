// Versioned on-disk CSR container (".dcsr") with a zero-copy mmap loader.
//
// The file is the Graph's five arrays written verbatim in little-endian
// with a fixed header in front:
//
//   +--------------------+----------------+----------------+...
//   | header (168 bytes, | offsets        | adjacency      |
//   | zero-padded to 192)| u64 x (n+1)    | u32 x 2m       |
//   +--------------------+----------------+----------------+...
//      ...+----------------+----------------+----------------+
//         | arc_edge       | edges          | ids            |
//         | u32 x 2m       | (u32,u32) x m  | u64 x n        |
//      ...+----------------+----------------+----------------+
//
// Every section starts on a 64-byte boundary (cache-line / vector-load
// friendly once mapped) and carries an FNV-1a-64 checksum in the header's
// section table; the header itself is checksummed with its checksum field
// zeroed. Loading mmap's the file read-only and adopts the section
// pointers directly via Graph::from_external — no bytes are copied, so a
// coloring run over a mapped graph touches only the pages its access
// pattern actually reads (offsets + adjacency + ids for node algorithms;
// the edges/arc sections stay cold on disk).
//
// Versioning rules: `version` bumps on any layout change; readers reject
// versions they don't know. `header_bytes` lets a newer writer grow the
// header tail without breaking older readers of the same version (readers
// only require header_bytes >= sizeof(CsrFileHeader)). Section order and
// element encodings are frozen per version. All integers little-endian;
// the loader refuses to run on big-endian hosts rather than byte-swap.
//
// Checksum verification on load is lazy by default (CsrVerify::kAuto):
// verifying a section faults in all of its pages, which would defeat the
// point of mapping a 20 GB file, so kAuto verifies sections only when the
// file is at most kAutoVerifyLimit bytes. The header is always verified.
// DELTACOLOR_CSR_VERIFY=always|never|auto resolves kAuto, the default; a
// caller's explicit kAlways or kNever stands whatever the variable says.
//
// FNV-1a is one serial xor-multiply chain per section, bound by the
// multiply's latency rather than by memory bandwidth. The five sections'
// chains are independent, so csr_checksums advances them interleaved in
// one pass: the loader's verification and the writer cost about one
// chain over the longest section instead of a chain over the whole file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace deltacolor {

// The bytes "DCSRGRPH" read as a little-endian u64.
inline constexpr std::uint64_t kCsrMagic = 0x4850524752534344ull;
inline constexpr std::uint32_t kCsrVersion = 1;
inline constexpr std::size_t kCsrSectionAlign = 64;
/// kAuto verifies section checksums only up to this file size.
inline constexpr std::uint64_t kAutoVerifyLimit = 256ull << 20;

/// Section indices in the header's section table.
enum CsrSectionId : int {
  kSecOffsets = 0,
  kSecAdjacency = 1,
  kSecArcEdge = 2,
  kSecEdges = 3,
  kSecIds = 4,
  kNumSections = 5,
};

/// Section names in table order (error messages, `dcolor-import info`).
inline constexpr const char* kCsrSectionNames[kNumSections] = {
    "offsets", "adjacency", "arc_edge", "edges", "ids"};

struct CsrSection {
  std::uint64_t offset = 0;    // absolute byte offset in the file
  std::uint64_t bytes = 0;     // section payload length
  std::uint64_t checksum = 0;  // FNV-1a-64 over the payload
};

struct CsrFileHeader {
  std::uint64_t magic = kCsrMagic;
  std::uint32_t version = kCsrVersion;
  std::uint32_t header_bytes = 0;  // sizeof(CsrFileHeader) at write time
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t max_degree = 0;
  std::uint32_t flags = 0;  // reserved, must be 0 in version 1
  CsrSection sections[kNumSections];
  std::uint64_t header_checksum = 0;  // FNV-1a-64, this field zeroed
};
static_assert(sizeof(CsrFileHeader) == 168, "on-disk header layout is frozen");

/// What went wrong, machine-readable (tests assert on the kind; the
/// message is the structured one-line human rendering).
enum class CsrErrorKind {
  kOpen,        // open/stat/mmap/write syscall failure
  kShortHeader, // file smaller than the fixed header
  kBadMagic,    // not a .dcsr file
  kBadVersion,  // a version this reader does not understand
  kBadHeader,   // header checksum mismatch or inconsistent geometry
  kTruncated,   // sections extend past the end of the file
  kChecksum,    // a section checksum mismatch
  kDuplicateIds, // the ids section repeats a LOCAL identifier
};

class CsrError : public std::runtime_error {
 public:
  CsrError(CsrErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  CsrErrorKind kind() const { return kind_; }

 private:
  CsrErrorKind kind_;
};

enum class CsrVerify { kAuto, kAlways, kNever };

struct CsrLoadOptions {
  CsrVerify verify = CsrVerify::kAuto;
};

/// RAII mmap of a whole file (read-only). Exposed so tests and tools can
/// hold mappings directly; load_csr_file wraps one as the Graph's storage.
class CsrMapping {
 public:
  /// Maps `path` read-only; throws CsrError(kOpen) on failure.
  explicit CsrMapping(const std::string& path);
  ~CsrMapping();
  CsrMapping(const CsrMapping&) = delete;
  CsrMapping& operator=(const CsrMapping&) = delete;

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Header + derived facts without mapping the payload (reads the first
/// 168 bytes only). Throws CsrError on anything malformed.
struct CsrFileInfo {
  CsrFileHeader header;
  std::uint64_t file_bytes = 0;
};
CsrFileInfo peek_csr_file(const std::string& path);

/// True when `path` exists, is readable, and starts with the CSR magic.
/// Never throws — any failure is "not a CSR file".
bool is_csr_file(const std::string& path);

/// Zero-copy load: validates the header (always) and section checksums
/// (per options.verify; kAuto per DELTACOLOR_CSR_VERIFY), checks that the
/// ids section holds distinct values (always; find_duplicate_id, one
/// bitmap pass for dense ids), then adopts the mapped sections. The
/// returned Graph keeps the mapping alive; copies share it.
Graph load_csr_file(const std::string& path,
                    const CsrLoadOptions& options = {});

/// Serializes an in-memory Graph to `path` (atomic: writes path + ".tmp"
/// then renames). Throws CsrError(kOpen) on I/O failure.
void write_csr_file(const std::string& path, const Graph& g);

/// FNV-1a-64 (the section checksum primitive; exposed for tests).
std::uint64_t csr_checksum(const void* data, std::size_t bytes,
                           std::uint64_t seed = 0xcbf29ce484222325ull);

/// FNV-1a-64 of up to kNumSections ranges in one pass: out[i] is exactly
/// csr_checksum(ranges[i].data(), ranges[i].size()). The chains advance
/// one byte each per step, so their multiply latencies overlap and the
/// pass costs about one chain over the longest range.
void csr_checksums(std::span<const std::span<const std::byte>> ranges,
                   std::span<std::uint64_t> out);

}  // namespace deltacolor
