// Stub of the retired wide-palette SIMD dispatch: every PaletteSet op is
// one scalar word loop, so the only level is "scalar". It remains because
// perfbench/dcbench.cpp prints simd::to_string(simd::active_level()) in
// its provenance; it goes at the next change to the benchmark.
#pragma once

namespace deltacolor::simd {
enum class Level { kScalar };
inline Level active_level() { return Level::kScalar; }
inline const char* to_string(Level) { return "scalar"; }
}  // namespace deltacolor::simd
