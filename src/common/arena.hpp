// Per-worker scratch arena: a bump allocator for the variable-length
// scratch a node transition needs (neighbor coefficient tables, free-edge
// candidate lists). Replaces per-step thread_local std::vectors with spans
// carved from one per-thread buffer, so the steady-state engine round
// performs no heap allocation once every worker's arena has reached its
// high-water capacity.
//
// Ownership / reset contract (see DESIGN.md):
//   - ScratchArena::local() returns the calling thread's arena. The
//     SyncRunner engine resets it at the start of every chunk a worker
//     executes (one chunk per worker per round), so scratch never outlives
//     the round that carved it — re-reading stale scratch across rounds
//     would break the LOCAL fidelity contract, and the reset makes that
//     structurally impossible.
//   - Step kernels open a Frame (RAII) and allocate through it; the frame
//     restores the bump pointer on destruction, so per-node scratch is
//     reclaimed immediately and a chunk's footprint is the *maximum* over
//     its nodes, not the sum.
//   - alloc<T>() requires trivially copyable T (no destructors run).
//   - An optional per-arena byte budget (set_limit) turns runaway scratch
//     growth into a structured allocation-limit CellError at the growth
//     site instead of std::bad_alloc-ing the process mid-sweep; the sweep
//     driver installs it per cell from RetryPolicy::arena_limit_bytes.
//     Growth events also report to an installable probe (set_alloc_probe),
//     which is how the FaultInjector plants deterministic allocation
//     failures without this header depending on the injector.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/errors.hpp"

namespace deltacolor {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Rewinds the bump pointer. Growth beyond the current capacity during
  /// the previous epoch is folded into one contiguous block here (never
  /// mid-epoch, so outstanding pointers stay valid until reset).
  void reset() {
    if (!overflow_.empty()) {
      std::size_t total = buf_.size();
      for (const auto& block : overflow_) total += block.size();
      buf_.resize(total);
      overflow_.clear();
      overflow_used_ = 0;
    }
    used_ = 0;
  }

  /// `count` default-initialized T's, aligned to alignof(T). Pointers
  /// remain valid until reset() (frames rewind the offset but never
  /// reclaim storage).
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena scratch must be trivially copyable");
    const std::size_t bytes = count * sizeof(T);
    const std::size_t aligned = aligned_offset(buf_.data(), used_, alignof(T));
    if (aligned + bytes <= buf_.size()) {
      used_ = aligned + bytes;
      high_water_ = used_ > high_water_ ? used_ : high_water_;
      return reinterpret_cast<T*>(buf_.data() + aligned);
    }
    return static_cast<T*>(alloc_overflow(bytes, alignof(T)));
  }

  std::size_t used() const { return used_; }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t high_water() const { return high_water_; }
  /// Heap allocations the arena itself has performed (growth events) —
  /// flat after warm-up; the allocation-counting test asserts this.
  std::size_t growth_count() const { return growth_count_; }

  /// Optional byte budget for this arena's total capacity (primary buffer
  /// plus overflow blocks). 0 = unlimited. A growth event that would push
  /// the capacity past the limit throws a structured allocation-limit
  /// CellError instead of letting std::bad_alloc (or the OOM killer) take
  /// the whole sweep down; already-reserved capacity stays usable.
  void set_limit(std::size_t bytes) { limit_ = bytes; }
  std::size_t limit() const { return limit_; }
  /// Total heap bytes currently reserved by this arena.
  std::size_t total_capacity() const {
    std::size_t total = buf_.size();
    for (const auto& block : overflow_) total += block.size();
    return total;
  }

  /// Probe invoked (process-wide, all arenas) at every growth event with
  /// the requested byte count, before the allocation happens. Installed by
  /// the FaultInjector to plant deterministic allocation failures; a probe
  /// may throw. nullptr disables (the default).
  using AllocProbe = void (*)(std::size_t bytes);
  static void set_alloc_probe(AllocProbe probe) {
    alloc_probe_ref().store(probe, std::memory_order_relaxed);
  }

  /// The calling thread's arena (workers and the serial engine path each
  /// see their own).
  static ScratchArena& local() {
    thread_local ScratchArena arena;
    return arena;
  }

  /// RAII bump-pointer frame: restores used() on destruction so per-node
  /// scratch does not accumulate across a chunk. Frames nest (stack
  /// discipline); allocation through a dead frame's pointers is UB.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena = ScratchArena::local())
        : arena_(arena), saved_(arena.used_) {}
    ~Frame() {
      // Overflow blocks (if any) stay alive until the next reset(); only
      // the primary bump offset rewinds.
      arena_.used_ = saved_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    template <typename T>
    T* alloc(std::size_t count) {
      return arena_.alloc<T>(count);
    }

   private:
    ScratchArena& arena_;
    std::size_t saved_;
  };

 private:
  /// Offset from `block` of the first `align`-aligned address at or past
  /// block + used. Alignment is taken against the address, not the offset:
  /// operator new only promises 16 bytes for the block itself.
  static std::size_t aligned_offset(const std::byte* block, std::size_t used,
                                    std::size_t align) {
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(block);
    return static_cast<std::size_t>(
        ((base + used + align - 1) & ~(align - 1)) - base);
  }

  /// Slow path: the primary buffer is full. Bump inside the newest
  /// overflow block while it has room, else open a fresh one (geometric
  /// growth). Blocks coalesce into the primary buffer at the next reset(),
  /// so warm steady state never re-enters this path.
  void* alloc_overflow(std::size_t bytes, std::size_t align) {
    if (overflow_.empty() ||
        aligned_offset(overflow_.back().data(), overflow_used_, align) +
                bytes >
            overflow_.back().size()) {
      if (const AllocProbe probe =
              alloc_probe_ref().load(std::memory_order_relaxed))
        probe(bytes);
      const std::size_t need = bytes + align;
      const std::size_t base =
          overflow_.empty() ? buf_.size() : overflow_.back().size();
      std::size_t grow = base == 0 ? 4096 : 2 * base;
      if (grow < need) grow = need;
      if (limit_ != 0 && total_capacity() + grow > limit_)
        throw CellError(
            FaultCategory::kAllocationLimit,
            "scratch arena byte budget exhausted: capacity " +
                std::to_string(total_capacity()) + " + growth " +
                std::to_string(grow) + " exceeds limit " +
                std::to_string(limit_));
      overflow_.emplace_back(grow);
      overflow_used_ = 0;
      ++growth_count_;
    }
    auto& block = overflow_.back();
    const std::size_t off = aligned_offset(block.data(), overflow_used_, align);
    overflow_used_ = off + bytes;
    return block.data() + off;
  }

  static std::atomic<AllocProbe>& alloc_probe_ref() {
    static std::atomic<AllocProbe> probe{nullptr};
    return probe;
  }

  std::vector<std::byte> buf_;
  std::vector<std::vector<std::byte>> overflow_;
  std::size_t overflow_used_ = 0;  // bump offset inside overflow_.back()
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::size_t growth_count_ = 0;
  std::size_t limit_ = 0;  // 0 = unlimited
};

}  // namespace deltacolor
