#pragma once
// Software-prefetch helpers for the per-update hot loops.
//
// SSSP's inner loop is a random walk over the distance array and the CSR
// offsets: every delivered update touches dist[v - first] for an
// effectively random v, and every expansion follows with the vertex's
// adjacency row.  Out-of-order execution cannot hide those misses —
// the compare in the apply loop depends on the load — but the *addresses*
// are known a whole batch ahead, so issuing a prefetch a few items early
// overlaps the miss with useful work (the PrefEdge approach; see
// docs/performance.md "Locality").
//
// Prefetches are pure hardware hints: they change no architectural state,
// so every user of this header stays bit-identical in simulated time,
// counters and distances (the determinism test and bench/wallclock pin
// this down).

#include <cstddef>

namespace acic::util {

/// Read-prefetch with high temporal locality; a no-op on compilers
/// without the builtin.
inline void prefetch_read(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// How many items ahead the tram delivery loop prefetches the target
/// distance slot and CSR offsets row.  Chosen from the
/// BM_UpdateApplyPrefetch sweep in bench/micro_benchmarks (N ∈
/// {0,2,4,8,16}): 8 sits at the flat bottom of the curve — far enough
/// out to cover a memory round-trip behind ~8 items of apply work,
/// close enough that the lines are still resident when used.
inline constexpr std::size_t kDeliverPrefetchLookahead = 8;

/// How much of an adjacency row ACIC's row loop prefetches as it starts
/// the row.  Each edge's work spans too many instructions for
/// out-of-order execution to reach the next cache line of the row on its
/// own, and the hardware stream prefetcher only takes over after a few
/// misses.  Swept over {256, 512, 1024} bytes with ACIC at one thread on
/// the scale-16 benchmark graphs: 1024 was best.
inline constexpr std::size_t kRowPrefetchBytes = 1024;

/// Prefetches the first kRowPrefetchBytes of the `bytes`-byte row at
/// `row` a cache line apart, skipping the first line, which the row loop
/// loads straight away.
inline void prefetch_row(const void* row, std::size_t bytes) {
  constexpr std::size_t kLine = 64;
  const char* p = static_cast<const char*>(row);
  const std::size_t span =
      bytes < kRowPrefetchBytes ? bytes : kRowPrefetchBytes;
  for (std::size_t off = kLine; off < span; off += kLine) {
    prefetch_read(p + off);
  }
}

/// Lookahead for frontier/worklist expansion loops (delta's bucket and
/// settled lists, KLA's deferred list).  Each iteration walks a whole
/// adjacency row, so fewer items cover the same latency.
inline constexpr std::size_t kExpandPrefetchLookahead = 4;

}  // namespace acic::util
