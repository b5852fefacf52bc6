// Streaming aggregation walkthrough: summing a participant population that
// would never fit in memory all at once, at a modulus where naive uint64
// accumulation would silently wrap.
//
// Holding every encoded vector resident at once takes O(n·d) memory,
// hopeless for the "millions of users" regime. Secure aggregation is
// therefore one streaming session (`Open(dim, m)` -> `Absorb`* ->
// `Finalize()`) that folds each contribution into an O(d) running sum the
// moment it arrives (O(threads·d) while a tile is absorbed in parallel), so
// the peak resident footprint is independent of the participant count. All
// accumulation is exact integer arithmetic mod m — verified below against a
// 128-bit reference.
//
// Build & run:  ./build/example_streaming_aggregation
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "secagg/secure_aggregator.h"
#include "secagg/streaming_aggregator.h"

int main() {
  // --- Part 1: the ideal aggregator at population scale. ---
  // 200k participants x 256 dims at m = 2^64 - 59: holding every encoded
  // vector would take ~400 MB; the stream holds one 2 KB running sum plus
  // the single tile in flight.
  constexpr size_t kParticipants = 200000;
  constexpr size_t kDim = 256;
  constexpr size_t kTile = 1024;
  constexpr uint64_t kModulus = 18446744073709551557ULL;  // 2^64 - 59.

  smm::ThreadPool pool(4);
  smm::secagg::IdealAggregator ideal;
  auto stream = ideal.Open(kDim, kModulus, &pool);
  if (!stream.ok()) {
    std::printf("open failed: %s\n", stream.status().ToString().c_str());
    return 1;
  }

  // Contributions are produced tile by tile and absorbed immediately; a
  // 128-bit shadow accumulator tracks the exact sum for the cross-check.
  std::vector<unsigned __int128> exact(kDim, 0);
  smm::RandomGenerator rng(41);
  std::vector<int> ids(kTile);
  std::vector<std::vector<uint64_t>> tile(kTile,
                                          std::vector<uint64_t>(kDim));
  for (size_t begin = 0; begin < kParticipants; begin += kTile) {
    const size_t count = std::min(kTile, kParticipants - begin);
    ids.resize(count);
    tile.resize(count);
    for (size_t i = 0; i < count; ++i) {
      ids[i] = static_cast<int>(begin + i);
      for (size_t k = 0; k < kDim; ++k) {
        tile[i][k] = rng.UniformUint64(kModulus);
        exact[k] += tile[i][k];
      }
    }
    auto status = (*stream)->AbsorbTile(ids, tile);
    if (!status.ok()) {
      std::printf("absorb failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  auto sum = (*stream)->Finalize();
  if (!sum.ok()) {
    std::printf("finalize failed: %s\n", sum.status().ToString().c_str());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t k = 0; k < kDim; ++k) {
    if ((*sum)[k] != static_cast<uint64_t>(exact[k] % kModulus)) {
      ++mismatches;
    }
  }
  const double all_mb = static_cast<double>(kParticipants) * kDim * 8 / 1e6;
  const double stream_kb = static_cast<double>(kDim) * 8 / 1e3;
  std::printf("ideal streaming sum over %zu participants x %zu dims\n",
              kParticipants, kDim);
  std::printf("  modulus m = 2^64 - 59 (naive accumulation would wrap)\n");
  std::printf("  all contributions would take %.0f MB; stream holds %.1f KB\n",
              all_mb, stream_kb);
  std::printf("  128-bit reference cross-check: %s\n\n",
              mismatches == 0 ? "bit-identical" : "MISMATCH (bug!)");
  if (mismatches != 0) return 1;

  // --- Part 2: the masked (Bonawitz-style) protocol, with dropouts. ---
  // Masked inputs arrive one at a time; whoever has not arrived by
  // Finalize counts as dropped, and their leftover masks are removed via
  // Shamir recovery — deferred protocol work the stream runs exactly once.
  constexpr int kMaskedParticipants = 8;
  smm::secagg::MaskedAggregator::Options options;
  options.num_participants = kMaskedParticipants;
  options.threshold = 5;
  options.session_seed = 2024;
  auto masked_agg = smm::secagg::MaskedAggregator::Create(options);
  if (!masked_agg.ok()) {
    std::printf("setup failed: %s\n",
                masked_agg.status().ToString().c_str());
    return 1;
  }

  constexpr size_t kMaskedDim = 6;
  smm::RandomGenerator input_rng(5);
  std::vector<std::vector<uint64_t>> inputs(kMaskedParticipants);
  for (auto& v : inputs) {
    v.resize(kMaskedDim);
    for (auto& x : v) x = input_rng.UniformUint64(100);
  }

  auto masked_stream = (*masked_agg)->Open(kMaskedDim, kModulus);
  if (!masked_stream.ok()) {
    std::printf("open failed: %s\n",
                masked_stream.status().ToString().c_str());
    return 1;
  }
  // Participants 2 and 6 drop out: their masked inputs never arrive.
  const std::vector<int> survivors = {0, 1, 3, 4, 5, 7};
  for (int i : survivors) {
    auto mi = (*masked_agg)->MaskInput(i, inputs[static_cast<size_t>(i)],
                                       kModulus);
    if (!mi.ok()) {
      std::printf("masking failed: %s\n", mi.status().ToString().c_str());
      return 1;
    }
    auto status = (*masked_stream)->Absorb(i, *mi);
    if (!status.ok()) {
      std::printf("absorb failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  auto surviving_sum = (*masked_stream)->Finalize();
  if (!surviving_sum.ok()) {
    std::printf("unmask failed: %s\n",
                surviving_sum.status().ToString().c_str());
    return 1;
  }
  std::vector<uint64_t> exact_surviving(kMaskedDim, 0);
  for (int i : survivors) {
    for (size_t j = 0; j < kMaskedDim; ++j) {
      exact_surviving[j] += inputs[static_cast<size_t>(i)][j];
    }
  }
  std::printf("masked streaming round: %d participants, 2 dropouts\n",
              kMaskedParticipants);
  std::printf("  streamed unmasked sum: ");
  for (uint64_t v : *surviving_sum) {
    std::printf("%6llu", (unsigned long long)v);
  }
  std::printf("\n  exact survivors' sum:  ");
  for (uint64_t v : exact_surviving) {
    std::printf("%6llu", (unsigned long long)v);
  }
  std::printf("\n  -> masks cancelled, dropped pairs recovered at Finalize\n");
  return 0;
}
