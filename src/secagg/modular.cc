#include "secagg/modular.h"

#include <cassert>

#include "common/simd.h"

namespace smm::secagg {

uint64_t ModReduce(int64_t value, uint64_t m) {
  assert(m >= 2);
  if (value >= 0) return static_cast<uint64_t>(value) % m;
  // Negative: reduce the magnitude, then fold it below m. ~value computes
  // -value - 1 without the INT64_MIN negation overflow; the +1 cannot wrap
  // because the magnitude is at most 2^63.
  const uint64_t magnitude = (static_cast<uint64_t>(~value) + 1) % m;
  return magnitude == 0 ? 0 : m - magnitude;
}

int64_t CenterLift(uint64_t value, uint64_t m) {
  assert(m >= 2);
  assert(value < m);
  // Negative representatives start at ceil(m/2): value > (m-1)/2 is exactly
  // value >= ceil(m/2) for both parities. For even m this is the familiar
  // value >= m/2 split; for odd m the boundary point floor(m/2) = (m-1)/2
  // stays positive (+(m-1)/2), which the old `value >= m/2` test got wrong
  // by one (it lifted floor(m/2) to -(m+1)/2, outside the centered range).
  if (value > (m - 1) / 2) {
    // Negative representative -(m - value). The magnitude m - value is at
    // most m - ceil(m/2) = floor(m/2) <= floor((2^64 - 1)/2) = 2^63 - 1 =
    // INT64_MAX, so the negation below can never overflow — including the
    // former m = 2^64 - 1 boundary, whose largest magnitude is now
    // 2^63 - 1, not 2^63.
    return -static_cast<int64_t>(m - value);
  }
  return static_cast<int64_t>(value);
}

std::vector<int64_t> LiftVector(const std::vector<uint64_t>& v, uint64_t m) {
  std::vector<int64_t> out(v.size());
  simd::CenterLiftInto(v.data(), v.size(), m, out.data());
  return out;
}

Status ShardedModularAccumulate(
    ThreadPool* pool, size_t n, uint64_t m, std::vector<uint64_t>& acc,
    const std::function<Status(size_t, size_t, std::vector<uint64_t>&)>& fn) {
  if (pool == nullptr || pool->num_threads() == 1 || n < 2) {
    return fn(0, n, acc);
  }
  std::vector<std::vector<uint64_t>> partials(
      static_cast<size_t>(pool->num_threads()));
  std::vector<Status> chunk_status(static_cast<size_t>(pool->num_threads()));
  pool->ParallelFor(n, [&](int chunk, size_t begin, size_t end) {
    std::vector<uint64_t>& partial = partials[static_cast<size_t>(chunk)];
    partial.assign(acc.size(), 0);
    chunk_status[static_cast<size_t>(chunk)] = fn(begin, end, partial);
  });
  for (const Status& status : chunk_status) {
    if (!status.ok()) return status;
  }
  for (const auto& partial : partials) {
    if (partial.empty()) continue;  // Chunk count may be below thread count.
    simd::AddModVec(acc.data(), partial.data(), acc.size(), m);
  }
  return OkStatus();
}

}  // namespace smm::secagg
