#ifndef SMM_SECAGG_MODULAR_H_
#define SMM_SECAGG_MODULAR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"

namespace smm::secagg {

/// Arithmetic in Z_m (Lines 11 of Algorithm 4 and Line 1 of Algorithm 6).
/// The modulus m is the per-dimension communication budget of the secure
/// aggregation protocol: log2(m) bits per coordinate. Every operation here
/// is exact for the full modulus range [2, 2^64) — including m > 2^63,
/// where naive `(a + b) % m` accumulation silently wraps uint64_t; see
/// smm::AddMod in common/math_util.h for the compare-and-correct scheme.

/// Reduces a signed integer into {0, ..., m-1}.
uint64_t ModReduce(int64_t value, uint64_t m);

/// The server-side unwrap of Algorithm 6 Line 1: maps {0, ..., m-1} back to
/// the centered representatives {-floor(m/2), ..., ceil(m/2) - 1}. Values in
/// {ceil(m/2), ..., m-1} map to {-floor(m/2), ..., -1}; values in
/// {0, ..., ceil(m/2) - 1} stay put. For even m that is the familiar
/// [-m/2, m/2) window; for odd m the window is symmetric,
/// [-(m-1)/2, (m-1)/2], and the boundary value floor(m/2) lifts to the
/// positive representative +(m-1)/2.
int64_t CenterLift(uint64_t value, uint64_t m);

/// Center-lifts a Z_m vector element-wise.
std::vector<int64_t> LiftVector(const std::vector<uint64_t>& v, uint64_t m);

/// The one sharded-reduction scaffold behind every parallel modular sum in
/// secagg/: shards [0, n) across `pool` (nullptr, a 1-thread pool, or n < 2
/// runs fn inline on `acc`), gives each chunk a zeroed partial accumulator
/// of acc.size() elements, and reduces the partials into acc mod m in chunk
/// order, returning the first chunk error. fn(begin, end, acc) must
/// accumulate mod m (i.e. keep acc entries in [0, m)). Modular addition
/// commutes exactly, so the result is bit-identical for any thread count.
Status ShardedModularAccumulate(
    ThreadPool* pool, size_t n, uint64_t m, std::vector<uint64_t>& acc,
    const std::function<Status(size_t, size_t, std::vector<uint64_t>&)>& fn);

}  // namespace smm::secagg

#endif  // SMM_SECAGG_MODULAR_H_
