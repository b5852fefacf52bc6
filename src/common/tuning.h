#ifndef SMM_COMMON_TUNING_H_
#define SMM_COMMON_TUNING_H_

#include <cstddef>

#include "common/parallel.h"

namespace smm {

/// DefaultTileRows under its former name. Only the end-to-end benchmark's
/// workload drivers (bench/e2e/workload_fl.cc and workload_sum.cc) call it;
/// that directory changes only together with the benchmark, so the next
/// benchmark change switches both calls to DefaultTileRows and deletes this
/// header. No other code may call it.
inline size_t TunedTileRows(int num_threads) {
  return DefaultTileRows(num_threads);
}

}  // namespace smm

#endif  // SMM_COMMON_TUNING_H_
