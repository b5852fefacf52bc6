#ifndef SMM_SECAGG_STREAMING_AGGREGATOR_H_
#define SMM_SECAGG_STREAMING_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/span.h"
#include "common/status.h"

namespace smm::secagg {

/// One in-progress streaming aggregation session over Z_m^dim, opened with
/// SecureAggregator::Open(dim, m). Contributions arrive one participant (or
/// one tile of participants) at a time and are folded into bounded state
/// immediately, so the server never materializes all client vectors at once
/// — the assumption Bonawitz-style secure aggregation and the DDP-SA line
/// of work make for participant counts that exceed memory.
///
///   Open(dim, m) -> Absorb(participant_id, span)* -> Finalize()
///
/// Memory model: one O(dim) running sum updated through overflow-safe
/// AddModVec; a tile absorb shards across the pool via
/// ShardedModularAccumulate with O(threads·dim) transient partials. The
/// masked protocol adds an O(num_participants)-bit survivor set. None of it
/// grows with the number of participants absorbed.
///
/// Determinism: all accumulation is exact integer arithmetic mod m, so
/// Finalize() returns the same bits for any thread count, any absorb
/// order, and any tiling.
///
/// IdealAggregator::Open returns this class itself (the ideal sum has no
/// notion of identity); the masked protocol's stream subclasses it and
/// overrides the three protected hooks.
///
/// Streams are single-session: after Finalize() every further call fails
/// with FailedPrecondition. Not thread-safe — one caller drives a stream
/// (internally it may shard work across the pool it was opened with).
class StreamingAggregator {
 public:
  /// Requires dim >= 1 and m >= 2 (validated by the Open factories).
  StreamingAggregator(size_t dim, uint64_t m, ThreadPool* pool);
  virtual ~StreamingAggregator() = default;

  StreamingAggregator(const StreamingAggregator&) = delete;
  StreamingAggregator& operator=(const StreamingAggregator&) = delete;

  size_t dim() const { return dim_; }
  uint64_t modulus() const { return m_; }
  /// Participants absorbed so far.
  size_t absorbed() const { return absorbed_; }

  /// Absorbs one participant's contribution (`input.size()` must equal
  /// dim()). Entries need not be pre-reduced; each is reduced once before
  /// the overflow-safe accumulation. The protocol defines what
  /// `participant_id` means (the masked protocol requires a valid,
  /// not-yet-absorbed index; the ideal sum ignores it). ConstSpan is
  /// implicitly constructible from std::vector<uint64_t>, so vector-based
  /// callers pass their buffers unchanged.
  Status Absorb(int participant_id, ConstSpan<uint64_t> input);

  /// Absorbs a tile of participants (inputs[i] belongs to
  /// participant_ids[i]), equivalent to absorbing them one by one in order
  /// but sharded across the pool. A rejected tile leaves the stream as it
  /// was.
  Status AbsorbTile(const std::vector<int>& participant_ids,
                    const std::vector<std::vector<uint64_t>>& inputs);

  /// Completes the session and returns the element-wise sum mod m of every
  /// absorbed contribution (running any deferred protocol work first, e.g.
  /// dropout recovery for the masked protocol). Fails if nothing was
  /// absorbed. The stream is consumed.
  StatusOr<std::vector<uint64_t>> Finalize();

 protected:
  /// Admission hook, called once per participant before its data is folded
  /// in. Protocol streams validate/record the id here; the default accepts
  /// everything (the ideal sum has no notion of identity).
  virtual Status AdmitParticipant(int participant_id);

  /// Tile admission hook, called once with the whole tile's ids before any
  /// of its data is folded in. Must be all-or-nothing: on error no id may
  /// remain recorded, so a rejected tile leaves the stream exactly as it
  /// was. The default loops AdmitParticipant — fine only when admission is
  /// infallible; protocol streams with fallible admission must override.
  virtual Status AdmitTile(const std::vector<int>& participant_ids);

  /// Finalize hook, called once with the running sum before it is returned.
  /// Protocol streams run deferred work here (e.g. dropout recovery); the
  /// default is a no-op.
  virtual Status FinalizeInto(std::vector<uint64_t>& sum);

  ThreadPool* pool() const { return pool_; }

 private:
  Status CheckOpen() const;

  size_t dim_;
  uint64_t m_;
  ThreadPool* pool_;
  std::vector<uint64_t> sum_;
  size_t absorbed_ = 0;
  bool finalized_ = false;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_STREAMING_AGGREGATOR_H_
