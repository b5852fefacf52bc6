// One masked secure-aggregation round split across 4 dimension-shard
// workers over real loopback TCP. The server opens a sharded round — four
// worker sessions, each owning a contiguous quarter of the coordinate
// range on its own port — and every participant fans its masked sub-frames
// out with a ShardedFanoutClient. One participant drops out mid-round;
// each shard worker runs its own local Shamir recovery over its narrow
// range, and the per-range sums tree-reduce back into a full-dimension sum
// that is bit-identical to the unsharded round.
//
// The point of sharding is the memory (and horizontal-scaling) profile:
// each worker holds 8 * ceil(d / K) payload bytes instead of 8 * d, so the
// example prints the per-shard resident footprint against the unsharded
// baseline.
//
// Build & run:  ./build/example_sharded_aggregation
#include <cstdio>
#include <memory>
#include <vector>

#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "secagg/secure_aggregator.h"
#include "secagg/shard_plan.h"
#include "secagg/transport.h"

namespace {

constexpr size_t kDim = 4096;
constexpr size_t kShards = 4;
constexpr int kParticipants = 6;
constexpr int kSurvivors = 5;  // Participant 5 drops mid-round.
constexpr uint64_t kModulus = 1ULL << 32;

}  // namespace

int main() {
  if (!smm::net::NetSupported()) {
    std::printf("this example needs the Linux socket/epoll backend\n");
    return 0;
  }

  // The shared masked-protocol setup: server and participants hold the
  // same session (standing in for the pairwise key agreement), and each
  // side derives the identical per-shard instances from it.
  smm::secagg::MaskedAggregator::Options options;
  options.num_participants = kParticipants;
  options.threshold = 4;
  options.session_seed = 4242;
  auto aggregator = smm::secagg::MaskedAggregator::Create(options);
  if (!aggregator.ok()) {
    std::printf("setup failed: %s\n", aggregator.status().ToString().c_str());
    return 1;
  }

  auto server = smm::net::AggregationServer::Start();
  if (!server.ok()) {
    std::printf("server start failed: %s\n",
                server.status().ToString().c_str());
    return 1;
  }

  smm::net::AggregationServer::ShardedRoundOptions round_options;
  round_options.dim = kDim;
  round_options.modulus = kModulus;
  round_options.shard_count = kShards;
  round_options.expected_contributions = kSurvivors;
  auto round = (*server)->OpenShardedRound(**aggregator, round_options);
  if (!round.ok()) {
    std::printf("open round failed: %s\n", round.status().ToString().c_str());
    return 1;
  }

  std::printf("sharded round: %zu workers over dim %zu\n", kShards, kDim);
  std::vector<uint16_t> ports;
  for (size_t s = 0; s < round->shards.size(); ++s) {
    const smm::secagg::ShardSpec spec = round->plan.Spec(s);
    std::printf(
        "  shard %zu: range [%u, %u) on 127.0.0.1:%u, resident %zu bytes "
        "(unsharded: %zu)\n",
        s, spec.dim_offset, spec.dim_offset + spec.shard_dim,
        round->shards[s].port, size_t{spec.shard_dim} * 8, kDim * 8);
    ports.push_back(round->shards[s].port);
  }

  // The participants' per-shard protocol instances, derived exactly as the
  // server derived its workers' (session_seed + shard index).
  auto shard_protocols = smm::secagg::CreateShardAggregators(
      **aggregator, kShards, /*pool=*/nullptr);
  if (!shard_protocols.ok()) return 1;

  smm::RandomGenerator rng(9);
  std::vector<std::vector<uint64_t>> inputs(kParticipants);
  for (auto& v : inputs) {
    v.resize(kDim);
    for (auto& x : v) x = rng.UniformUint64(1000);
  }

  // The five survivors fan out: each slices its input per the round's
  // plan, masks each slice with that shard's protocol instance, and sends
  // sub-frame s to worker s. Participant 5 never shows up; every worker
  // recovers its masks locally over its own range.
  std::vector<smm::net::ShardedFanoutClient> clients;
  for (int p = 0; p < kSurvivors; ++p) {
    auto client = smm::net::ShardedFanoutClient::Connect(ports);
    if (!client.ok()) {
      std::printf("participant %d connect failed: %s\n", p,
                  client.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<uint8_t>> frames;
    for (size_t s = 0; s < kShards; ++s) {
      auto slice = round->plan.Slice(inputs[static_cast<size_t>(p)], s);
      if (!slice.ok()) return 1;
      smm::secagg::ContributionMsg msg;
      msg.participant_id = p;
      msg.modulus = kModulus;
      auto masked =
          (*shard_protocols)[s]->PrepareContribution(p, *slice, kModulus);
      if (!masked.ok()) return 1;
      msg.payload = std::move(*masked);
      msg.shard = round->plan.Spec(s);
      auto frame = smm::secagg::EncodeFrame(msg);
      if (!frame.ok()) return 1;
      frames.push_back(std::move(*frame));
    }
    if (!client->SendShardFrames(frames).ok()) return 1;
    if (!client->FinishSending().ok()) return 1;
    clients.push_back(std::move(*client));
  }

  // Each participant merges the four per-range broadcasts client-side; the
  // server's own merge must agree exactly.
  std::vector<uint64_t> exact(kDim, 0);
  for (int p = 0; p < kSurvivors; ++p) {
    for (size_t j = 0; j < kDim; ++j) {
      exact[j] = (exact[j] + inputs[static_cast<size_t>(p)][j]) % kModulus;
    }
  }
  for (auto& client : clients) {
    auto merged = client.ReadMergedSum(round->plan);
    if (!merged.ok() || merged->sum != exact) {
      std::printf("client-side merge mismatch\n");
      return 1;
    }
  }
  auto server_sum = (*server)->WaitForShardedSum(*round);
  if (!server_sum.ok() || server_sum->sum != exact) {
    std::printf("server-side merge mismatch\n");
    return 1;
  }
  std::printf(
      "\n%d of %d participants contributed; every worker recovered the "
      "dropout's masks over its own range\n",
      kSurvivors, kParticipants);
  std::printf(
      "merged sum across %zu workers == exact modular sum on all %zu "
      "coordinates (first 4: %llu %llu %llu %llu)\n",
      kShards, kDim, (unsigned long long)server_sum->sum[0],
      (unsigned long long)server_sum->sum[1],
      (unsigned long long)server_sum->sum[2],
      (unsigned long long)server_sum->sum[3]);

  const smm::net::ServerStats stats = (*server)->Stats();
  std::printf(
      "server stats: %llu worker sessions completed, %llu sub-frames "
      "delivered, %llu rejected\n",
      (unsigned long long)stats.sessions_completed,
      (unsigned long long)stats.frames_delivered,
      (unsigned long long)stats.frames_rejected);
  return 0;
}
