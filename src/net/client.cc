#include "net/client.h"

#include <utility>
#include <variant>
#include <vector>

#include "secagg/sharded_coordinator.h"

namespace smm::net {

StatusOr<BlockingClient> BlockingClient::Connect(uint16_t port,
                                                 const Options& options) {
  SMM_ASSIGN_OR_RETURN(UniqueFd fd, ConnectLoopback(port));
  return BlockingClient(std::move(fd), options.max_frame_bytes);
}

Status BlockingClient::SendFrame(ByteSpan frame) {
  return SendAll(fd_.get(), frame);
}

Status BlockingClient::SendContribution(const secagg::ContributionMsg& msg) {
  SMM_ASSIGN_OR_RETURN(const std::vector<uint8_t> frame,
                       secagg::EncodeFrame(msg));
  return SendFrame(ByteSpan(frame.data(), frame.size()));
}

Status BlockingClient::SendShares(const secagg::SharesMsg& msg) {
  SMM_ASSIGN_OR_RETURN(const std::vector<uint8_t> frame,
                       secagg::EncodeFrame(msg));
  return SendFrame(ByteSpan(frame.data(), frame.size()));
}

Status BlockingClient::FinishSending() { return ShutdownSend(fd_.get()); }

StatusOr<secagg::SumMsg> BlockingClient::ReadSum() {
  std::vector<uint8_t> chunk(64 * 1024);
  while (true) {
    if (auto frame = reassembler_.NextFrame()) {
      auto message =
          secagg::DecodeFrame(ByteSpan(frame->data(), frame->size()));
      if (!message.ok()) return message.status();
      auto* sum = std::get_if<secagg::SumMsg>(&*message);
      if (sum == nullptr) {
        return InvalidArgumentError(
            "server sent a non-sum frame to a client");
      }
      return std::move(*sum);
    }
    SMM_ASSIGN_OR_RETURN(const size_t n,
                         RecvSome(fd_.get(), chunk.data(), chunk.size()));
    if (n == 0) {
      return DataLossError(
          "connection closed before the sum broadcast arrived");
    }
    SMM_RETURN_IF_ERROR(reassembler_.Ingest(ByteSpan(chunk.data(), n)));
  }
}

StatusOr<ShardedFanoutClient> ShardedFanoutClient::Connect(
    const std::vector<uint16_t>& ports,
    const BlockingClient::Options& options) {
  if (ports.empty()) {
    return InvalidArgumentError("fan-out needs at least one shard port");
  }
  std::vector<BlockingClient> clients;
  clients.reserve(ports.size());
  for (uint16_t port : ports) {
    SMM_ASSIGN_OR_RETURN(auto client, BlockingClient::Connect(port, options));
    clients.push_back(std::move(client));
  }
  return ShardedFanoutClient(std::move(clients));
}

Status ShardedFanoutClient::SendShardFrames(
    const std::vector<std::vector<uint8_t>>& frames) {
  if (frames.size() != clients_.size()) {
    return InvalidArgumentError(
        "sub-frame count disagrees with the fan-out shard count");
  }
  for (size_t s = 0; s < clients_.size(); ++s) {
    SMM_RETURN_IF_ERROR(
        clients_[s].SendFrame(ByteSpan(frames[s].data(), frames[s].size())));
  }
  return OkStatus();
}

Status ShardedFanoutClient::FinishSending() {
  for (BlockingClient& client : clients_) {
    SMM_RETURN_IF_ERROR(client.FinishSending());
  }
  return OkStatus();
}

StatusOr<secagg::SumMsg> ShardedFanoutClient::ReadMergedSum(
    const secagg::ShardPlan& plan) {
  if (plan.shard_count() != clients_.size()) {
    return InvalidArgumentError(
        "shard plan disagrees with the fan-out shard count");
  }
  std::vector<secagg::SumMsg> shard_sums(clients_.size());
  for (size_t s = 0; s < clients_.size(); ++s) {
    SMM_ASSIGN_OR_RETURN(shard_sums[s], clients_[s].ReadSum());
  }
  return secagg::MergeShardSums(plan, std::move(shard_sums));
}

}  // namespace smm::net
