#include "netsim/network.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace npd::netsim {

void NetworkContext::send(Index from, Index to, Tag tag, double a, double b) {
  network_.enqueue(Message{.from = from, .to = to, .tag = tag, .a = a, .b = b});
}

Index Network::add_node(std::unique_ptr<Node> node) {
  NPD_CHECK_MSG(node != nullptr, "cannot add a null node");
  nodes_.push_back(std::move(node));
  return static_cast<Index>(nodes_.size()) - 1;
}

Node& Network::node(Index id) {
  NPD_CHECK(id >= 0 && id < num_nodes());
  return *nodes_[static_cast<std::size_t>(id)];
}

const Node& Network::node(Index id) const {
  NPD_CHECK(id >= 0 && id < num_nodes());
  return *nodes_[static_cast<std::size_t>(id)];
}

void Network::enqueue(const Message& msg) {
  NPD_CHECK_MSG(msg.to >= 0 && msg.to < num_nodes(),
                "message addressed to unknown node");
  NPD_CHECK_MSG(msg.from >= 0 && msg.from < num_nodes(),
                "message from unknown node");
  outbox_.push_back(msg);
  ++stats_.messages;
  stats_.bytes += message_bytes(msg);
}

Index Network::run_round() {
  inbox_.clear();
  std::swap(inbox_, outbox_);

  // Counting sort by receiver: stable (preserves global send order) and
  // O(messages + nodes) per round.
  const auto node_count = static_cast<std::size_t>(num_nodes());
  bucket_offsets_.assign(node_count + 1, 0);
  for (const Message& msg : inbox_) {
    ++bucket_offsets_[static_cast<std::size_t>(msg.to) + 1];
  }
  for (std::size_t i = 1; i <= node_count; ++i) {
    bucket_offsets_[i] += bucket_offsets_[i - 1];
  }
  bucketed_.resize(inbox_.size());
  cursor_.assign(bucket_offsets_.begin(), bucket_offsets_.end() - 1);
  for (const Message& msg : inbox_) {
    bucketed_[static_cast<std::size_t>(
        cursor_[static_cast<std::size_t>(msg.to)]++)] = msg;
  }

  NetworkContext ctx(*this);
  const Index round = stats_.rounds;
  for (std::size_t id = 0; id < node_count; ++id) {
    const auto lo = static_cast<std::size_t>(bucket_offsets_[id]);
    const auto hi = static_cast<std::size_t>(bucket_offsets_[id + 1]);
    const std::span<const Message> received{bucketed_.data() + lo, hi - lo};
    nodes_[id]->on_round(round, received, ctx);
  }
  ++stats_.rounds;
  return static_cast<Index>(inbox_.size());
}

void Network::run_rounds(Index count) {
  for (Index r = 0; r < count; ++r) {
    (void)run_round();
  }
}

bool Network::run_until_quiescent(Index max_rounds) {
  for (Index r = 0; r < max_rounds; ++r) {
    (void)run_round();
    if (outbox_.empty()) {
      return true;
    }
  }
  return outbox_.empty();
}

}  // namespace npd::netsim
