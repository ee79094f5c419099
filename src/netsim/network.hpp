#pragma once

/// \file network.hpp
/// A deterministic, synchronous, round-based message-passing simulator
/// (the classic BSP / LOCAL model).
///
/// This is the substrate on which the distributed variant of Algorithm 1
/// executes *faithfully*: query nodes and agents are `Node`s exchanging
/// `Message`s.  In every round each node receives **all** messages sent to
/// it in the previous round, updates its local state, and may send
/// messages that will be delivered next round.  Delivery order within a
/// round is the global send order, so simulations are exactly
/// reproducible.
///
/// The simulator accounts rounds, message count and bytes on the wire —
/// the costs discussed in the paper's conclusion when comparing the
/// one-shot greedy exchange against AMP's repeated network-wide traffic.

#include <memory>
#include <span>
#include <vector>

#include "netsim/message.hpp"
#include "util/types.hpp"

namespace npd::netsim {

class Network;

/// Send-side interface handed to nodes during their round callback.
class NetworkContext {
 public:
  explicit NetworkContext(Network& network) : network_(network) {}

  /// Queue a message for delivery at the start of the next round.
  void send(Index from, Index to, Tag tag, double a, double b = 0.0);

 private:
  Network& network_;
};

/// A network participant.  Implementations keep their own local state;
/// the simulator never lets nodes touch each other's state directly.
class Node {
 public:
  virtual ~Node() = default;

  /// One synchronous round: `received` holds every message addressed to
  /// this node that was sent in the previous round (in global send order).
  /// The node may send via `ctx`; those messages arrive next round.
  virtual void on_round(Index round, std::span<const Message> received,
                        NetworkContext& ctx) = 0;
};

/// Cumulative traffic statistics.
struct NetStats {
  Index rounds = 0;
  Index messages = 0;
  Index bytes = 0;
};

/// The synchronous network simulator.
class Network {
 public:
  Network() = default;

  /// Register a node; returns its network id (dense, starting at 0).
  Index add_node(std::unique_ptr<Node> node);

  /// Number of registered nodes.
  [[nodiscard]] Index num_nodes() const {
    return static_cast<Index>(nodes_.size());
  }

  /// Access a node by id (protocols read final local state through this).
  [[nodiscard]] Node& node(Index id);
  [[nodiscard]] const Node& node(Index id) const;

  /// Execute one synchronous round.  Returns messages delivered.
  Index run_round();

  /// Run `count` rounds.
  void run_rounds(Index count);

  /// Run until a round ends with nothing in flight, or `max_rounds` is
  /// exhausted.  Returns true on quiescence.  At least one round always
  /// executes (so round-0 initiators can inject traffic).
  bool run_until_quiescent(Index max_rounds);

  /// Messages queued for the next round.
  [[nodiscard]] Index pending_messages() const {
    return static_cast<Index>(outbox_.size());
  }

  [[nodiscard]] const NetStats& stats() const { return stats_; }

 private:
  friend class NetworkContext;
  void enqueue(const Message& msg);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Message> outbox_;  // sent this round, delivered next round
  std::vector<Message> inbox_;   // being delivered this round
  // Per-node delivery slices into inbox_ and the per-node write cursors
  // that fill them (rebuilt each round, storage kept across rounds).
  std::vector<Index> bucket_offsets_;
  std::vector<Index> cursor_;
  std::vector<Message> bucketed_;
  NetStats stats_;
};

}  // namespace npd::netsim
