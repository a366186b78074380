#pragma once

#include <cstdint>
#include <vector>

namespace wmsn::sim {

/// Struct-of-arrays hot state for the node population: position and
/// liveness flags, packed into parallel vectors so the kernel's sweeps
/// (medium delivery, neighbor queries, round stepping) touch dense memory
/// instead of chasing one heap allocation per node. Owned by the network;
/// net::Node instances are thin views over one slot each.
///
/// The block also owns the *active set* — the sorted ids of nodes that are
/// neither battery-dead nor fault-crashed. The round loop steps exactly
/// this set, so idle corpses cost nothing (ROADMAP item 1). Sleeping nodes
/// stay in the active set: a duty-cycled sensor still wakes to transmit
/// (§4.4).
class NodeStateBlock {
 public:
  std::uint32_t add(double x, double y);
  std::size_t size() const { return xs_.size(); }

  double x(std::uint32_t id) const { return xs_[id]; }
  double y(std::uint32_t id) const { return ys_[id]; }
  void setPosition(std::uint32_t id, double x, double y);

  /// Battery death — permanent, counts toward lifetime metrics.
  bool dead(std::uint32_t id) const { return (flags_[id] & kDead) != 0; }
  void setDead(std::uint32_t id);

  /// Fault-injected crash — reversible, battery intact.
  bool failed(std::uint32_t id) const { return (flags_[id] & kFailed) != 0; }
  void setFailed(std::uint32_t id, bool failed);

  /// §4.4 sleep scheduling — radio off, but the node still steps.
  bool sleeping(std::uint32_t id) const {
    return (flags_[id] & kSleeping) != 0;
  }
  void setSleeping(std::uint32_t id, bool sleeping);

  bool alive(std::uint32_t id) const {
    return (flags_[id] & (kDead | kFailed)) == 0;
  }
  bool listening(std::uint32_t id) const {
    return (flags_[id] & (kDead | kFailed | kSleeping)) == 0;
  }

  /// Ids of nodes that take part in round stepping (alive — dead and failed
  /// nodes are excluded; sleeping ones are not). Sorted ascending; rebuilt
  /// lazily after flag changes, so steady-state rounds pay nothing.
  const std::vector<std::uint32_t>& activeIds() const;

 private:
  static constexpr std::uint8_t kDead = 1;
  static constexpr std::uint8_t kFailed = 2;
  static constexpr std::uint8_t kSleeping = 4;

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint8_t> flags_;
  mutable std::vector<std::uint32_t> active_;
  mutable bool activeDirty_ = false;
};

}  // namespace wmsn::sim
