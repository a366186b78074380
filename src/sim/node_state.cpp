#include "sim/node_state.hpp"

#include "util/require.hpp"

namespace wmsn::sim {

std::uint32_t NodeStateBlock::add(double x, double y) {
  const auto id = static_cast<std::uint32_t>(xs_.size());
  xs_.push_back(x);
  ys_.push_back(y);
  flags_.push_back(0);
  activeDirty_ = true;
  return id;
}

void NodeStateBlock::setPosition(std::uint32_t id, double x, double y) {
  WMSN_REQUIRE(id < xs_.size());
  xs_[id] = x;
  ys_[id] = y;
}

void NodeStateBlock::setDead(std::uint32_t id) {
  WMSN_REQUIRE(id < flags_.size());
  flags_[id] |= kDead;
  activeDirty_ = true;
}

void NodeStateBlock::setFailed(std::uint32_t id, bool failed) {
  WMSN_REQUIRE(id < flags_.size());
  if (failed)
    flags_[id] |= kFailed;
  else
    flags_[id] &= static_cast<std::uint8_t>(~kFailed);
  activeDirty_ = true;
}

void NodeStateBlock::setSleeping(std::uint32_t id, bool sleeping) {
  WMSN_REQUIRE(id < flags_.size());
  if (sleeping)
    flags_[id] |= kSleeping;
  else
    flags_[id] &= static_cast<std::uint8_t>(~kSleeping);
}

const std::vector<std::uint32_t>& NodeStateBlock::activeIds() const {
  if (activeDirty_) {
    active_.clear();
    for (std::uint32_t id = 0; id < flags_.size(); ++id)
      if (alive(id)) active_.push_back(id);
    activeDirty_ = false;
  }
  return active_;
}

}  // namespace wmsn::sim
