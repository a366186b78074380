#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace wmsn {

/// An ordered map as one sorted vector of (key, value) pairs: the subset of
/// the std::map interface protocol state uses, for maps that hold a handful
/// of entries and are read far more often than written. Lookups are one
/// binary search over contiguous memory; iteration visits keys in ascending
/// order, exactly as std::map does. Inserting or erasing invalidates
/// iterators.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  iterator find(const K& key) {
    const auto it = lowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    const auto it = lowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const V& at(const K& key) const {
    const auto it = find(key);
    WMSN_REQUIRE_MSG(it != end(), "FlatMap::at: key not present");
    return it->second;
  }

  /// The value under `key`, value-initialised and inserted if absent.
  V& operator[](const K& key) {
    auto it = lowerBound(key);
    if (it == entries_.end() || it->first != key)
      it = entries_.insert(it, value_type{key, V{}});
    return it->second;
  }
  iterator erase(const_iterator it) { return entries_.erase(it); }

 private:
  iterator lowerBound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lowerBound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace wmsn
