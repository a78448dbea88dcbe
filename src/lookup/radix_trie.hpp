// Reference longest-prefix-match structure: a plain binary (radix) trie.
//
// Slower than DIR-24-8 but trivially correct; property tests cross-check
// DIR-24-8 against it over random tables and random lookups, and the
// lookup microbenchmark uses it as the baseline the paper's D-lookup is
// compared to.
#ifndef RB_LOOKUP_RADIX_TRIE_HPP_
#define RB_LOOKUP_RADIX_TRIE_HPP_

#include <memory>
#include <vector>

#include "lookup/lpm.hpp"

namespace rb {

class RadixTrie : public LpmTable {
 public:
  RadixTrie() = default;

  // Inserts (or replaces) a route.
  void Insert(uint32_t prefix, uint8_t length, uint32_t next_hop);
  // Inserts each route in list order, so a repeated prefix/length keeps
  // its last entry.
  void InsertAll(const std::vector<RouteEntry>& routes);
  uint32_t Lookup(uint32_t addr) const override;
  size_t size() const override { return size_; }

  // Removes a route; returns true if it existed. (Only the trie is
  // mutable; Dir24_8 is built once from a route list.)
  bool Remove(uint32_t prefix, uint8_t length);

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    uint32_t next_hop = kNoRoute;
    bool has_route = false;
  };

  Node root_;
  size_t size_ = 0;
};

}  // namespace rb

#endif  // RB_LOOKUP_RADIX_TRIE_HPP_
