#include "lookup/radix_trie.hpp"

#include "common/log.hpp"

namespace rb {

void RadixTrie::Insert(uint32_t prefix, uint8_t length, uint32_t next_hop) {
  RB_CHECK(length <= 32);
  prefix = NormalizePrefix(prefix, length);
  Node* node = &root_;
  for (uint8_t depth = 0; depth < length; ++depth) {
    int bit = (prefix >> (31 - depth)) & 1;
    if (!node->child[bit]) {
      node->child[bit] = std::make_unique<Node>();
    }
    node = node->child[bit].get();
  }
  if (!node->has_route) {
    size_++;
  }
  node->has_route = true;
  node->next_hop = next_hop;
}

void RadixTrie::InsertAll(const std::vector<RouteEntry>& routes) {
  for (const RouteEntry& r : routes) {
    Insert(r.prefix, r.length, r.next_hop);
  }
}

uint32_t RadixTrie::Lookup(uint32_t addr) const {
  const Node* node = &root_;
  uint32_t best = kNoRoute;
  for (uint8_t depth = 0; depth <= 32; ++depth) {
    if (node->has_route) {
      best = node->next_hop;
    }
    if (depth == 32) {
      break;
    }
    int bit = (addr >> (31 - depth)) & 1;
    if (!node->child[bit]) {
      break;
    }
    node = node->child[bit].get();
  }
  return best;
}

bool RadixTrie::Remove(uint32_t prefix, uint8_t length) {
  prefix = NormalizePrefix(prefix, length);
  Node* node = &root_;
  for (uint8_t depth = 0; depth < length; ++depth) {
    int bit = (prefix >> (31 - depth)) & 1;
    if (!node->child[bit]) {
      return false;
    }
    node = node->child[bit].get();
  }
  if (!node->has_route) {
    return false;
  }
  node->has_route = false;
  node->next_hop = kNoRoute;
  size_--;
  return true;
}

}  // namespace rb
