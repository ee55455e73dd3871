#include "usi/suffix/suffix_tree.hpp"

#include <algorithm>

namespace usi {

SuffixTree::SuffixTree() {
  nodes_.reserve(16);
  root_ = NewNode(0, 0);
  active_node_ = root_;
}

SuffixTree::SuffixTree(std::span<const Symbol> text) : SuffixTree() {
  for (std::size_t i = 1; i <= text.size(); ++i) Extend(text.first(i));
}

index_t SuffixTree::ChildOf(index_t node, Symbol c) const {
  const auto& children = nodes_[node].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), c,
      [](const std::pair<Symbol, index_t>& e, Symbol key) { return e.first < key; });
  if (it != children.end() && it->first == c) return it->second;
  return kNoNode;
}

void SuffixTree::SetChild(index_t node, Symbol c, index_t child) {
  auto& children = nodes_[node].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), c,
      [](const std::pair<Symbol, index_t>& e, Symbol key) { return e.first < key; });
  if (it != children.end() && it->first == c) {
    it->second = child;
  } else {
    const std::size_t capacity = children.capacity();
    children.insert(it, {c, child});
    child_bytes_ += (children.capacity() - capacity) * sizeof(children[0]);
  }
}

index_t SuffixTree::NewNode(index_t start, index_t end) {
  Node node;
  node.start = start;
  node.end = end;
  nodes_.push_back(std::move(node));
  return static_cast<index_t>(nodes_.size() - 1);
}

void SuffixTree::Extend(std::span<const Symbol> text) {
  USI_CHECK(text.size() == static_cast<std::size_t>(size_) + 1);
  const index_t pos = size_++;
  const Symbol c = text[pos];
  ++remaining_;
  index_t last_internal = kNoNode;  // Awaiting a suffix link this phase.

  while (remaining_ > 0) {
    if (active_length_ == 0) active_edge_ = pos;
    const Symbol edge_symbol = text[active_edge_];
    const index_t next = ChildOf(active_node_, edge_symbol);
    if (next == kNoNode) {
      // Rule 2 at a node: new leaf hanging off active_node_. The suffix
      // being inserted is the longest pending one: |S| - remaining_.
      const index_t leaf = NewNode(pos, kOpenEnd);
      nodes_[leaf].suffix_start = pos + 1 - remaining_;
      SetChild(active_node_, c, leaf);
      if (last_internal != kNoNode) {
        nodes_[last_internal].link = active_node_;
        last_internal = kNoNode;
      }
    } else {
      // Walk down if the active point passed the edge end.
      const index_t edge_len = EdgeLength(nodes_[next]);
      if (active_length_ >= edge_len) {
        active_node_ = next;
        active_edge_ += edge_len;
        active_length_ -= edge_len;
        continue;
      }
      if (text[nodes_[next].start + active_length_] == c) {
        // Rule 3: the suffix is already present implicitly; phase ends.
        if (last_internal != kNoNode) {
          nodes_[last_internal].link = active_node_;
          last_internal = kNoNode;
        }
        ++active_length_;
        break;
      }
      // Rule 2 mid-edge: split, then hang the new leaf off the split node.
      const index_t split =
          NewNode(nodes_[next].start, nodes_[next].start + active_length_);
      SetChild(active_node_, edge_symbol, split);
      nodes_[next].start += active_length_;
      auto& split_children = nodes_[split].children;
      split_children.reserve(2);  // A new node's vector starts empty.
      child_bytes_ += split_children.capacity() * sizeof(split_children[0]);
      SetChild(split, text[nodes_[next].start], next);
      const index_t leaf = NewNode(pos, kOpenEnd);
      nodes_[leaf].suffix_start = pos + 1 - remaining_;
      SetChild(split, c, leaf);
      if (last_internal != kNoNode) nodes_[last_internal].link = split;
      last_internal = split;
    }
    --remaining_;
    if (active_node_ == root_ && active_length_ > 0) {
      --active_length_;
      active_edge_ = pos - remaining_ + 1;
    } else if (active_node_ != root_) {
      active_node_ = nodes_[active_node_].link != kNoNode
                         ? nodes_[active_node_].link
                         : root_;
    }
  }
}

index_t SuffixTree::FindLocus(std::span<const Symbol> text,
                              std::span<const Symbol> pattern) const {
  index_t node = root_;
  std::size_t matched = 0;
  while (matched < pattern.size()) {
    const index_t child = ChildOf(node, pattern[matched]);
    if (child == kNoNode) return kNoNode;
    const index_t edge_len = EdgeLength(nodes_[child]);
    for (index_t k = 0; k < edge_len && matched < pattern.size(); ++k) {
      if (text[nodes_[child].start + k] != pattern[matched]) return kNoNode;
      ++matched;
    }
    node = child;
  }
  return node;
}

std::vector<index_t> SuffixTree::CollectOccurrences(
    std::span<const Symbol> text, std::span<const Symbol> pattern) const {
  std::vector<index_t> occurrences;
  std::vector<index_t> stack;
  CollectOccurrencesInto(text, pattern, occurrences, stack);
  return occurrences;
}

void SuffixTree::CollectOccurrencesInto(std::span<const Symbol> text,
                                        std::span<const Symbol> pattern,
                                        std::vector<index_t>& out,
                                        std::vector<index_t>& stack) const {
  USI_DCHECK(text.size() == size_);
  out.clear();
  stack.clear();
  const index_t n = size_;
  if (pattern.empty()) {
    out.resize(n);
    for (index_t j = 0; j < n; ++j) out[j] = j;
    return;
  }
  const index_t locus = FindLocus(text, pattern);
  if (locus != kNoNode) {
    stack.push_back(locus);
    while (!stack.empty()) {
      const index_t node = stack.back();
      stack.pop_back();
      if (nodes_[node].suffix_start != kInvalidIndex) {
        out.push_back(nodes_[node].suffix_start);
      }
      for (const auto& [symbol, child] : nodes_[node].children) {
        (void)symbol;
        stack.push_back(child);
      }
    }
  }
  // Pending (implicit) suffixes that start with the pattern.
  for (index_t j = n - remaining_; j < n; ++j) {
    if (n - j < pattern.size()) break;  // Shorter suffixes can only shrink.
    if (std::equal(pattern.begin(), pattern.end(), text.begin() + j)) {
      out.push_back(j);
    }
  }
}

std::size_t SuffixTree::SizeInBytes() const {
  return nodes_.capacity() * sizeof(Node) + child_bytes_;
}

}  // namespace usi
