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

std::vector<SuffixTree::NodeSummary> SuffixTree::CollectNodeSummaries(
    std::span<const Symbol> text) const {
  USI_DCHECK(text.size() == size_);
  // Pending pass-through corrections: +1 for every node whose string is a
  // prefix of a pending suffix.
  std::vector<index_t> pending(nodes_.size(), 0);
  const index_t n = size_;
  for (index_t j = n - remaining_; j < n; ++j) {
    index_t node = root_;
    index_t matched = 0;
    while (true) {
      const index_t child = (j + matched < n) ? ChildOf(node, text[j + matched])
                                              : kNoNode;
      if (child == kNoNode) break;
      const index_t edge_len = EdgeLength(nodes_[child]);
      bool full = true;
      for (index_t k = 0; k < edge_len; ++k) {
        if (j + matched + k >= n ||
            text[nodes_[child].start + k] != text[j + matched + k]) {
          full = false;
          break;
        }
      }
      if (!full) break;
      matched += edge_len;
      ++pending[child];
      node = child;
    }
  }

  // Iterative pre-order DFS computing string depths; children follow their
  // parent in `order`, so a reverse sweep adds every subtree's leaves into
  // its parent before the parent itself is read.
  struct Frame {
    index_t node;
    index_t parent;        // Position of the parent frame in `order`.
    index_t depth;         // Depth of this node.
    index_t parent_depth;  // Depth of its parent.
  };
  std::vector<Frame> order;
  order.reserve(nodes_.size());
  std::vector<Frame> stack;
  stack.push_back({root_, kNoNode, 0, 0});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const index_t slot = static_cast<index_t>(order.size());
    order.push_back(frame);
    for (const auto& [symbol, child] : nodes_[frame.node].children) {
      (void)symbol;
      stack.push_back(
          {child, slot, frame.depth + EdgeLength(nodes_[child]), frame.depth});
    }
  }
  std::vector<index_t> leaves(order.size(), 0);
  for (std::size_t i = order.size(); i-- > 0;) {
    if (nodes_[order[i].node].suffix_start != kInvalidIndex) ++leaves[i];
    if (order[i].parent != kNoNode) leaves[order[i].parent] += leaves[i];
  }

  std::vector<NodeSummary> summaries;
  summaries.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Frame& frame = order[i];
    if (frame.node == root_) continue;
    summaries.push_back({frame.depth, frame.parent_depth,
                         leaves[i] + pending[frame.node]});
  }
  return summaries;
}

std::size_t SuffixTree::SizeInBytes() const {
  return nodes_.capacity() * sizeof(Node) + child_bytes_;
}

}  // namespace usi
