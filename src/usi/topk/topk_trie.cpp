#include "usi/topk/topk_trie.hpp"

#include <algorithm>
#include <unordered_map>

namespace usi {
namespace {

struct TrieNode {
  index_t parent = kInvalidIndex;
  index_t depth = 0;
  index_t first_seen = 0;  ///< Witness: substring = text[first_seen, +depth).
  Symbol edge_symbol = 0;  ///< Label of the edge from the parent.
  u64 count = 0;           ///< Raw counter; effective count = count - debt.
  bool alive = false;
  std::unordered_map<Symbol, index_t> children;
};

class Trie {
 public:
  Trie(std::size_t budget, index_t max_depth)
      : budget_(budget), max_depth_(max_depth) {
    nodes_.reserve(budget + 1);
    nodes_.emplace_back();  // Root (depth 0, never counted, not budgeted).
    nodes_[0].alive = true;
  }

  /// Processes one text position: walk, count, maybe admit one extension.
  void Scan(const Text& text, index_t i, TopKTrieStats* stats) {
    index_t node = 0;
    index_t depth = 0;
    const index_t n = static_cast<index_t>(text.size());
    while (i + depth < n && depth < max_depth_) {
      auto it = nodes_[node].children.find(text[i + depth]);
      if (it == nodes_[node].children.end()) break;
      node = it->second;
      ++depth;
      nodes_[node].count += 1;
      if (stats != nullptr) ++stats->total_walk_steps;
    }
    if (i + depth >= n || depth >= max_depth_) return;
    // Admit one extension node, or charge a Misra-Gries decrement.
    if (live_count_ < budget_) {
      const index_t child = AllocateNode();
      TrieNode& child_node = nodes_[child];
      child_node.parent = node;
      child_node.depth = depth + 1;
      child_node.first_seen = i;
      child_node.edge_symbol = text[i + depth];
      child_node.count = debt_ + 1;  // Effective count 1, Misra-Gries style.
      nodes_[node].children.emplace(text[i + depth], child);
      ++live_count_;
    } else {
      ++debt_;
      if (stats != nullptr) ++stats->evictions;
      if (debt_ >= next_prune_debt_) {
        Prune();
        next_prune_debt_ = debt_ + std::max<u64>(1, budget_ / 4);
      }
    }
  }

  std::vector<TopKSubstring> Report(u64 k) const {
    std::vector<const TrieNode*> live;
    live.reserve(live_count_);
    for (std::size_t idx = 1; idx < nodes_.size(); ++idx) {
      if (nodes_[idx].alive && nodes_[idx].count > debt_) {
        live.push_back(&nodes_[idx]);
      }
    }
    std::sort(live.begin(), live.end(), [](const TrieNode* a, const TrieNode* b) {
      if (a->count != b->count) return a->count > b->count;
      return a->depth < b->depth;
    });
    if (live.size() > k) live.resize(k);
    std::vector<TopKSubstring> report;
    report.reserve(live.size());
    for (const TrieNode* node : live) {
      report.push_back(TopKSubstring{node->depth,
                                     static_cast<index_t>(node->count - debt_),
                                     node->first_seen, kInvalidIndex,
                                     kInvalidIndex});
    }
    return report;
  }

  std::size_t SizeInBytes() const {
    std::size_t total = nodes_.capacity() * sizeof(TrieNode) +
                        free_list_.capacity() * sizeof(index_t);
    for (const TrieNode& node : nodes_) {
      total += node.children.size() *
               (sizeof(Symbol) + sizeof(index_t) + sizeof(void*));
    }
    return total;
  }

 private:
  index_t AllocateNode() {
    index_t idx;
    if (!free_list_.empty()) {
      idx = free_list_.back();
      free_list_.pop_back();
      nodes_[idx] = TrieNode{};
    } else {
      idx = static_cast<index_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx].alive = true;
    return idx;
  }

  /// Removes every leaf whose effective count is zero, cascading upwards, so
  /// the node vector stays at O(budget) live slots. Slots are recycled.
  void Prune() {
    for (index_t idx = 1; idx < nodes_.size(); ++idx) {
      index_t cur = idx;
      while (cur != 0 && nodes_[cur].alive && nodes_[cur].children.empty() &&
             nodes_[cur].count <= debt_) {
        const index_t parent = nodes_[cur].parent;
        nodes_[parent].children.erase(nodes_[cur].edge_symbol);
        nodes_[cur].alive = false;
        nodes_[cur].children.clear();
        free_list_.push_back(cur);
        --live_count_;
        cur = parent;
      }
    }
  }

  std::size_t budget_;
  index_t max_depth_;
  std::vector<TrieNode> nodes_;
  std::vector<index_t> free_list_;
  std::size_t live_count_ = 0;
  u64 debt_ = 0;
  u64 next_prune_debt_ = 1;
};

}  // namespace

TopKList TopKTrie(const Text& text, u64 k, const TopKTrieOptions& options,
                  TopKTrieStats* stats) {
  TopKList result;
  if (text.empty() || k == 0) return result;
  const std::size_t budget =
      options.node_budget > 0 ? options.node_budget : 4 * k;
  Trie trie(budget, options.max_depth);
  for (index_t i = 0; i < text.size(); ++i) {
    trie.Scan(text, i, stats);
  }
  if (stats != nullptr) stats->space_bytes = trie.SizeInBytes();
  result.items = trie.Report(k);
  return result;
}

}  // namespace usi
