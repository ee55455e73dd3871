#ifndef USI_SUFFIX_SUFFIX_TREE_HPP_
#define USI_SUFFIX_SUFFIX_TREE_HPP_

/// \file suffix_tree.hpp
/// Online (Ukkonen [39]) suffix tree.
///
/// The static pipeline uses the enhanced suffix array as its suffix-tree
/// view; this pointer-based tree is the update mechanism Section X proposes
/// for appends. The update tier's DeltaOverlay and the append-only
/// DynamicUsi each grow one, and the property tests cross-validate it
/// against the ESA node enumeration.
///
/// The tree stores no text: its owner appends to its own text and passes
/// it in as a span to Extend and to every query, so the letters are stored
/// once. Every call must see the same text the tree has indexed so far.
///
/// The tree is built without a terminating sentinel, so some suffixes may end
/// implicitly mid-edge ("pending" suffixes). Occurrence collection accounts
/// for them explicitly: every leaf is one occurrence, and each pending
/// suffix that starts with the pattern adds one more. Nodes keep no subtree
/// counts; a frequency is the size of a subtree walk, so a new leaf costs
/// O(1) beyond Ukkonen's amortized work.

#include <span>
#include <vector>

#include "usi/suffix/esa.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Growable suffix tree over a text its owner stores.
class SuffixTree {
 public:
  SuffixTree();

  /// Builds the tree of \p text by streaming every prefix through Extend().
  explicit SuffixTree(std::span<const Symbol> text);

  /// Indexes \p text.back(): \p text is the owner's text, one letter longer
  /// than at the previous call. Restores the suffix-tree invariant.
  void Extend(std::span<const Symbol> text);

  /// Length of the indexed text.
  index_t size() const { return size_; }

  /// Start positions of all occurrences of \p pattern in \p text (exact,
  /// unsorted, including occurrences that currently end implicitly).
  /// O(m + occ) once the locus is found.
  std::vector<index_t> CollectOccurrences(
      std::span<const Symbol> text, std::span<const Symbol> pattern) const;

  /// As CollectOccurrences, writing into \p out (cleared first) and using
  /// \p stack as traversal scratch — zero heap allocations once both have
  /// warmed to the workload's occurrence counts. The serving tier's
  /// delta-overlay probe runs on this form.
  void CollectOccurrencesInto(std::span<const Symbol> text,
                              std::span<const Symbol> pattern,
                              std::vector<index_t>& out,
                              std::vector<index_t>& stack) const;

  /// Number of suffixes that still end implicitly (the last `remaining`
  /// positions of the text).
  index_t PendingSuffixCount() const { return remaining_; }

  /// Number of explicit tree nodes (diagnostics).
  std::size_t NodeCount() const { return nodes_.size(); }

  /// Heap footprint in bytes. O(1): the child-vector bytes are a running
  /// count kept where child vectors grow, so no node walk is needed.
  std::size_t SizeInBytes() const;

 private:
  friend struct SuffixTreeInspector;  // Tests walk the nodes.

  static constexpr index_t kNoNode = kInvalidIndex;
  static constexpr index_t kOpenEnd = kInvalidIndex;

  struct Node {
    index_t start = 0;          ///< Edge label = text[start .. EdgeEnd(node)).
    index_t end = kOpenEnd;     ///< Exclusive end; kOpenEnd tracks text size.
    index_t link = kNoNode;     ///< Suffix link.
    index_t suffix_start = kInvalidIndex;  ///< Leaf's suffix position.
    std::vector<std::pair<Symbol, index_t>> children;  ///< Sorted by symbol.
  };

  index_t EdgeEnd(const Node& node) const {
    return node.end == kOpenEnd ? size_ : node.end;
  }

  index_t EdgeLength(const Node& node) const {
    return EdgeEnd(node) - node.start;
  }

  index_t ChildOf(index_t node, Symbol c) const;
  void SetChild(index_t node, Symbol c, index_t child);
  index_t NewNode(index_t start, index_t end);

  /// Walks down from the root along \p pattern. Returns the node whose
  /// subtree holds all occurrences, or kNoNode if the pattern is absent.
  index_t FindLocus(std::span<const Symbol> text,
                    std::span<const Symbol> pattern) const;

  std::vector<Node> nodes_;
  std::size_t child_bytes_ = 0;  ///< Sum of children.capacity() in bytes.
  index_t root_;
  index_t size_ = 0;  ///< Letters indexed so far.

  // Ukkonen's active point.
  index_t active_node_;
  index_t active_edge_ = 0;  // Text index of the active edge's first symbol.
  index_t active_length_ = 0;
  index_t remaining_ = 0;
};

}  // namespace usi

#endif  // USI_SUFFIX_SUFFIX_TREE_HPP_
