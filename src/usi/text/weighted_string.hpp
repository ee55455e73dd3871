#ifndef USI_TEXT_WEIGHTED_STRING_HPP_
#define USI_TEXT_WEIGHTED_STRING_HPP_

/// \file weighted_string.hpp
/// The weighted string (S, w) of Section III: a text plus one real utility
/// per position. This is the input object of every index in the library.

#include <string>
#include <utility>
#include <vector>

#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// A text S with a utility w[i] for every position i (Section III). Immutable
/// after construction; DynamicUsi and the update tier's DeltaOverlay work on
/// their own growable copies.
class WeightedString {
 public:
  WeightedString() = default;

  /// Takes ownership of \p text and \p weights; they must have equal length.
  WeightedString(Text text, std::vector<double> weights)
      : text_(std::move(text)), weights_(std::move(weights)) {
    USI_CHECK(text_.size() == weights_.size());
  }

  /// Convenience: uniform weight for every position.
  static WeightedString WithUniformWeights(Text text, double weight = 1.0) {
    std::vector<double> weights(text.size(), weight);
    return WeightedString(std::move(text), std::move(weights));
  }

  /// Text length n.
  index_t size() const { return static_cast<index_t>(text_.size()); }

  /// Whether the string is empty.
  bool empty() const { return text_.empty(); }

  /// Letter at position \p i.
  Symbol letter(index_t i) const {
    USI_DCHECK(i < text_.size());
    return text_[i];
  }

  /// Utility of position \p i.
  double weight(index_t i) const {
    USI_DCHECK(i < weights_.size());
    return weights_[i];
  }

  /// Underlying text.
  const Text& text() const { return text_; }

  /// Underlying weights.
  const std::vector<double>& weights() const { return weights_; }

  /// Copy of the fragment S[i .. i+len-1].
  Text Fragment(index_t i, index_t len) const {
    USI_DCHECK(i + len <= text_.size());
    return Text(text_.begin() + i, text_.begin() + i + len);
  }

  /// Prefix (S[0..len-1], w[0..len-1]) as a new weighted string.
  WeightedString Prefix(index_t len) const {
    USI_DCHECK(len <= size());
    return WeightedString(Text(text_.begin(), text_.begin() + len),
                          std::vector<double>(weights_.begin(), weights_.begin() + len));
  }

  /// Heap footprint in bytes (text + weights).
  std::size_t SizeInBytes() const {
    return text_.capacity() * sizeof(Symbol) +
           weights_.capacity() * sizeof(double);
  }

 private:
  Text text_;
  std::vector<double> weights_;
};

}  // namespace usi

#endif  // USI_TEXT_WEIGHTED_STRING_HPP_
