// Interned names for cid::obs: span categories and names, metric names and
// sites. Each distinct text is stored once per process and never freed, so a
// Name is one pointer. Two names compare equal exactly when their texts do,
// and a recording holds the pointer instead of a copy of the text.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace cid::obs {

class Name {
 public:
  /// Immutable for the life of the process.
  struct Entry {
    std::size_t hash = 0;  ///< std::hash of the text
    std::string text;
    std::string json;  ///< the text as a JSON string literal, quotes included
  };

  /// The empty name.
  Name() = default;
  /// The name with this text: interned on first use, lock-free after.
  explicit Name(std::string_view text);

  bool empty() const noexcept { return entry_ == nullptr; }
  std::string_view text() const noexcept {
    return entry_ != nullptr ? std::string_view(entry_->text)
                             : std::string_view();
  }
  std::string_view json() const noexcept {
    return entry_ != nullptr ? std::string_view(entry_->json)
                             : std::string_view("\"\"");
  }
  /// Depends on the text only, so tables keyed by names lay out the same way
  /// in every process.
  std::size_t hash() const noexcept {
    return entry_ != nullptr ? entry_->hash : 0;
  }

  friend bool operator==(Name a, Name b) noexcept {
    return a.entry_ == b.entry_;
  }
  friend bool operator==(Name a, std::string_view text) noexcept {
    return a.text() == text;
  }

 private:
  const Entry* entry_ = nullptr;  ///< nullptr for the empty text
};

}  // namespace cid::obs
