// A process-wide, insert-only intern table: immutable entries found by
// content, with lock-free reads. The clause parse cache (core/clauses.cpp),
// the directive SiteId table (core/exec_state.cpp) and the obs name table
// (obs/obs.cpp) are each one of these, shared by every rank and worker
// thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace cid {

/// `Entry` exposes `std::size_t hash`. An entry, once inserted, is never
/// moved or freed while the table lives, so a pointer intern() returns stays
/// valid; tables are meant to live for the whole process.
///
/// Readers probe an open-addressed slot array reached through an atomic
/// pointer and never lock. Inserts lock, publish a fully built entry with a
/// release store, and keep the load factor at most 1/2 by publishing a
/// doubled array; the old array is retired but kept, because a reader may
/// still be probing it (a miss there falls through to the locked path).
template <class Entry>
class InternTable {
 public:
  /// At most `max_entries` are inserted; intern() returns nullptr beyond.
  explicit InternTable(std::size_t max_entries) : max_entries_(max_entries) {
    arrays_.push_back(std::make_unique<Slots>(16));
    current_.store(arrays_.back().get(), std::memory_order_release);
  }
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  /// The entry with `hash` for which `same(entry)` holds, else the Entry
  /// `make()` returns, inserted; nullptr when the table is full and the
  /// entry is absent.
  template <class Same, class Make>
  const Entry* intern(std::size_t hash, const Same& same, const Make& make) {
    if (const Entry* entry = find(hash, same)) return entry;
    std::lock_guard lock(mutex_);
    if (const Entry* entry = find(hash, same)) return entry;
    if (entries_.size() >= max_entries_) return nullptr;
    Slots* slots = current_.load(std::memory_order_relaxed);
    if (2 * (entries_.size() + 1) > slots->mask + 1) {
      arrays_.push_back(std::make_unique<Slots>(2 * (slots->mask + 1)));
      Slots* bigger = arrays_.back().get();
      for (const auto& entry : entries_) place(*bigger, entry.get());
      current_.store(bigger, std::memory_order_release);
      slots = bigger;
    }
    entries_.push_back(std::make_unique<const Entry>(make()));
    place(*slots, entries_.back().get());
    return entries_.back().get();
  }

 private:
  /// The entry with `hash` for which `same(entry)` holds, or nullptr.
  template <class Same>
  const Entry* find(std::size_t hash, const Same& same) const {
    const Slots* slots = current_.load(std::memory_order_acquire);
    for (std::size_t i = hash & slots->mask;; i = (i + 1) & slots->mask) {
      const Entry* entry = slots->at[i].load(std::memory_order_acquire);
      if (entry == nullptr) return nullptr;
      if (entry->hash == hash && same(*entry)) return entry;
    }
  }

  struct Slots {
    explicit Slots(std::size_t size)
        : mask(size - 1),
          at(std::make_unique<std::atomic<const Entry*>[]>(size)) {}
    std::size_t mask;
    std::unique_ptr<std::atomic<const Entry*>[]> at;
  };

  static void place(Slots& slots, const Entry* entry) {
    std::size_t i = entry->hash & slots.mask;
    while (slots.at[i].load(std::memory_order_relaxed) != nullptr) {
      i = (i + 1) & slots.mask;
    }
    slots.at[i].store(entry, std::memory_order_release);
  }

  const std::size_t max_entries_;
  std::atomic<Slots*> current_{nullptr};
  std::mutex mutex_;  // guards the two vectors below and all slot stores
  std::vector<std::unique_ptr<Slots>> arrays_;  // current is back()
  std::vector<std::unique_ptr<const Entry>> entries_;
};

}  // namespace cid
