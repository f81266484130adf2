#include "rt/mailbox.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "rt/agg.hpp"

namespace cid::rt {

// ---- ListIndex -----------------------------------------------------------

std::size_t Mailbox::ListIndex::home(const ListKey& key) const noexcept {
  std::uint64_t h = key.bucket * 0x9E3779B97F4A7C15ull + key.sub;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & (entries_.size() - 1);
}

const Mailbox::ListIndex::Entry* Mailbox::ListIndex::find(
    const ListKey& key) const {
  if (used_ == 0) return nullptr;
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Entry& entry = entries_[i];
    if (entry.list.head == kNil) return nullptr;
    if (entry.key == key) return &entry;
  }
}

Mailbox::List& Mailbox::ListIndex::insert(const ListKey& key) {
  if (2 * (used_ + 1) > entries_.size()) grow();
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Entry& entry = entries_[i];
    if (entry.list.head == kNil) {
      entry.key = key;
      ++used_;
      return entry.list;
    }
    if (entry.key == key) return entry.list;
  }
}

void Mailbox::ListIndex::erase(Entry* entry) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home slot.
  const std::size_t mask = entries_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(entry - entries_.data());
  for (std::size_t i = (hole + 1) & mask; entries_[i].list.head != kNil;
       i = (i + 1) & mask) {
    const std::size_t from_home = (i - home(entries_[i].key)) & mask;
    if (from_home >= ((i - hole) & mask)) {
      entries_[hole] = entries_[i];
      hole = i;
    }
  }
  entries_[hole] = Entry{};
  --used_;
}

void Mailbox::ListIndex::grow() {
  std::vector<Entry> old(std::max<std::size_t>(16, 2 * entries_.size()));
  old.swap(entries_);
  const std::size_t mask = entries_.size() - 1;
  for (const Entry& entry : old) {
    if (entry.list.head == kNil) continue;
    std::size_t i = home(entry.key);
    while (entries_[i].list.head != kNil) i = (i + 1) & mask;
    entries_[i] = entry;
  }
}

// ---- Arrival store ---------------------------------------------------------

void Mailbox::link_back(List& list, std::uint32_t slot,
                        Link Slot::*link) noexcept {
  Link& links = slots_[slot].*link;
  links.prev = list.tail;
  links.next = kNil;
  if (list.tail == kNil) {
    list.head = slot;
  } else {
    (slots_[list.tail].*link).next = slot;
  }
  list.tail = slot;
}

void Mailbox::unlink(List& list, std::uint32_t slot,
                     Link Slot::*link) noexcept {
  const Link& links = slots_[slot].*link;
  if (links.prev == kNil) {
    list.head = links.next;
  } else {
    (slots_[links.prev].*link).next = links.next;
  }
  if (links.next == kNil) {
    list.tail = links.prev;
  } else {
    (slots_[links.next].*link).prev = links.prev;
  }
}

void Mailbox::enqueue(Envelope envelope) {
  std::uint32_t slot = free_;
  if (slot == kNil) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_ = slots_[slot].arrival.next;
  }
  const ListKey arrival = arrival_key(envelope);
  const ListKey sub = sub_key(envelope);
  slots_[slot].envelope = std::move(envelope);
  link_back(buckets_.insert(arrival), slot, &Slot::arrival);
  link_back(subqueues_.insert(sub), slot, &Slot::sub);
  ++size_;
}

Envelope Mailbox::extract(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ListIndex::Entry* sub = subqueues_.find(sub_key(s.envelope));
  unlink(sub->list, slot, &Slot::sub);
  if (sub->list.head == kNil) subqueues_.erase(sub);
  ListIndex::Entry* arrival = buckets_.find(arrival_key(s.envelope));
  unlink(arrival->list, slot, &Slot::arrival);
  if (arrival->list.head == kNil) buckets_.erase(arrival);
  Envelope out = std::move(s.envelope);
  s.arrival.next = free_;
  free_ = slot;
  --size_;
  if (extract_tap_) extract_tap_(out);
  return out;
}

// ---- Matching --------------------------------------------------------------

void Mailbox::push(Envelope envelope) {
  if (envelope.channel == Channel::Internal &&
      envelope.context == agg::kContext) {
    push_aggregate(std::move(envelope));
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    envelope.seq = next_seq_++;
    wake = wanted(envelope);
    enqueue(std::move(envelope));
  }
  if (wake) arrived_.notify_all();
}

void Mailbox::push_aggregate(Envelope envelope) {
  // Decode outside the lock: only the count/header words are read here, the
  // payload bytes are copied per-sub under the lock below.
  std::vector<agg::Sub> subs;
  const ByteSpan wire = envelope.payload.span();
  CID_REQUIRE(agg::decode(wire, /*headers_only=*/envelope.faulted, subs),
              ErrorCode::RuntimeFault, "malformed aggregate envelope");
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const agg::Sub& sub : subs) {
      Envelope e;
      e.src = envelope.src;
      e.tag = sub.tag;
      e.channel = Channel::MpiPointToPoint;
      e.context = sub.context;
      e.available_at = envelope.available_at;
      e.faulted = envelope.faulted;
      if (!envelope.faulted) {
        e.payload = Payload::copy_of(wire.subspan(sub.offset, sub.bytes));
      }
      e.seq = next_seq_++;
      wake = wake || wanted(e);
      enqueue(std::move(e));
    }
  }
  if (wake) arrived_.notify_all();
}

bool Mailbox::wanted(const Envelope& envelope) const {
  for (const Waiter* waiter : waiters_) {
    for (const MatchKey& key : waiter->keys) {
      if (key.admits(envelope)) return true;
    }
  }
  return false;
}

std::uint32_t Mailbox::find_exact(const MatchKey& key,
                                  const Residual* residual,
                                  std::uint64_t floor) {
  const ListIndex::Entry* sub = subqueues_.find(
      {bucket_id(key.channel, key.context), exact_id(key.src, key.tag)});
  if (sub == nullptr) return kNil;
  for (std::uint32_t slot = sub->list.head; slot != kNil;
       slot = slots_[slot].sub.next) {
    const Envelope& e = slots_[slot].envelope;
    if (e.seq >= floor && key.admits(e) &&
        (residual == nullptr || (*residual)(e))) {
      return slot;
    }
  }
  return kNil;
}

std::uint32_t Mailbox::find_any(std::span<const MatchKey> keys,
                                const Residual* residual,
                                std::uint64_t floor) {
  // Lowest seq across all keys, so multi-key extraction reproduces the
  // arrival-order semantics of a single scan over the whole queue. Exact
  // keys go through their (src, tag) sub-queue first; their best seq then
  // bounds the arrival-order pass below.
  std::uint32_t best = kNil;
  const auto beats_best = [&](std::uint32_t slot) {
    return best == kNil || seq_of(slot) < seq_of(best);
  };
  scratch_buckets_.clear();
  for (const MatchKey& key : keys) {
    if (!key.exact()) {
      const std::uint64_t id = bucket_id(key.channel, key.context);
      if (std::find(scratch_buckets_.begin(), scratch_buckets_.end(), id) ==
          scratch_buckets_.end()) {
        scratch_buckets_.push_back(id);
      }
      continue;
    }
    const std::uint32_t found = find_exact(key, residual, floor);
    if (found != kNil && beats_best(found)) best = found;
  }
  // One arrival-order pass per bucket serves every non-exact key on it: the
  // first envelope any of them admits (and the residual accepts) is, by
  // definition, the minimum over those keys of each key's first match.
  const auto admitted_by_wildcard = [&keys](const Envelope& e) {
    for (const MatchKey& key : keys) {
      if (!key.exact() && key.admits(e)) return true;
    }
    return false;
  };
  for (const std::uint64_t id : scratch_buckets_) {
    const ListIndex::Entry* bucket = buckets_.find({id, 0});
    if (bucket == nullptr) continue;
    std::uint32_t slot = bucket->list.head;
    if (floor > 0) {
      // Start at the first envelope with seq >= floor: walk back from the
      // tail over only what arrived since the watermark.
      slot = bucket->list.tail;
      if (seq_of(slot) < floor) continue;
      while (slots_[slot].arrival.prev != kNil &&
             seq_of(slots_[slot].arrival.prev) >= floor) {
        slot = slots_[slot].arrival.prev;
      }
    }
    for (; slot != kNil && beats_best(slot);
         slot = slots_[slot].arrival.next) {
      const Envelope& e = slots_[slot].envelope;
      if (wildcard_gate_ && !wildcard_gate_(e)) continue;
      if (admitted_by_wildcard(e) && (residual == nullptr || (*residual)(e))) {
        best = slot;
        break;
      }
    }
  }
  return best;
}

void Mailbox::throw_if_poisoned() const {
  if (poisoned_ && poisoned_()) {
    throw CidError(ErrorCode::RuntimeFault,
                   "SPMD world poisoned while waiting for a message");
  }
}

template <typename Search>
std::uint32_t Mailbox::wait_match(std::unique_lock<std::mutex>& lock,
                                  std::span<const MatchKey> waiter_keys,
                                  const Search& search) {
  std::uint64_t floor = 0;
  for (;;) {
    if (const std::uint32_t found = search(floor); found != kNil) {
      return found;
    }
    // Everything below next_seq_ was examined with these keys and can be
    // skipped on the next pass — unless a wildcard gate is installed, in
    // which case a rejected envelope may be *released* later and must be
    // rescanned (exploration mailboxes are tiny, so the lost watermark is
    // cheap).
    if (!wildcard_gate_) floor = next_seq_;
    throw_if_poisoned();
    Waiter waiter{waiter_keys};
    waiters_.push_back(&waiter);
    arrived_.wait(lock);
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &waiter));
  }
}

Envelope Mailbox::wait_extract(std::span<const MatchKey> keys,
                               const Residual* residual) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint32_t found = wait_match(lock, keys, [&](std::uint64_t floor) {
    return find_any(keys, residual, floor);
  });
  return extract(found);
}

std::optional<Envelope> Mailbox::wait_extract_for(
    std::span<const MatchKey> keys, double seconds,
    const Residual* residual) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(seconds, 0.0)));
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t floor = 0;
  for (;;) {
    if (const std::uint32_t found = find_any(keys, residual, floor);
        found != kNil) {
      return extract(found);
    }
    if (!wildcard_gate_) floor = next_seq_;  // see wait_match
    throw_if_poisoned();
    Waiter waiter{keys};
    waiters_.push_back(&waiter);
    const bool notified = arrived_.wait_until(lock, deadline);
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &waiter));
    if (!notified) {
      throw_if_poisoned();
      // An arrival can race the timeout: scan once more before giving up.
      if (const std::uint32_t found = find_any(keys, residual, floor);
          found != kNil) {
        return extract(found);
      }
      return std::nullopt;
    }
  }
}

std::optional<Envelope> Mailbox::try_extract(std::span<const MatchKey> keys,
                                             const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t found = find_any(keys, residual, /*floor=*/0);
  if (found == kNil) return std::nullopt;
  return extract(found);
}

void Mailbox::wait_present(std::span<const MatchKey> keys,
                           const Residual* residual) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_match(lock, keys, [&](std::uint64_t floor) {
    return find_any(keys, residual, floor);
  });
}

std::optional<Mailbox::Header> Mailbox::peek(const MatchKey& key,
                                             const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t found =
      find_any(std::span<const MatchKey>(&key, 1), residual, /*floor=*/0);
  if (found == kNil) return std::nullopt;
  const Envelope& e = slots_[found].envelope;
  return Header{e.src, e.tag, e.payload.size(), e.available_at};
}

std::size_t Mailbox::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

void Mailbox::set_explore_hooks(WildcardGate gate, ExtractTap tap) {
  std::lock_guard<std::mutex> lock(mutex_);
  wildcard_gate_ = std::move(gate);
  extract_tap_ = std::move(tap);
}

std::vector<Mailbox::HeldCandidate> Mailbox::held_candidates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HeldCandidate> held;
  if (!wildcard_gate_) return held;
  for (const Waiter* waiter : waiters_) {
    for (const MatchKey& key : waiter->keys) {
      if (key.exact()) continue;
      const ListIndex::Entry* bucket =
          buckets_.find({bucket_id(key.channel, key.context), 0});
      if (bucket == nullptr) continue;
      for (std::uint32_t slot = bucket->list.head; slot != kNil;
           slot = slots_[slot].arrival.next) {
        const Envelope& envelope = slots_[slot].envelope;
        if (!key.admits(envelope) || wildcard_gate_(envelope)) continue;
        held.push_back({envelope.explore_uid, envelope.src, envelope.tag,
                        envelope.context});
      }
    }
  }
  std::sort(held.begin(), held.end(),
            [](const HeldCandidate& a, const HeldCandidate& b) {
              return a.uid < b.uid;
            });
  held.erase(std::unique(held.begin(), held.end(),
                         [](const HeldCandidate& a, const HeldCandidate& b) {
                           return a.uid == b.uid;
                         }),
             held.end());
  return held;
}

void Mailbox::interrupt_all() {
  // Pair with waiters, which hold mutex_ from their poison check until they
  // are registered on the cv: the bracket keeps the poison store from
  // landing between the two, which would make this notify a no-op.
  { std::lock_guard<std::mutex> lock(mutex_); }
  arrived_.notify_all();
}

}  // namespace cid::rt
