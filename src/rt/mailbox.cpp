#include "rt/mailbox.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "rt/agg.hpp"

namespace cid::rt {

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
    Bucket& bucket =
        buckets_
            .try_emplace(bucket_id(envelope.channel, envelope.context), &pool_)
            .first->second;
    bucket.exact[exact_id(envelope.src, envelope.tag)].push_back(envelope.seq);
    bucket.by_seq.emplace(envelope.seq, std::move(envelope));
    ++size_;
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
      Bucket& bucket =
          buckets_.try_emplace(bucket_id(e.channel, e.context), &pool_)
              .first->second;
      bucket.exact[exact_id(e.src, e.tag)].push_back(e.seq);
      bucket.by_seq.emplace(e.seq, std::move(e));
      ++size_;
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

std::optional<Mailbox::Found> Mailbox::find_in_bucket(Bucket& bucket,
                                                      const MatchKey& key,
                                                      const Residual* residual,
                                                      std::uint64_t floor) {
  if (key.exact()) {
    auto sub = bucket.exact.find(exact_id(key.src, key.tag));
    if (sub == bucket.exact.end()) return std::nullopt;
    auto& seqs = sub->second;
    for (auto it = seqs.begin(); it != seqs.end();) {
      auto env_it = bucket.by_seq.find(*it);
      if (env_it == bucket.by_seq.end()) {
        it = seqs.erase(it);  // extracted through another key: stale
        continue;
      }
      if (*it >= floor && key.admits(env_it->second) &&
          (residual == nullptr || (*residual)(env_it->second))) {
        return Found{&bucket, env_it};
      }
      ++it;
    }
    if (seqs.empty()) bucket.exact.erase(sub);
    return std::nullopt;
  }
  for (auto it = bucket.by_seq.lower_bound(floor); it != bucket.by_seq.end();
       ++it) {
    if (wildcard_gate_ && !wildcard_gate_(it->second)) continue;
    if (key.admits(it->second) &&
        (residual == nullptr || (*residual)(it->second))) {
      return Found{&bucket, it};
    }
  }
  return std::nullopt;
}

std::optional<Mailbox::Found> Mailbox::find_any(std::span<const MatchKey> keys,
                                                const Residual* residual,
                                                std::uint64_t floor) {
  // Lowest seq across all keys, so multi-key extraction reproduces the
  // arrival-order semantics of a single scan over the whole queue.
  std::optional<Found> best;
  for (const MatchKey& key : keys) {
    auto bucket = buckets_.find(bucket_id(key.channel, key.context));
    if (bucket == buckets_.end()) continue;
    auto found = find_in_bucket(bucket->second, key, residual, floor);
    if (found && (!best || found->it->first < best->it->first)) best = found;
  }
  return best;
}

Envelope Mailbox::extract(Found found) {
  Envelope out = std::move(found.it->second);
  Bucket& bucket = *found.bucket;
  auto sub = bucket.exact.find(exact_id(out.src, out.tag));
  if (sub != bucket.exact.end()) {
    auto& seqs = sub->second;
    if (!seqs.empty() && seqs.front() == out.seq) {
      seqs.pop_front();
    } else {
      auto pos = std::lower_bound(seqs.begin(), seqs.end(), out.seq);
      if (pos != seqs.end() && *pos == out.seq) seqs.erase(pos);
    }
    if (seqs.empty()) bucket.exact.erase(sub);
  }
  bucket.by_seq.erase(found.it);
  --size_;
  if (bucket.by_seq.empty()) {
    buckets_.erase(bucket_id(out.channel, out.context));
  }
  if (extract_tap_) extract_tap_(out);
  return out;
}

void Mailbox::throw_if_poisoned() const {
  if (poisoned_ && poisoned_()) {
    throw CidError(ErrorCode::RuntimeFault,
                   "SPMD world poisoned while waiting for a message");
  }
}

template <typename Search>
Mailbox::Found Mailbox::wait_match(std::unique_lock<std::mutex>& lock,
                                   std::span<const MatchKey> waiter_keys,
                                   const Search& search) {
  std::uint64_t floor = 0;
  for (;;) {
    if (auto found = search(floor)) return *found;
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
  Found found = wait_match(lock, keys, [&](std::uint64_t floor) {
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
    if (auto found = find_any(keys, residual, floor)) {
      return extract(*found);
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
      if (auto found = find_any(keys, residual, floor)) {
        return extract(*found);
      }
      return std::nullopt;
    }
  }
}

std::optional<Envelope> Mailbox::try_extract(std::span<const MatchKey> keys,
                                             const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto found = find_any(keys, residual, /*floor=*/0);
  if (!found) return std::nullopt;
  return extract(*found);
}

void Mailbox::wait_present(std::span<const MatchKey> keys,
                           const Residual* residual) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_match(lock, keys, [&](std::uint64_t floor) {
    return find_any(keys, residual, floor);
  });
}

bool Mailbox::probe(const MatchKey& key, const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_any(std::span<const MatchKey>(&key, 1), residual, /*floor=*/0)
      .has_value();
}

std::optional<Mailbox::Header> Mailbox::peek(const MatchKey& key,
                                             const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto found =
      find_any(std::span<const MatchKey>(&key, 1), residual, /*floor=*/0);
  if (!found) return std::nullopt;
  const Envelope& e = found->it->second;
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
      const auto bucket = buckets_.find(bucket_id(key.channel, key.context));
      if (bucket == buckets_.end()) continue;
      for (const auto& [seq, envelope] : bucket->second.by_seq) {
        (void)seq;
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
