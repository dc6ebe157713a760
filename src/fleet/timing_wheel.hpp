// A hierarchical timing wheel (Varghese & Lauck) for freshness-point expiry
// at fleet scale.
//
// The general simulator keeps its `sim::EventQueue` binary heap — it must
// order arbitrary continuous timestamps exactly.  The fleet monitor has a
// much narrower problem: at most one pending freshness deadline per
// monitored process, deadlines quantized onto a fixed tick grid, and the
// only queries are "schedule", "cancel", and "fire everything due up to
// tick T".  The wheel does all three in O(1) amortized — no heap churn, no
// allocation after construction — which is what turns per-heartbeat cost
// from O(log n) into O(1) at 10^6 processes.
//
// Structure: kLevels levels of kSlots slots each (base-64 digits of the
// tick).  An entry's level is chosen by the most significant base-64 digit
// in which its deadline differs from the current tick — NOT by the delta.
// (Delta-based selection has a classic boundary bug: a deadline a few ticks
// away but across a digit rollover lands in the current rotation's slot and
// fires a rotation late.)  When a digit of `now` rolls over, the slot it
// exposes is cascaded: its entries are re-placed by the same rule, sinking
// toward level 0, where the slot reached by `now` holds exactly the entries
// due at that tick.
//
// Timer ids are dense process indices; all per-timer state lives in four
// parallel arrays (next/prev/slot plus the deadline), so the wheel costs
// 20 bytes per monitored process and scheduling touches no allocator.
//
// Determinism: entries within a slot are kept in LIFO insertion order, which
// is itself deterministic; the FleetMonitor additionally re-emits exact
// (unquantized) deadline timestamps and sorts its merged transition stream,
// so nothing observable depends on intra-tick firing order.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace chenfd::fleet {

class TimingWheel {
 public:
  using TimerId = std::uint32_t;
  using Tick = std::uint64_t;

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr Tick kSlots = Tick{1} << kSlotBits;  // 64
  /// Longest schedulable horizon: 64^4 ~= 16.7M ticks ahead of `now`.
  static constexpr Tick kMaxDelta = Tick{1} << (kSlotBits * kLevels);

  /// A wheel for timer ids in [0, capacity).
  explicit TimingWheel(std::size_t capacity)
      : head_(static_cast<std::size_t>(kLevels) * kSlots, kNil),
        next_(capacity, kNil),
        prev_(capacity, kNil),
        slot_of_(capacity, kNil),
        deadline_(capacity, 0) {}

  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] std::size_t capacity() const { return next_.size(); }
  [[nodiscard]] std::size_t pending_count() const { return pending_count_; }

  [[nodiscard]] bool pending(TimerId id) const {
    CHENFD_EXPECTS(id < next_.size(), "TimingWheel: timer id out of range");
    return slot_of_[id] != kNil;
  }

  /// Deadline tick of a pending timer.
  [[nodiscard]] Tick deadline(TimerId id) const {
    CHENFD_EXPECTS(id < next_.size(), "TimingWheel: timer id out of range");
    CHENFD_EXPECTS(slot_of_[id] != kNil,
                   "TimingWheel::deadline: timer is not pending");
    return deadline_[id];
  }

  /// Schedules timer `id` to fire at `tick`.  At most one pending deadline
  /// per id: reschedule by cancel() first.
  void schedule(TimerId id, Tick tick) {
    CHENFD_EXPECTS(id < next_.size(), "TimingWheel: timer id out of range");
    CHENFD_EXPECTS(slot_of_[id] == kNil,
                   "TimingWheel::schedule: timer already pending");
    CHENFD_EXPECTS(tick > now_,
                   "TimingWheel::schedule: deadline not in the future");
    CHENFD_EXPECTS(tick - now_ < kMaxDelta,
                   "TimingWheel::schedule: deadline beyond the wheel horizon");
    deadline_[id] = tick;
    link(id, slot_index(tick));
    ++pending_count_;
  }

  /// Drops every pending timer without firing it, keeping `now()` — used
  /// by the fleet soft-state reset (restart policies discard deadlines but
  /// time does not rewind).
  // detlint: allow(R4) clear is idempotent and legal in any state
  void clear() {
    std::fill(head_.begin(), head_.end(), kNil);
    std::fill(slot_of_.begin(), slot_of_.end(), kNil);
    pending_count_ = 0;
  }

  /// Heap footprint of the wheel's arrays, for memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const {
    return head_.capacity() * sizeof(std::int32_t) +
           next_.capacity() * sizeof(std::int32_t) +
           prev_.capacity() * sizeof(std::int32_t) +
           slot_of_.capacity() * sizeof(std::int32_t) +
           deadline_.capacity() * sizeof(Tick);
  }

  /// Cancels a pending timer.  Returns false if it was not pending.
  bool cancel(TimerId id) {
    CHENFD_EXPECTS(id < next_.size(), "TimingWheel: timer id out of range");
    if (slot_of_[id] == kNil) return false;
    unlink(id);
    --pending_count_;
    return true;
  }

  /// Advances the wheel to `to_tick`, invoking `on_expire(id, deadline)`
  /// for every timer whose deadline lies in (now, to_tick], in tick order.
  /// Expired timers are no longer pending when the callback runs, so the
  /// callback may re-schedule them.  Once no timer is pending the rest of
  /// the step is O(1), however many ticks it spans.
  template <class F>
  void advance(Tick to_tick, F&& on_expire) {
    while (now_ < to_tick) {
      if (pending_count_ == 0) {
        // Nothing can cascade or fire: jump.  A rebuilt wheel's first
        // advance would otherwise walk every tick since tick 0.
        now_ = to_tick;
        return;
      }
      ++now_;
      // A digit of `now` that just rolled over exposes a higher-level slot
      // whose entries are now at most one rotation of the level below away;
      // cascade top-down so re-placed entries keep sinking in one pass.
      for (int level = kLevels - 1; level >= 1; --level) {
        const Tick span = Tick{1} << (kSlotBits * level);
        if ((now_ & (span - 1)) == 0) cascade(slot_index_at(level, now_));
      }
      const std::uint32_t due = slot_index_at(0, now_);
      while (head_[due] != kNil) {
        const TimerId id = static_cast<TimerId>(head_[due]);
        CHENFD_AUDIT(deadline_[id] == now_,
                     "TimingWheel: level-0 slot held a future deadline");
        unlink(id);
        --pending_count_;
        on_expire(id, deadline_[id]);
      }
    }
  }

 private:
  static constexpr std::int32_t kNil = -1;

  [[nodiscard]] static std::uint32_t slot_index_at(int level, Tick tick) {
    return static_cast<std::uint32_t>(level) * static_cast<std::uint32_t>(
               kSlots) +
           static_cast<std::uint32_t>((tick >> (kSlotBits * level)) &
                                      (kSlots - 1));
  }

  /// Level = most significant base-64 digit where `tick` differs from
  /// `now_`; a deadline equal to `now_` (possible mid-cascade) maps to the
  /// level-0 slot being expired this tick.  When the deadline crosses a
  /// 64^kLevels boundary relative to `now_` the XOR flags digits above the
  /// top level even though the delta is in range; slot addressing is
  /// modular in the tick digits, so clamping to the top level places the
  /// entry in the slot its digit will expose within one rotation.
  [[nodiscard]] std::uint32_t slot_index(Tick tick) const {
    const Tick diff = tick ^ now_;
    int level = diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
    if (level >= kLevels) level = kLevels - 1;
    return slot_index_at(level, tick);
  }

  void link(TimerId id, std::uint32_t slot) {
    next_[id] = head_[slot];
    prev_[id] = kNil;
    if (head_[slot] != kNil) prev_[static_cast<std::size_t>(head_[slot])] = static_cast<std::int32_t>(id);
    head_[slot] = static_cast<std::int32_t>(id);
    slot_of_[id] = static_cast<std::int32_t>(slot);
  }

  void unlink(TimerId id) {
    const std::int32_t slot = slot_of_[id];
    if (prev_[id] != kNil) {
      next_[static_cast<std::size_t>(prev_[id])] = next_[id];
    } else {
      head_[static_cast<std::size_t>(slot)] = next_[id];
    }
    if (next_[id] != kNil) {
      prev_[static_cast<std::size_t>(next_[id])] = prev_[id];
    }
    slot_of_[id] = kNil;
  }

  /// Re-places every entry of a freshly exposed higher-level slot one or
  /// more levels down (their leading digits now agree with `now_`).
  void cascade(std::uint32_t slot) {
    std::int32_t id = head_[slot];
    head_[slot] = kNil;
    while (id != kNil) {
      const std::int32_t next = next_[static_cast<std::size_t>(id)];
      slot_of_[static_cast<std::size_t>(id)] = kNil;
      link(static_cast<TimerId>(id),
           slot_index(deadline_[static_cast<std::size_t>(id)]));
      id = next;
    }
  }

  Tick now_ = 0;
  std::size_t pending_count_ = 0;
  std::vector<std::int32_t> head_;     // kLevels * kSlots chain heads
  std::vector<std::int32_t> next_;     // per-timer intrusive chain
  std::vector<std::int32_t> prev_;
  std::vector<std::int32_t> slot_of_;  // kNil when not pending
  std::vector<Tick> deadline_;
};

}  // namespace chenfd::fleet
