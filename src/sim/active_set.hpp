// Active-set port scheduler for one switch stage.
//
// The seed cycle loop scanned every port of every stage each cycle; at low
// load almost all of that work is skip checks. This set tracks, per stage,
// which ports could start a service this cycle: a 64-bit bitmap of
// occupied (non-empty) ports and a bitmap of busy ports (mid multi-cycle
// service). The scan visits only set bits of `occupied & ~busy`, in
// ascending port order — the same order as a full sweep, so statistics
// accumulate bit-identically to the seed engine.
//
// Busy expiry is a timing wheel of W busy bitmaps (W a power of two): a
// service ending at cycle c sets the port's bit in slot c mod W, and
// expire(t) releases slot t mod W with one AND-NOT per bitmap word. Only
// services longer than the span (in practice geometric tails) go to a
// small min-heap instead. A wheel of span 0 sends everything to the heap.
//
// Maintenance is incremental: push into an empty queue sets the occupied
// bit, the pop that empties a queue clears it, starting an m >= 2 cycle
// service sets the busy bit and schedules its release (unit services never
// block the next cycle, so callers skip mark_busy for them).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace ksw::sim {

/// Worklist of serviceable ports within one stage.
class ActiveSet {
 public:
  /// Longest wheel span; longer services take the overflow heap. Caps the
  /// wheel at 64 bitmaps per stage whatever the service distribution.
  static constexpr std::uint32_t kMaxSpan = 64;

  /// Wheel span for services of at most `longest` cycles: the power of two
  /// covering it, capped at kMaxSpan.
  [[nodiscard]] static std::uint32_t span_for(std::uint32_t longest) noexcept {
    return std::bit_ceil(std::clamp<std::uint32_t>(longest, 1, kMaxSpan));
  }

  /// `span` = wheel slots (rounded up to a power of two; 0 = heap only).
  explicit ActiveSet(std::uint32_t ports, std::uint32_t span = 0)
      : words_((ports + 63) / 64),
        span_(span == 0 ? 0 : std::bit_ceil(span)),
        occupied_(words_, 0),
        busy_(words_, 0),
        wheel_(static_cast<std::size_t>(span_) * words_, 0) {}

  /// Port `a` has at least one queued packet.
  void mark_occupied(std::uint32_t a) noexcept { occupied_[a >> 6] |= bit(a); }

  /// Port `a`'s queue just became empty.
  void clear_occupied(std::uint32_t a) noexcept {
    occupied_[a >> 6] &= ~bit(a);
  }

  /// Port `a` may not start another service before cycle `clear_at`.
  /// Call with clear_at after the last expired cycle.
  void mark_busy(std::uint32_t a, std::int64_t clear_at) {
    busy_[a >> 6] |= bit(a);
    // Slots next_ .. next_ + span_ - 1 are all still ahead of the wheel's
    // hand, so any release inside that window has a slot of its own.
    if (clear_at - next_ < static_cast<std::int64_t>(span_))
      slot(clear_at)[a >> 6] |= bit(a);
    else
      overflow_.emplace(clear_at, a);
  }

  /// Release every port whose busy period has ended by cycle `t`. Call
  /// before scanning candidates for cycle `t`. Skipped cycles are caught
  /// up: every slot passed since the previous call is released.
  void expire(std::int64_t t) {
    if (t < next_) return;
    if (span_ != 0) {
      const std::int64_t passed =
          std::min<std::int64_t>(t - next_ + 1, span_);
      for (std::int64_t c = next_; c < next_ + passed; ++c) {
        std::uint64_t* s = slot(c);
        for (std::size_t w = 0; w < words_; ++w) {
          busy_[w] &= ~s[w];
          s[w] = 0;
        }
      }
    }
    next_ = t + 1;
    while (!overflow_.empty() && overflow_.top().first <= t) {
      const std::uint32_t a = overflow_.top().second;
      overflow_.pop();
      busy_[a >> 6] &= ~bit(a);
    }
  }

  /// Port `a` is mid multi-cycle service (released by a later expire).
  [[nodiscard]] bool busy(std::uint32_t a) const noexcept {
    return (busy_[a >> 6] & bit(a)) != 0;
  }

  /// Visit every occupied, non-busy port in ascending order. `fn` may
  /// clear_occupied / mark_busy the port it is visiting (each word is
  /// snapshotted before its bits are walked).
  template <typename Fn>
  void for_each_candidate(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_; ++wi) {
      std::uint64_t w = occupied_[wi] & ~busy_[wi];
      while (w != 0) {
        const auto a = static_cast<std::uint32_t>(
            (wi << 6) + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
        fn(a);
      }
    }
  }

  /// Releases pending on the overflow heap (testing).
  [[nodiscard]] std::size_t overflow_size() const noexcept {
    return overflow_.size();
  }

 private:
  static std::uint64_t bit(std::uint32_t a) noexcept {
    return std::uint64_t{1} << (a & 63);
  }
  std::uint64_t* slot(std::int64_t cycle) noexcept {
    return wheel_.data() +
           static_cast<std::size_t>(cycle & (span_ - 1)) * words_;
  }

  std::size_t words_;
  std::uint32_t span_;
  std::int64_t next_ = 0;  // first cycle expire() has not yet released
  std::vector<std::uint64_t> occupied_;
  std::vector<std::uint64_t> busy_;
  std::vector<std::uint64_t> wheel_;  // span_ slots x words_ bitmaps
  using Expiry = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> overflow_;
};

}  // namespace ksw::sim
