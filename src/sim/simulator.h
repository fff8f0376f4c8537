// wild5g/sim: a minimal deterministic discrete-event simulator.
//
// Drives the RRC-probe experiments and any component that needs timers
// (inactivity timers, DRX cycles, chunk downloads). Events scheduled for the
// same instant fire in scheduling order, so runs are fully deterministic.
//
// Each pending handler is a std::function held in a generation-checked slot
// table, so cancel and dispatch are index lookups with no hashing.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/error.h"

namespace wild5g::sim {

/// Opaque handle for a scheduled event, usable to cancel it. Encodes
/// (generation, slot); 0 is never a live event, so value-initialized ids
/// are safe to cancel.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Handler = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in milliseconds.
  [[nodiscard]] double now_ms() const { return now_ms_; }

  /// Schedules `handler` at absolute simulated time `at_ms` (>= now). A null
  /// handler is rejected.
  EventId schedule_at(double at_ms, Handler handler);

  /// Schedules `handler` `delay_ms` from now (delay >= 0).
  EventId schedule_in(double delay_ms, Handler handler);

  /// Cancels a pending event and destroys its handler. Cancelling an
  /// already-fired or unknown event is a no-op (timers race with the
  /// activity that restarts them). This extends to the dispatch path: a
  /// handler that cancels *itself* (its own id) or another event scheduled
  /// for the same instant is also a no-op / takes effect respectively — the
  /// running handler's slot is released before invocation, so self-cancel
  /// finds nothing, and a same-instant victim simply never fires.
  void cancel(EventId id);

  /// Runs until the event queue drains.
  void run();

  /// Runs until simulated time reaches `until_ms` (events at exactly
  /// `until_ms` still fire) or the queue drains, whichever is first.
  /// Postcondition: now_ms() == until_ms in *both* cases — when the queue
  /// drains early the clock still advances to the horizon, so back-to-back
  /// run_until calls tile a timeline without gaps and schedule_in offsets
  /// after a drained window are anchored at the window's end, not at the
  /// last event. (Events cancelled-but-unpopped do not hold the clock back
  /// either; they are skipped without dispatching.)
  void run_until(double until_ms);

  /// Number of scheduled-but-not-yet-fired (and not cancelled) events.
  [[nodiscard]] std::size_t pending_count() const { return live_; }

 private:
  /// Handler registry slot; a slot is live while `handler` is set, and its
  /// generation advances on every release so stale EventIds miss.
  struct Slot {
    Handler handler;
    std::uint32_t generation = 1;
  };

  struct Event {
    double at_ms;
    std::uint64_t seq;  // tie-break: FIFO for simultaneous events
    EventId id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  /// Whether `id` names a pending event (not fired, cancelled or unknown).
  [[nodiscard]] bool is_live(EventId id) const;
  /// Frees the slot for reuse, bumps its generation, and hands back its
  /// handler, so the caller decides when the captures die.
  Handler release_slot(std::uint32_t index);
  /// Pops the next live event; returns false when the queue is empty.
  bool pop_next(Event& out);
  /// Fires `event`: moves the handler out and releases the slot before
  /// invoking it, so self-cancel is a no-op and a handler that schedules
  /// (and so grows `slots_`) never runs from storage that can move.
  void dispatch(const Event& event);

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace wild5g::sim
