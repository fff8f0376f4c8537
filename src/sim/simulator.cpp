#include "sim/simulator.h"

#include <utility>

namespace wild5g::sim {

namespace {

constexpr std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t generation_of(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

}  // namespace

EventId Simulator::schedule_at(double at_ms, Handler handler) {
  WILD5G_REQUIRE(at_ms >= now_ms_, "Simulator::schedule_at: time in the past");
  WILD5G_REQUIRE(static_cast<bool>(handler),
                 "Simulator::schedule_at: null handler");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.handler = std::move(handler);
  ++live_;
  const EventId id = make_id(slot.generation, index);
  queue_.push(Event{at_ms, next_seq_++, id});
  return id;
}

EventId Simulator::schedule_in(double delay_ms, Handler handler) {
  WILD5G_REQUIRE(delay_ms >= 0.0, "Simulator::schedule_in: negative delay");
  return schedule_at(now_ms_ + delay_ms, std::move(handler));
}

bool Simulator::is_live(EventId id) const {
  const std::uint32_t index = slot_of(id);
  return index < slots_.size() && slots_[index].handler &&
         slots_[index].generation == generation_of(id);
}

Simulator::Handler Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  Handler handler = std::move(slot.handler);
  slot.handler = nullptr;
  ++slot.generation;  // stale ids (and a wrapped 0) can never match again
  free_slots_.push_back(index);
  --live_;
  return handler;
}

void Simulator::cancel(EventId id) {
  if (!is_live(id)) return;
  // The returned handler dies here, after the bookkeeping, so a capture
  // whose destructor re-enters the simulator sees a consistent table.
  release_slot(slot_of(id));
  // The queue entry stays behind; pop_next() skips it by generation check.
}

bool Simulator::pop_next(Event& out) {
  while (!queue_.empty()) {
    const Event top = queue_.top();
    queue_.pop();
    if (is_live(top.id)) {
      out = top;
      return true;
    }
    // Cancelled: skip silently.
  }
  return false;
}

void Simulator::dispatch(const Event& event) {
  // Release before invoking: the running handler must not be cancellable
  // (self-cancel is a no-op), must not count as pending, and must run from
  // a local, since anything it schedules may reuse its slot or grow slots_.
  const Handler handler = release_slot(slot_of(event.id));
  handler();
}

void Simulator::run() {
  Event event{};
  while (pop_next(event)) {
    now_ms_ = event.at_ms;
    dispatch(event);
  }
}

void Simulator::run_until(double until_ms) {
  WILD5G_REQUIRE(until_ms >= now_ms_, "Simulator::run_until: time in the past");
  Event event{};
  while (!queue_.empty() && queue_.top().at_ms <= until_ms) {
    if (!pop_next(event)) break;
    if (event.at_ms > until_ms) {
      // Event popped past the horizon: put it back (seq preserved, so its
      // FIFO rank among simultaneous events survives the round-trip) and
      // stop.
      queue_.push(event);
      break;
    }
    now_ms_ = event.at_ms;
    dispatch(event);
  }
  // Contract: the clock always lands exactly on the horizon, even when the
  // queue drained early — callers tile timelines with consecutive
  // run_until calls and anchor schedule_in offsets at window boundaries.
  now_ms_ = until_ms;
}

}  // namespace wild5g::sim
