// The event queue of the virtual-clock scheduler (DESIGN.md §11).
//
// A min-heap of events ordered by (virtual_time, schedule_seq). The
// sequence number is assigned by the queue at push time, so events pushed
// for the same virtual timestamp pop in scheduling order — a total order
// that depends only on the (deterministic) scheduling decisions, never on
// wall clocks or worker identity. This tie-break is what makes the event
// *commit* order — and therefore every floating-point fold downstream —
// bit-identical for any HS_THREADS value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace hetero {

/// One scheduled event: at virtual time `time`, the dispatch record at
/// `dispatch` reaches its terminal outcome (arrival, dropout, timeout or
/// permanent failure — which one was already decided at dispatch).
struct SchedEvent {
  double time = 0.0;          ///< virtual seconds
  std::uint64_t seq = 0;      ///< scheduling order; breaks timestamp ties
  std::size_t dispatch = 0;   ///< the scheduler's dispatch record index
};

/// Total order: earliest virtual time first, earliest scheduled first
/// among equals.
inline bool event_after(const SchedEvent& a, const SchedEvent& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

class EventQueue {
 public:
  /// Schedules an event and returns its sequence number.
  std::uint64_t push(double time, std::size_t dispatch) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(SchedEvent{time, seq, dispatch});
    return seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pops the next event in (time, seq) order. Undefined when empty.
  SchedEvent pop() {
    SchedEvent e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  struct After {
    bool operator()(const SchedEvent& a, const SchedEvent& b) const {
      return event_after(a, b);
    }
  };
  std::priority_queue<SchedEvent, std::vector<SchedEvent>, After> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hetero
