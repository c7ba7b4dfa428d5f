/**
 * @file
 * Discrete-event simulation core.
 *
 * Components schedule callbacks at absolute ticks; run() drains events in
 * (tick, insertion-order) order, so simultaneous events execute in the
 * order they were scheduled — a property several kernel daemons rely on
 * (e.g. kswapd runs before a workload batch scheduled at the same tick
 * only if it was scheduled first).
 *
 * A handler that would reschedule itself can instead ask serveInline()
 * whether its next event would be the very next one popped; if so it
 * runs that event in place, without a queue round trip.
 */

#ifndef TPP_SIM_EVENT_QUEUE_HH
#define TPP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tpp {

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/**
 * Priority queue of timed callbacks driving the whole simulation.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at absolute tick `when`. Scheduling in the past
     * is a simulator bug and panics.
     * @return an id usable with cancel().
     */
    EventId schedule(Tick when, std::function<void()> fn);

    /** Schedule a callback `delay` ticks from now. */
    EventId scheduleAfter(Tick delay, std::function<void()> fn);

    /** Cancel a pending event. Cancelling a fired/unknown id is a no-op. */
    void cancel(EventId id);

    /** @return number of pending (non-cancelled) events. */
    std::size_t
    pending() const
    {
        // cancelled_ may retain ids of events that already fired, so clamp.
        return queue_.size() > cancelled_.size()
                   ? queue_.size() - cancelled_.size()
                   : 0;
    }

    /**
     * Run until the queue empties or simulated time would pass `until`.
     * Events scheduled exactly at `until` do fire.
     */
    void run(Tick until);

    /**
     * Serve the caller's next event inline instead of scheduling it.
     * Inside run(until), when `when` is strictly earlier than the next
     * queued event and not past `until`, that event would be popped
     * next anyway: set now() to `when` and return true, and the caller
     * runs its event in place. Otherwise return false and the caller
     * schedules it. A tick equal to the head's is refused (the queued
     * event is older, so same-tick FIFO order holds), as is any call
     * outside run() and any call while the head is a cancelled event.
     */
    bool
    serveInline(Tick when)
    {
        if (!running_ || when > horizon_)
            return false;
        if (when < now_)
            tpp_panic("serving an event in the past (%llu < %llu)",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        if (!queue_.empty()) {
            const Item &head = queue_.top();
            if (when >= head.when ||
                (!cancelled_.empty() && cancelled_.count(head.id)))
                return false;
        }
        now_ = when;
        return true;
    }

    /** Run until the queue is completely empty. */
    void runAll();

    /** Drop all pending events and reset the clock to zero. */
    void reset();

  private:
    struct Item {
        Tick when;
        EventId id;
        std::function<void()> fn;
    };

    struct Order {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };

    /** Pop the next non-cancelled event, or return false if none. */
    bool popNext(Item &out);

    Tick now_ = 0;
    /** Inside run(), and its horizon: what serveInline() may serve. */
    bool running_ = false;
    Tick horizon_ = 0;
    EventId nextId_ = 1;
    std::priority_queue<Item, std::vector<Item>, Order> queue_;
    std::unordered_set<EventId> cancelled_;
};

} // namespace tpp

#endif // TPP_SIM_EVENT_QUEUE_HH
