#include "sim/event_queue.hh"

#include <utility>

#include "sim/spare_cpu.hh"

namespace tpp {

EventId
EventQueue::schedule(Tick when, std::function<void()> fn)
{
    if (when < now_)
        tpp_panic("scheduling event in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    EventId id = nextId_++;
    queue_.push(Item{when, id, std::move(fn)});
    return id;
}

EventId
EventQueue::scheduleAfter(Tick delay, std::function<void()> fn)
{
    return schedule(now_ + delay, std::move(fn));
}

void
EventQueue::cancel(EventId id)
{
    if (id == 0 || id >= nextId_)
        return;
    cancelled_.insert(id);
}

bool
EventQueue::popNext(Item &out)
{
    while (!queue_.empty()) {
        // priority_queue::top is const; we move out after copy of header.
        const Item &top = queue_.top();
        if (cancelled_.erase(top.id)) {
            queue_.pop();
            continue;
        }
        out.when = top.when;
        out.id = top.id;
        out.fn = std::move(const_cast<Item &>(top).fn);
        queue_.pop();
        return true;
    }
    return false;
}

void
EventQueue::run(Tick until)
{
    const BusyThreadScope busy;
    running_ = true;
    horizon_ = until;
    Item item;
    while (!queue_.empty()) {
        // Peek first so we never advance past `until`.
        if (queue_.top().when > until)
            break;
        if (!popNext(item))
            break;
        if (item.when > until) {
            // The peeked head was cancelled and the next live event is
            // beyond the horizon: push it back untouched.
            queue_.push(std::move(item));
            break;
        }
        now_ = item.when;
        item.fn();
    }
    // A run() nested in a handler clears the flag on return, so the
    // enclosing run() serves nothing inline after it: safe, only slower.
    running_ = false;
    if (now_ < until)
        now_ = until;
}

void
EventQueue::runAll()
{
    Item item;
    while (popNext(item)) {
        now_ = item.when;
        item.fn();
    }
}

void
EventQueue::reset()
{
    while (!queue_.empty())
        queue_.pop();
    cancelled_.clear();
    now_ = 0;
}

} // namespace tpp
