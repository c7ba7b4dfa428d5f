/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace tpp {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilBoundaryInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired++; });
    eq.schedule(11, [&] { fired++; });
    eq.run(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    eq.run(11);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunAdvancesClockToHorizon)
{
    EventQueue eq;
    eq.run(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    int fired = 0;
    const EventId id = eq.schedule(10, [&] { fired++; });
    eq.schedule(20, [&] { fired++; });
    eq.cancel(id);
    eq.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownIsNoop)
{
    EventQueue eq;
    eq.cancel(0);
    eq.cancel(9999);
    int fired = 0;
    eq.schedule(1, [&] { fired++; });
    eq.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runAll();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fire_ticks;
    std::function<void()> chain = [&]() {
        fire_ticks.push_back(eq.now());
        if (fire_ticks.size() < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.runAll();
    EXPECT_EQ(fire_ticks,
              (std::vector<Tick>{0, 10, 20, 30, 40}));
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired++; });
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    eq.runAll();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RunStopsBeforeLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { fired++; });
    eq.run(50);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 50u);
    eq.run(150);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelledHeadBeyondHorizonStaysQueued)
{
    EventQueue eq;
    int fired = 0;
    const EventId head = eq.schedule(10, [&] { fired += 1; });
    eq.schedule(100, [&] { fired += 10; });
    eq.cancel(head);
    eq.run(50);
    EXPECT_EQ(fired, 0);
    eq.run(100);
    EXPECT_EQ(fired, 10);
}

// ---------------------------------------------------------------------
// serveInline(): a handler running its own next event in place.
// ---------------------------------------------------------------------

TEST(EventQueue, InlineTickBeforeHeadAdvancesClock)
{
    EventQueue eq;
    std::vector<Tick> order;
    eq.schedule(100, [&] { order.push_back(eq.now()); });
    eq.schedule(10, [&] {
        EXPECT_TRUE(eq.serveInline(50));
        EXPECT_EQ(eq.now(), 50u);
        order.push_back(eq.now());
        // The head is unchanged: one tick before it is still served.
        EXPECT_TRUE(eq.serveInline(99));
        order.push_back(eq.now());
    });
    eq.run(200);
    EXPECT_EQ(order, (std::vector<Tick>{50, 99, 100}));
}

TEST(EventQueue, InlineIntoAnEmptyQueueUpToTheHorizon)
{
    EventQueue eq;
    bool served = false;
    eq.schedule(10, [&] { served = eq.serveInline(40); });
    eq.run(40);
    EXPECT_TRUE(served);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, InlineTickEqualToHeadIsRefused)
{
    // The queued event is older, so it runs first at a shared tick:
    // the caller must queue behind it.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(1); });
    eq.schedule(10, [&] {
        EXPECT_FALSE(eq.serveInline(50));
        EXPECT_EQ(eq.now(), 10u);
        eq.schedule(50, [&] { order.push_back(2); });
    });
    eq.run(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, InlineTickPastHorizonIsRefused)
{
    EventQueue eq;
    bool past = true;
    bool at = false;
    eq.schedule(10, [&] {
        at = eq.serveInline(40);
        past = eq.serveInline(41);
    });
    eq.run(40);
    EXPECT_TRUE(at);
    EXPECT_FALSE(past);
}

TEST(EventQueue, InlineWithCancelledHeadIsRefused)
{
    EventQueue eq;
    bool served = true;
    const EventId head = eq.schedule(100, [] {});
    eq.cancel(head);
    eq.schedule(10, [&] { served = eq.serveInline(50); });
    eq.run(200);
    EXPECT_FALSE(served);
}

TEST(EventQueue, InlineOutsideRunIsRefused)
{
    EventQueue eq;
    EXPECT_FALSE(eq.serveInline(5));
    eq.schedule(10, [] {});
    eq.run(20);
    EXPECT_FALSE(eq.serveInline(30));
    // runAll() has no horizon to check a tick against.
    bool served = true;
    eq.schedule(30, [&] { served = eq.serveInline(40); });
    eq.runAll();
    EXPECT_FALSE(served);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, InlineServiceKeepsTheEventOrder)
{
    // A self-rescheduling chain beside other events: serving the chain
    // inline whenever allowed must replay the queued order exactly.
    const auto trace = [](bool inline_service) {
        EventQueue eq;
        std::vector<std::pair<Tick, int>> fired;
        for (Tick t = 5; t <= 400; t += 35)
            eq.schedule(t, [&fired, &eq] { fired.emplace_back(eq.now(), 0); });
        Tick gap = 1;
        std::function<void()> chain = [&] {
            do {
                fired.emplace_back(eq.now(), 1);
                gap = gap * 7 % 23 + 1;
                if (eq.now() + gap > 400)
                    return;
            } while (inline_service && eq.serveInline(eq.now() + gap));
            eq.schedule(eq.now() + gap, chain);
        };
        eq.schedule(0, chain);
        eq.run(300);
        eq.run(400);
        return fired;
    };
    const auto queued = trace(false);
    EXPECT_GT(queued.size(), 40u);
    EXPECT_EQ(trace(true), queued);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

} // namespace
} // namespace tpp
