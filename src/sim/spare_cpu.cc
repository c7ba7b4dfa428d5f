#include "sim/spare_cpu.hh"

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace tpp {

namespace {

/** Threads in EventQueue::run() plus helpers drawing a batch. */
std::atomic<unsigned> busyThreads{0};

/** BusyThreadScopes alive on this thread. */
thread_local unsigned scopeDepth = 0;

/**
 * Runnable threads on the whole machine, the caller included: the
 * fourth field of /proc/loadavg, read at most once a millisecond. Other
 * processes' threads are the ones busyThreads cannot see, such as the
 * test binaries that `ctest -j4` runs side by side. 0 if unreadable.
 */
unsigned
machineRunnable()
{
    using Clock = std::chrono::steady_clock;
    static std::atomic<Clock::rep> readAt{0};
    static std::atomic<unsigned> runnable{0};
    const Clock::rep now = Clock::now().time_since_epoch().count();
    const Clock::rep period =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::milliseconds(1))
            .count();
    Clock::rep last = readAt.load(std::memory_order_relaxed);
    if (last != 0 && now - last < period)
        return runnable.load(std::memory_order_relaxed);
    if (!readAt.compare_exchange_strong(last, now, std::memory_order_relaxed))
        return runnable.load(std::memory_order_relaxed);
    unsigned count = 0;
    const int fd = ::open("/proc/loadavg", O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
        char text[128];
        const ssize_t n = ::read(fd, text, sizeof text - 1);
        ::close(fd);
        if (n > 0) {
            text[n] = '\0';
            if (std::sscanf(text, "%*s %*s %*s %u/", &count) != 1)
                count = 0;
        }
    }
    runnable.store(count, std::memory_order_relaxed);
    return count;
}

} // namespace

unsigned
allowedCpus()
{
    static const unsigned cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return 1u;
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    }();
    return cpus;
}

BusyThreadScope::BusyThreadScope()
{
    if (scopeDepth++ == 0)
        busyThreads.fetch_add(1, std::memory_order_relaxed);
}

BusyThreadScope::~BusyThreadScope()
{
    if (--scopeDepth == 0)
        busyThreads.fetch_sub(1, std::memory_order_relaxed);
}

bool
claimSpareCpu(bool wakes)
{
    // The counts only steer where work runs, so relaxed order will do.
    const unsigned cpus = allowedCpus();
    if (machineRunnable() + (wakes ? 1 : 0) > cpus)
        return false;
    const unsigned caller = scopeDepth == 0 ? 1 : 0;
    unsigned busy = busyThreads.load(std::memory_order_relaxed);
    do {
        if (busy + caller + 1 > cpus)
            return false;
    } while (!busyThreads.compare_exchange_weak(busy, busy + 1,
                                                std::memory_order_relaxed));
    return true;
}

void
releaseSpareCpu()
{
    busyThreads.fetch_sub(1, std::memory_order_relaxed);
}

} // namespace tpp
