/**
 * @file
 * A small fixed-size worker pool for the experiment harness.
 *
 * A simulation's results do not depend on threads, so the pool only
 * provides fan-out *across* independent runs (SweepRunner). Jobs are
 * plain std::function<void()> values executed FIFO; wait() blocks until
 * the queue is drained and every worker is idle, so a submit/wait cycle
 * forms a simple fork-join region. An exception escaping a job is
 * captured and rethrown from wait() (first one wins).
 */

#ifndef TPP_HARNESS_THREAD_POOL_HH
#define TPP_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpp {

/**
 * Fixed-size FIFO thread pool.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. Safe from any thread, including workers. */
    void submit(std::function<void()> job);

    /**
     * Block until all submitted jobs have finished. Rethrows the first
     * exception any job raised since the last wait().
     */
    void wait();

    /** Number of worker threads. */
    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /** Usable hardware parallelism (never 0). */
    static unsigned hardwareConcurrency();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    std::size_t running_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

} // namespace tpp

#endif // TPP_HARNESS_THREAD_POOL_HH
