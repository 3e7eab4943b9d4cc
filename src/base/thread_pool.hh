/**
 * @file
 * A fixed-size worker thread pool.
 *
 * Used by the harness to run whole litmus suites concurrently and by
 * any other batch workload.  Tasks are plain std::function<void()>;
 * submitters coordinate results through their own storage (e.g. one
 * pre-sized output slot per task), which keeps merged results
 * deterministic regardless of completion order.
 */

#ifndef GAM_BASE_THREAD_POOL_HH
#define GAM_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gam
{

/** Fixed pool of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains remaining tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution by some worker. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned threadCount() const { return unsigned(workers.size()); }

    /**
     * Run task(i) for every i in [0, n) on the pool and wait.  Results
     * should be written to per-index slots for determinism.  Submits
     * min(n, threadCount()) tasks that claim indices from one shared
     * counter, so memory stays flat in n: every index runs exactly
     * once, in no fixed order across workers.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &task);

    /** The number of threads a default-constructed pool would use. */
    static unsigned defaultThreadCount();

  private:
    void workerLoop();

    std::mutex mu;
    std::condition_variable taskReady;
    std::condition_variable idle;
    std::deque<std::function<void()>> tasks;
    std::vector<std::thread> workers;
    size_t inFlight = 0;
    bool stopping = false;
};

} // namespace gam

#endif // GAM_BASE_THREAD_POOL_HH
