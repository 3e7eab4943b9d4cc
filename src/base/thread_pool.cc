#include "base/thread_pool.hh"

#include <algorithm>
#include <atomic>

namespace gam
{

unsigned
ThreadPool::defaultThreadCount()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu);
        stopping = true;
    }
    taskReady.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mu);
        tasks.push_back(std::move(task));
        ++inFlight;
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    idle.wait(lock, [this] { return inFlight == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &task)
{
    // One task per worker, each claiming indices from a shared
    // counter: the queue holds at most threadCount() entries however
    // large n is.
    std::atomic<size_t> next{0};
    const size_t runners = std::min<size_t>(n, threadCount());
    for (size_t r = 0; r < runners; ++r) {
        submit([&] {
            for (size_t i = next++; i < n; i = next++)
                task(i);
        });
    }
    wait();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            taskReady.wait(lock,
                           [this] { return stopping || !tasks.empty(); });
            if (tasks.empty())
                return; // stopping and drained
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mu);
            if (--inFlight == 0)
                idle.notify_all();
        }
    }
}

} // namespace gam
