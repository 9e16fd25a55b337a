// A persistent thread pool and atomic-counter parallel-for.
//
// The shared-memory engine (parallel/shared_engine) dispatches one short
// parallel region per compound-move level, so worker threads must be
// reusable: ThreadPool spawns its workers once and re-dispatches them with
// a generation counter under one mutex, instead of paying a thread spawn
// per region. The caller participates as worker 0, so a pool of N threads
// spawns only N-1 std::threads (and a 1-thread pool spawns none — the
// region runs inline; parallel::SharedEngine starts no pool at all when it
// runs on one thread).
//
// A region's job is held by reference — a function pointer plus the
// caller's callable, never a std::function — so dispatching a region
// allocates nothing.
//
// Work distribution is the classic shared-counter idiom: every worker
// fetch_add's a shared index and claims what it got, so load balance is
// automatic whatever the per-item cost. parallel_for_chunked claims `chunk`
// consecutive indices per grab, trading a little balance for fewer
// contended counter bumps and cache-friendly runs over adjacent output
// slots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace pts {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is worker 0).
  explicit ThreadPool(std::size_t threads) : threads_(threads) {
    PTS_CHECK(threads >= 1);
    workers_.reserve(threads - 1);
    for (std::size_t i = 1; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  std::size_t threads() const { return threads_; }

  /// Runs `job(worker_index)` on every worker concurrently — the caller runs
  /// index 0 — and returns once all of them have finished. `job` is called
  /// through a reference, never copied. The mutex handoffs at dispatch and
  /// join give the usual fork/join memory ordering: everything the caller
  /// wrote before run() is visible to the workers, and everything the
  /// workers wrote is visible to the caller after run().
  template <typename Fn>
  void run(Fn&& job) {
    using F = std::remove_reference_t<Fn>;
    const auto call = [](void* fn, std::size_t worker) {
      (*static_cast<F*>(fn))(worker);
    };
    dispatch({call, const_cast<std::remove_const_t<F>*>(std::addressof(job))});
  }

 private:
  /// A region's job: `call(fn, worker)` runs the caller's callable `fn`.
  struct Job {
    void (*call)(void* fn, std::size_t worker);
    void* fn;
  };

  void dispatch(Job job) {
    if (threads_ == 1) {
      job.call(job.fn, 0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
      remaining_ = threads_ - 1;
      ++generation_;
    }
    wake_cv_.notify_all();
    job.call(job.fn, 0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
  }

  void worker_loop(std::size_t index) {
    std::uint64_t seen = 0;
    for (;;) {
      Job job{};
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        job = job_;
      }
      job.call(job.fn, index);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --remaining_;
      }
      done_cv_.notify_one();
    }
  }

  const std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  Job job_{};
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;
  bool shutdown_ = false;
};

/// Runs `fn(worker, chunk_begin, chunk_end)` over [begin, end) in runs of
/// `chunk` consecutive indices per counter grab.
template <typename Fn>
void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                          std::size_t chunk, Fn&& fn) {
  PTS_CHECK(chunk >= 1);
  std::atomic<std::size_t> counter{begin};
  pool.run([&](std::size_t worker) {
    for (;;) {
      const std::size_t lo = counter.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      fn(worker, lo, lo + chunk < end ? lo + chunk : end);
    }
  });
}

}  // namespace pts
