// Small work-stealing-free thread pool with a parallel_for helper.
//
// Its one caller is MoE routing (dynamic::MoeEngine::step), which spreads
// the (layer, microbatch) routing pairs over the cores, in the spirit of
// an OpenMP `parallel for`.  The tensor kernels do not use it: the
// threaded runtime calls them from its pipeline workers, which already
// occupy the cores.  The pool is created once and reused; parallel_for
// blocks until all chunks complete (structured parallelism, CP.22-friendly:
// no detached work escapes the call).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dynmo {

class ThreadPool {
 public:
  /// `threads == 0` → hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(begin..end) split into `size()` contiguous chunks; blocks until
  /// every chunk is done.  fn receives [chunk_begin, chunk_end).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Shared process-wide pool (sized to hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace dynmo
