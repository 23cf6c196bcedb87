#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"

#if defined(BBA_OBSERVABILITY_ENABLED)
#include "obs/trace.hpp"
#endif

namespace bba {

namespace {

/// Innermost ThreadLimit override for this thread (0 = none).
thread_local int tlsThreadLimit = 0;

/// True while this thread is executing chunks of some multi-chunk
/// parallelFor — both pool workers and the calling thread set it, so nested
/// calls run inline. A one-chunk call leaves it untouched.
thread_local bool tlsInParallelRegion = false;

int envOrHardwareThreads() {
  // Read on every call (not cached) so tests and embedders can change
  // BBA_THREADS between top-level parallel regions.
  if (const char* env = std::getenv("BBA_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One in-flight parallelFor. Chunks are pulled from `next` by the caller
/// and by however many pool workers claim a slot; `slots` caps worker
/// participation so a ThreadLimit below the pool size is honored.
struct Job {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::int64_t numChunks = 0;
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<int> slots{0};
  std::atomic<int> running{0};
  std::atomic<bool> failed{false};
  std::mutex errorMutex;
  std::exception_ptr error;
#if defined(BBA_OBSERVABILITY_ENABLED)
  /// Span context of the launching thread; workers adopt it so spans
  /// opened inside chunks nest under the parallel region in the trace.
  obs::ParallelContext obsCtx;
#endif

  void process() {
    tlsInParallelRegion = true;
    for (;;) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= numChunks) break;
      if (failed.load(std::memory_order_relaxed)) break;
      const std::int64_t b = begin + c * grain;
      const std::int64_t e = std::min(end, b + grain);
      try {
        (*fn)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lk(errorMutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    tlsInParallelRegion = false;
  }
};

/// Lazily grown global worker pool. Workers sleep until a job is
/// published; one job runs at a time (calls nested in a multi-chunk region
/// never reach the pool).
class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive statics
    return *pool;
  }

  void run(Job& job, int extraWorkers) {
    std::lock_guard<std::mutex> jobLock(jobMutex_);
    ensureWorkers(extraWorkers);
    job.slots.store(extraWorkers, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(m_);
      current_ = &job;
      ++jobId_;
    }
    cv_.notify_all();
    job.process();  // the caller is always a participant
    std::unique_lock<std::mutex> lk(m_);
    done_.wait(lk, [&] { return job.running.load() == 0; });
    current_ = nullptr;
  }

 private:
  Pool() = default;

  void ensureWorkers(int n) {
    // Pool growth is bounded: timeslicing beyond this buys nothing.
    constexpr int kMaxWorkers = 64;
    n = std::min(n, kMaxWorkers);
    while (static_cast<int>(workers_.size()) < n) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  void workerLoop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait(lk, [&] { return jobId_ != seen; });
      seen = jobId_;
      Job* job = current_;
      if (!job) continue;
      if (job->slots.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        job->slots.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      job->running.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
#if defined(BBA_OBSERVABILITY_ENABLED)
      {
        obs::WorkerScope obsScope(job->obsCtx);
        job->process();
      }
#else
      job->process();
#endif
      lk.lock();
      if (job->running.fetch_sub(1, std::memory_order_relaxed) == 1) {
        done_.notify_all();
      }
    }
  }

  std::mutex jobMutex_;  // serializes top-level parallel regions
  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  Job* current_ = nullptr;
  std::uint64_t jobId_ = 0;
};

}  // namespace

int maxThreads() {
  if (tlsThreadLimit > 0) return tlsThreadLimit;
  return envOrHardwareThreads();
}

ThreadLimit::ThreadLimit(int n) : saved_(tlsThreadLimit) {
  BBA_ASSERT_MSG(n >= 1, "ThreadLimit requires n >= 1");
  tlsThreadLimit = n;
}

ThreadLimit::~ThreadLimit() { tlsThreadLimit = saved_; }

std::int64_t chunkCount(std::int64_t begin, std::int64_t end,
                        std::int64_t grain) {
  BBA_ASSERT(grain >= 1);
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}

void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t chunks = chunkCount(begin, end, grain);
  if (chunks == 0) return;

  if (chunks == 1) {
    // A lone chunk has nothing to share, so it runs on the caller without
    // claiming the pool or entering a region: calls nested inside it (a
    // one-session service frame's recover()) still fan out. Inside a
    // multi-chunk region the flag is already set and they stay inline.
    fn(begin, end);
    return;
  }

  const int threads = maxThreads();
  if (threads <= 1 || tlsInParallelRegion) {
    // Inline path: same chunk boundaries, same order, no pool. Also taken
    // for nested calls so inner loops of an already-parallel region stay
    // serial instead of deadlocking or oversubscribing.
    const bool nested = tlsInParallelRegion;
    tlsInParallelRegion = true;
    try {
      for (std::int64_t c = 0; c < chunks; ++c) {
        const std::int64_t b = begin + c * grain;
        fn(b, std::min(end, b + grain));
      }
    } catch (...) {
      tlsInParallelRegion = nested;
      throw;
    }
    tlsInParallelRegion = nested;
    return;
  }

  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.numChunks = chunks;
  job.fn = &fn;
#if defined(BBA_OBSERVABILITY_ENABLED)
  job.obsCtx = obs::captureParallelContext();
#endif
  const int extra =
      static_cast<int>(std::min<std::int64_t>(threads - 1, chunks - 1));
  Pool::instance().run(job, extra);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace bba
