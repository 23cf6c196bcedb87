#pragma once

#include <cstdint>
#include <functional>

namespace bba {

/// Deterministic work-sharing parallel runtime.
///
/// The contract that makes parallel BB-Align reproducible: `parallelFor`
/// splits a range into chunks whose boundaries depend ONLY on the grain
/// size — never on the thread count — so callers that keep one partial
/// result per chunk and combine them in chunk order obtain bit-identical
/// results at any thread count (including 1). See DESIGN.md,
/// "Determinism contract for parallel execution".

/// Maximum number of threads a `parallelFor` call may use on the calling
/// thread: the innermost active `ThreadLimit` if one is in scope, else the
/// `BBA_THREADS` environment variable (clamped to >= 1), else
/// `std::thread::hardware_concurrency()`. `BBA_THREADS=1` forces fully
/// inline (serial) execution with zero pool involvement.
[[nodiscard]] int maxThreads();

/// Scoped thread-count override for the current thread. Nestable; the
/// innermost limit wins. `ThreadLimit(1)` makes every `parallelFor` in
/// scope run inline on the caller.
class ThreadLimit {
 public:
  explicit ThreadLimit(int n);
  ~ThreadLimit();
  ThreadLimit(const ThreadLimit&) = delete;
  ThreadLimit& operator=(const ThreadLimit&) = delete;

 private:
  int saved_;
};

/// Number of chunks `parallelFor(begin, end, grain, ...)` produces. Use it
/// to size per-chunk partial-result arrays for deterministic reductions.
[[nodiscard]] std::int64_t chunkCount(std::int64_t begin, std::int64_t end,
                                      std::int64_t grain);

/// Run `fn(chunkBegin, chunkEnd)` over [begin, end) split into chunks of
/// `grain` indices (the last chunk may be short). Chunks are dynamically
/// work-shared across up to `maxThreads()` threads (a lazily created
/// global pool; the caller participates). Guarantees:
///  - chunk boundaries are a pure function of (begin, end, grain);
///  - a one-chunk call runs `fn` on the caller without claiming the pool,
///    so regions nested inside it may still fan out;
///  - a nested call from inside a multi-chunk region runs inline (no
///    deadlock, no oversubscription);
///  - the first exception thrown by any chunk is rethrown on the caller
///    after all in-flight chunks drain (remaining chunks are skipped).
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace bba
