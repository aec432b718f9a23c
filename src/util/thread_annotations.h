// Capability-based thread-safety annotations and the locking primitives
// the whole concurrent stack is built on (docs/STATIC_ANALYSIS.md,
// "Capability model & lock hierarchy").
//
// Two independent layers of lock-discipline checking live here:
//
//  1. Compile time: the NEXSORT_* macros expand to Clang's thread-safety
//     attributes (-Wthread-safety), so every guarded field names its
//     mutex (NEXSORT_GUARDED_BY) and every *Locked() helper states its
//     contract (NEXSORT_REQUIRES / NEXSORT_EXCLUDES). The `thread-safety`
//     CMake preset compiles the tree with -Werror=thread-safety; under
//     GCC the macros expand to nothing and the wrappers are plain
//     std::mutex forwarding.
//
//  2. Debug runtime: every Mutex carries a rank from the documented lock
//     hierarchy (lock_rank below). When NEXSORT_DCHECK_ENABLED, each
//     acquisition is checked against a per-thread held-lock stack: a
//     thread may only acquire a mutex of strictly greater rank than every
//     mutex it already holds, so any cross-subsystem cycle
//     (service -> env -> pool -> metrics chains) dies deterministically at
//     the first inverted acquisition instead of deadlocking under an
//     unlucky schedule. Release builds compile the checker out entirely.
//
// Raw std::mutex / std::lock_guard / std::condition_variable are banned
// from src/ outside this file (lint rule `raw-mutex`); all locking goes
// through Mutex / MutexLock / CondVar / SharedMutex.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/dcheck.h"

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros. Active only under Clang; GCC and
// other compilers see empty expansions. Reference:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#if defined(__clang__)
#define NEXSORT_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NEXSORT_THREAD_ANNOTATION_(x)
#endif

#define NEXSORT_CAPABILITY(x) NEXSORT_THREAD_ANNOTATION_(capability(x))
#define NEXSORT_SCOPED_CAPABILITY NEXSORT_THREAD_ANNOTATION_(scoped_lockable)
#define NEXSORT_GUARDED_BY(x) NEXSORT_THREAD_ANNOTATION_(guarded_by(x))
#define NEXSORT_PT_GUARDED_BY(x) NEXSORT_THREAD_ANNOTATION_(pt_guarded_by(x))
#define NEXSORT_ACQUIRED_BEFORE(...) \
  NEXSORT_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define NEXSORT_ACQUIRED_AFTER(...) \
  NEXSORT_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define NEXSORT_REQUIRES(...) \
  NEXSORT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define NEXSORT_REQUIRES_SHARED(...) \
  NEXSORT_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define NEXSORT_ACQUIRE(...) \
  NEXSORT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define NEXSORT_ACQUIRE_SHARED(...) \
  NEXSORT_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define NEXSORT_RELEASE(...) \
  NEXSORT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define NEXSORT_RELEASE_SHARED(...) \
  NEXSORT_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define NEXSORT_TRY_ACQUIRE(...) \
  NEXSORT_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define NEXSORT_EXCLUDES(...) \
  NEXSORT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define NEXSORT_ASSERT_CAPABILITY(x) \
  NEXSORT_THREAD_ANNOTATION_(assert_capability(x))
#define NEXSORT_RETURN_CAPABILITY(x) \
  NEXSORT_THREAD_ANNOTATION_(lock_returned(x))
#define NEXSORT_NO_THREAD_SAFETY_ANALYSIS \
  NEXSORT_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace nexsort {

// ---------------------------------------------------------------------------
// The lock hierarchy. A thread may only acquire a mutex whose rank is
// STRICTLY GREATER than the rank of every mutex it already holds (equal
// ranks never nest: no two same-rank mutexes are ever held together by
// design — e.g. a BlockDevice's bookkeeping mutex is released before the
// physical DoRead/DoWrite that reaches a stacked device below it).
//
// The ordering mirrors the call graph, outermost subsystems first: the
// socket layer calls into the service, the service into the env/session
// table and the memory budget, sort passes into the run store and buffer
// pool, and everything bottoms out in observability and device
// bookkeeping. The full table (every named mutex, what it guards, and the
// verified nesting chains) lives in docs/STATIC_ANALYSIS.md.
namespace lock_rank {
inline constexpr int kSocketServer = 10;      // SocketServer::lock_
inline constexpr int kSortService = 20;       // SortService::lock_
inline constexpr int kScratchNamespace = 25;  // ScratchNamespace::mutex_
inline constexpr int kSessionTable = 30;      // SortEnv::sessions_mutex_
inline constexpr int kRunStore = 40;          // RunStore::mutex_
inline constexpr int kAsyncSpiller = 45;      // AsyncSpiller::mutex_
inline constexpr int kParallelStats = 47;     // ParallelContext::mutex_
inline constexpr int kTaskQueue = 48;         // BoundedQueue<T>::mutex_
inline constexpr int kSortPartition = 49;     // sort-pass shared state
inline constexpr int kBufferPool = 50;        // BufferPool::mutex_
inline constexpr int kStatsSampler = 60;      // StatsSampler::mutex_
inline constexpr int kTelemetryHub = 61;      // TelemetryHub::mutex_
inline constexpr int kTracer = 70;            // Tracer::mutex_
inline constexpr int kMetricsRegistry = 75;   // MetricsRegistry::mutex_
inline constexpr int kMemoryBudget = 80;      // MemoryBudget::mutex_
// BlockDevice bookkeeping mutexes: Allocate holds the device's mutex
// across the virtual DoAllocate, which wrapping devices (throttle, fault
// injection, cache) forward to the inner device's Allocate — so a stacked
// wrapper's mutex ranks one BELOW the device it wraps (each wrapper
// constructor derives `inner rank - 1`). kBlockDevice is the innermost
// (storage-backed) default; ranks 81..88 are reserved for wrappers.
inline constexpr int kBlockDevice = 89;       // BlockDevice::mutex_
inline constexpr int kDeviceStorage = 90;     // memory-device storage
inline constexpr int kLeaf = 99;              // test-only / never nests
}  // namespace lock_rank

class Mutex;

namespace internal {

#if NEXSORT_DCHECK_ENABLED
/// Rank-check the mutex identified by `mu` against this thread's
/// held-lock stack and die (via DcheckFail) on an inversion; then push
/// it. Called after the physical acquisition — ordering relative to the
/// blocking lock() is irrelevant because the stack is thread-local.
void LockOrderAcquired(const void* mu, int rank, const char* name);
/// Pop `mu` from this thread's held-lock stack (it need not be the top:
/// unlock order is not constrained by the hierarchy).
void LockOrderReleased(const void* mu);
#endif

/// Test hooks: the number of wrapper locks this thread currently holds
/// and whether it holds the mutex at `mu` specifically. Both are constant
/// 0/false in Release builds (the checker is compiled out).
[[nodiscard]] int HeldLockCount();
[[nodiscard]] bool HoldsLock(const void* mu);

}  // namespace internal

// ---------------------------------------------------------------------------
/// An annotated, ranked exclusive mutex. The name and rank feed the debug
/// lock-order checker and its failure messages; in Release builds Lock()
/// and Unlock() are plain std::mutex forwarding.
class NEXSORT_CAPABILITY("mutex") Mutex {
 public:
  /// `name` must be a string literal (stored by pointer); `rank` is the
  /// mutex's position in the lock_rank hierarchy.
  explicit Mutex(const char* name, int rank) : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NEXSORT_ACQUIRE() {
    mu_.lock();
#if NEXSORT_DCHECK_ENABLED
    internal::LockOrderAcquired(this, rank_, name_);
#endif
  }

  void Unlock() NEXSORT_RELEASE() {
#if NEXSORT_DCHECK_ENABLED
    internal::LockOrderReleased(this);
#endif
    mu_.unlock();
  }

  /// Debug-assert the calling thread holds this mutex, and tell the
  /// analysis so (for code reached only with the lock already held).
  void AssertHeld() const NEXSORT_ASSERT_CAPABILITY(this) {
    NEXSORT_DCHECK_MSG(internal::HoldsLock(this),
                       "AssertHeld: mutex not held by this thread");
  }

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] int rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* const name_;
  const int rank_;
};

// ---------------------------------------------------------------------------
/// RAII scoped acquisition of a Mutex.
class NEXSORT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) NEXSORT_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() NEXSORT_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// ---------------------------------------------------------------------------
/// Condition variable bound to Mutex. All waits require the mutex held;
/// call sites loop on their condition explicitly (`while (!pred) Wait()`)
/// so the predicate reads of guarded fields stay visible to the
/// thread-safety analysis (a predicate lambda would be analyzed as an
/// unlocked context).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, block, and reacquire it before returning.
  /// The held-lock record is popped for the duration of the block and the
  /// reacquisition is rank-checked again (equivalently to Lock()).
  void Wait(Mutex* mu) NEXSORT_REQUIRES(mu);

  /// Wait, bounded by `deadline` on the monotonic clock. Returns false
  /// when the deadline passed (the mutex is reacquired either way).
  [[nodiscard]] bool WaitUntil(Mutex* mu,
                               std::chrono::steady_clock::time_point deadline)
      NEXSORT_REQUIRES(mu);

  /// Wait, bounded by a relative timeout. Returns false on timeout.
  template <typename Rep, typename Period>
  [[nodiscard]] bool WaitFor(Mutex* mu,
                             std::chrono::duration<Rep, Period> timeout)
      NEXSORT_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
/// Annotated, ranked reader/writer mutex (the memory-backed device uses
/// it so reads and writes of distinct already-allocated blocks overlap).
/// Shared acquisitions participate in the per-thread rank check exactly
/// like exclusive ones.
class NEXSORT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name, int rank)
      : name_(name), rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() NEXSORT_ACQUIRE();
  void Unlock() NEXSORT_RELEASE();
  void ReaderLock() NEXSORT_ACQUIRE_SHARED();
  void ReaderUnlock() NEXSORT_RELEASE_SHARED();

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* const name_;
  const int rank_;
};

/// RAII exclusive acquisition of a SharedMutex.
class NEXSORT_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) NEXSORT_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() NEXSORT_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared acquisition of a SharedMutex.
class NEXSORT_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) NEXSORT_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() NEXSORT_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace nexsort
