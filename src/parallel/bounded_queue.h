// Bounded blocking queue: the hand-off primitive between the foreground
// pipeline and its background workers (spiller jobs, worker-pool tasks,
// look-ahead loads). Capacity is fixed at construction so a fast producer
// exerts back-pressure instead of queueing unbounded work — the memory
// discipline everywhere else in this repo (MemoryBudget) would be defeated
// by an unbounded task list. Safe for any number of producers/consumers
// (MPMC); the pipeline mostly uses it SPSC.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "util/thread_annotations.h"

namespace nexsort {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room, then enqueue. Returns false (dropping the
  /// item) if the queue was closed before space appeared.
  bool Push(T item) NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(&mutex_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.Signal();
    return true;
  }

  /// Non-blocking push; false (dropping the item) when full or closed.
  bool TryPush(T item) NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.Signal();
    return true;
  }

  /// Block until an item is available or the queue is closed and drained.
  /// Returns false only when closed with nothing left — items enqueued
  /// before Close() are always delivered.
  bool Pop(T* item) NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    while (!closed_ && items_.empty()) not_empty_.Wait(&mutex_);
    if (items_.empty()) return false;
    *item = std::move(items_.front());
    items_.pop_front();
    not_full_.Signal();
    return true;
  }

  /// Non-blocking pop; false when nothing is immediately available.
  bool TryPop(T* item) NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    if (items_.empty()) return false;
    *item = std::move(items_.front());
    items_.pop_front();
    not_full_.Signal();
    return true;
  }

  /// Reject future pushes and wake all waiters. Idempotent. Items already
  /// queued still drain through Pop.
  void Close() NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    closed_ = true;
    not_empty_.SignalAll();
    not_full_.SignalAll();
  }

  bool closed() const NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return closed_;
  }

  size_t size() const NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable Mutex mutex_{"BoundedQueue::mutex_", lock_rank::kTaskQueue};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ NEXSORT_GUARDED_BY(mutex_);
  bool closed_ NEXSORT_GUARDED_BY(mutex_) = false;
};

}  // namespace nexsort
