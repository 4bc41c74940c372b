// A serve warm-up that reaches every worker.
//
// serve::Service hands each request to whichever worker dequeues it
// first, so a plain burst of warm-up requests can leave one worker
// without any request for some algorithm — under a loaded host one
// worker may take nearly all of them. Each worker's arena is its own, so
// that worker's first steady-state run of the algorithm then allocates:
// a worker whose warm-up held no match4 request allocates 10 times on
// its first one, with 7 of its 18 arena leases missing the pool.
// WorkerRendezvous, called from ServiceOptions::on_dequeue, holds each
// worker after it dequeues until every worker has dequeued one request
// of the current batch; warm_every_worker() submits each (list,
// algorithm) pair once per worker in such batches, so every worker runs
// every pair.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <initializer_list>
#include <mutex>
#include <utility>
#include <vector>

#include "llmp.h"

namespace llmp::testutil {

class WorkerRendezvous {
 public:
  explicit WorkerRendezvous(std::size_t workers) : workers_(workers) {}

  /// The on_dequeue hook body: wait until the batch this arrival belongs
  /// to is complete. A no-op after release().
  void arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (released_) return;
    const std::uint64_t batch_end = (arrived_ / workers_ + 1) * workers_;
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ || arrived_ >= batch_end; });
  }

  /// End the warm-up: later dequeues pass straight through.
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const std::size_t workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t arrived_ = 0;
  bool released_ = false;
};

/// ServiceOptions for `workers` workers whose dequeues go through
/// `rendezvous` (which must outlive the Service).
inline serve::ServiceOptions rendezvous_options(std::size_t workers,
                                                WorkerRendezvous& rendezvous) {
  serve::ServiceOptions options;
  options.workers = workers;
  options.on_dequeue = [&rendezvous](std::size_t) { rendezvous.arrive(); };
  return options;
}

/// Run every (list, algorithm) pair once on each of the Service's
/// workers, then release the rendezvous. Returns the number of OK
/// results: lists.size() * algorithms.size() * workers when all succeed.
inline std::uint64_t warm_every_worker(
    serve::Service& svc, WorkerRendezvous& rendezvous,
    const std::vector<list::LinkedList>& lists,
    std::initializer_list<const char*> algorithms) {
  std::uint64_t ok = 0;
  for (const list::LinkedList& l : lists) {
    for (const char* alg : algorithms) {
      std::vector<std::future<Result<core::MatchResult>>> futs;
      for (std::size_t w = 0; w < svc.options().workers; ++w) {
        serve::Request req;
        req.list = &l;
        req.algorithm = alg;
        futs.push_back(svc.submit(std::move(req)));
      }
      for (auto& f : futs) ok += f.get().ok() ? 1 : 0;
    }
  }
  rendezvous.release();
  return ok;
}

}  // namespace llmp::testutil
