#include "exec/pool.hpp"

#include <cerrno>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace dgr::exec {

namespace {
thread_local ThreadPool* tl_pool = nullptr;
thread_local int tl_lane = 0;  ///< bound by run(); 0 off the pool

std::mutex g_pool_m;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

int this_lane() { return tl_lane; }

ThreadPool::ThreadPool(int threads) : lanes_(threads < 1 ? 1 : threads) {
  const int nworkers = lanes_ - 1;
  workers_.reserve(nworkers);
  for (int i = 0; i < nworkers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  os_threads_.reserve(nworkers);
  for (int i = 0; i < nworkers; ++i)
    os_threads_.emplace_back([this, i] { run(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(cv_m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : os_threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {  // single lane: no workers to hand off to
    task();
    return;
  }
  std::size_t w;
  if (tl_pool == this && this_lane() >= 1)
    w = static_cast<std::size_t>(this_lane() - 1);
  else
    w = rr_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lk(workers_[w]->m);
    workers_[w]->q.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Empty critical section orders the pending_ increment against a waiter
  // that just evaluated its predicate, so the notify cannot be missed.
  { std::lock_guard<std::mutex> lk(cv_m_); }
  cv_.notify_one();
}

bool ThreadPool::try_pop(int widx, std::function<void()>& out) {
  {  // own deque, newest first (LIFO)
    Worker& me = *workers_[widx];
    std::lock_guard<std::mutex> lk(me.m);
    if (!me.q.empty()) {
      out = std::move(me.q.back());
      me.q.pop_back();
      return true;
    }
  }
  // Steal oldest-first (FIFO) from the first non-empty victim.
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& v = *workers_[(widx + k) % n];
    std::lock_guard<std::mutex> lk(v.m);
    if (!v.q.empty()) {
      out = std::move(v.q.front());
      v.q.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::run(int widx) {
  tl_lane = widx + 1;
  tl_pool = this;
  for (;;) {
    std::function<void()> task;
    if (try_pop(widx, task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lk(cv_m_);
    cv_.wait(lk, [&] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_pool_m);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(configured_threads());
  return *g_pool;
}

void ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lk(g_pool_m);
  g_pool.reset();  // join the old workers before spawning replacements
  g_pool = std::make_unique<ThreadPool>(threads);
}

int ThreadPool::configured_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      dgr::env_count("DGR_THREADS", hw ? hw : 1, 1, kMaxThreads));
}

}  // namespace dgr::exec
