#include "sim/machine/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "common/timer.hpp"

namespace p8::sim {

SweepRunner::SweepRunner(std::size_t threads)
    : owned_(std::make_unique<common::ThreadPool>(
          threads ? threads : common::default_thread_count())),
      pool_(owned_.get()) {}

SweepRunner::SweepRunner(common::ThreadPool& pool) : pool_(&pool) {}

void SweepRunner::gate_on_audit(const AuditReport& report) {
  audit_failure_ = report.ok() ? std::string() : report.to_string();
}

void SweepRunner::check_audit() const {
  if (audit_failure_.empty()) return;
  throw std::runtime_error(
      "SweepRunner: refusing to sweep a model that failed its audit "
      "(pass --no-audit to waive):\n" +
      audit_failure_);
}

void SweepRunner::schedule(std::size_t points,
                           void (*fn)(void*, std::size_t), void* ctx) {
  last_timeline_.assign(points, common::TaskRecord{});
  for (std::size_t i = 0; i < points; ++i)
    last_timeline_[i].name = task_label_ + "#" + std::to_string(i);
  const std::size_t workers = pool_->size();
  std::vector<std::atomic<bool>> claimed(points);
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const common::Timer clock;

  // Runs point i on worker w unless another worker claimed it first.
  // Each record is written only by the worker whose claim won.
  auto claim = [&](std::size_t w, std::size_t i) {
    if (claimed[i].load() || claimed[i].exchange(true)) return;
    common::TaskRecord& rec = last_timeline_[i];
    rec.worker = w;
    rec.start_s = clock.seconds();
    rec.cancelled = failed.load();
    if (!rec.cancelled) {
      rec.stolen = i % workers != w;
      try {
        fn(ctx, i);
      } catch (...) {
        failed.store(true);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    rec.end_s = clock.seconds();
  };
  pool_->run_on_all([&](std::size_t w) {
    // The own share w, w + W, ... from its last index down, then the
    // remaining points, largest index first.
    for (std::size_t k = (points + workers - 1 - w) / workers; k-- > 0;)
      claim(w, w + k * workers);
    for (std::size_t i = points; i-- > 0;) claim(w, i);
  });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace p8::sim
