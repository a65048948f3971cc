#pragma once
// core::SolverService — the asynchronous multi-game job queue fronting the
// SolverBackend registry: submit(request) → std::future<SolveReport>.
//
// One service owns one worker pool; every submitted job is decomposed into
// run-granular units (SA runs, annealer reads, pivot labels) that the pool
// schedules ACROSS concurrent jobs — a large job never blocks a small one,
// and mixed batches keep every worker busy.
//
// Determinism: a job's report depends only on its request — every unit
// derives its RNG streams from keyed splits of the job's root seed — so
// reports are bit-identical for any pool size, any per-job parallelism cap
// and any submission interleaving. The single exception is
// SolveReport::wall_clock_s, which measures real elapsed time.
//
// Errors: a failed prepare() or unit surfaces as the job future's exception;
// remaining units of that job are skipped, other jobs are unaffected.

#include <condition_variable>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cnash::core {

/// Submission rejected because the service is draining (or torn down). The
/// serve/ gateway maps this to a retryable "draining" protocol error rather
/// than an internal one.
class ServiceDrainingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Optional worker-pool telemetry (all pointers nullable and non-owning; the
/// instruments must outlive the service). With everything null the scheduling
/// hot path is untouched apart from two steady_clock reads per step.
struct ServiceTelemetry {
  /// Wall time of each backend prepare() step.
  obs::Histogram* prepare_seconds = nullptr;
  /// Wall time of each work unit (run_unit call).
  obs::Histogram* unit_seconds = nullptr;
  /// Submission → first dispatch (prepare claim or first unit), once per job.
  obs::Histogram* queue_wait_seconds = nullptr;
  /// Span sink for per-step "prepare"/"unit" spans, correlated with the
  /// submitting request through JobHooks::trace_id.
  obs::TraceRecorder* trace = nullptr;
};

struct ServiceOptions {
  /// Worker pool size; 0 = one worker per hardware thread.
  std::size_t threads = 0;
  /// Backend registry to resolve request.backend against;
  /// nullptr = SolverRegistry::global().
  const SolverRegistry* registry = nullptr;
  ServiceTelemetry telemetry{};
};

/// Best-so-far snapshot of a running job, emitted to JobHooks::on_progress
/// after each completed unit (except the one that finishes the job — the
/// final report follows immediately through on_complete instead). Aggregates
/// cover the units completed so far in completion order, so consecutive
/// snapshots are monotone in units_completed but their sample-derived fields
/// depend on scheduling — snapshots are a live view, not part of the
/// bit-exactness contract (the final report is).
struct ProgressSnapshot {
  std::size_t units_total = 0;
  std::size_t units_completed = 0;
  std::size_t nash_count = 0;   // ε-Nash-verified samples so far
  std::size_t valid_count = 0;  // simplex-valid samples so far
  /// Minimum backend-native objective over the valid samples so far (NaN
  /// until the first valid sample lands).
  double best_objective = 0.0;
  /// Wall clock since submission.
  double elapsed_s = 0.0;
};

/// Asynchronous job observers (submit_async). Both callbacks are invoked on a
/// service worker thread — or, for a submission that resolves immediately
/// (draining service, invalid request), inline on the submitting thread — so
/// they must not block and must not re-enter the service; posting a wakeup to
/// an event loop is the intended use. No callback is invoked after
/// on_complete, and drain() does not return while either is still running.
struct JobHooks {
  /// Interim best-so-far report (anytime serving). Never invoked for jobs
  /// whose report is already final (prepare failures, zero-unit jobs).
  std::function<void(const ProgressSnapshot&)> on_progress;
  /// Terminal: exactly one of (report, error) is meaningful — error is the
  /// nullptr-free indicator (report is default-constructed when set).
  std::function<void(SolveReport&&, std::exception_ptr error)> on_complete;
  /// Trace-span correlation id of the originating request (0 = untraced).
  /// Worker-side "prepare"/"unit" spans carry it so a request's gateway
  /// stages and its solver units line up in the exported trace.
  std::uint64_t trace_id = 0;
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});
  ~SolverService();
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Queue a job; the future resolves once every unit has run. An unknown
  /// backend name resolves the future to std::invalid_argument immediately.
  ///
  /// Anytime degradation: when request.deadline_s > 0 the deadline clock
  /// starts at submission. Once it passes, no further units of that job are
  /// scheduled; in-flight units complete, and the report is assembled from
  /// the units that did run, flagged degraded with units_total /
  /// units_completed accounting. Latency is bounded by the deadline plus one
  /// unit's wall time. Which units run is deterministic only when the
  /// deadline never fires — a degraded report's *samples* are still
  /// bit-exact per unit (keyed streams), there are just fewer of them.
  std::future<SolveReport> submit(SolveRequest request);

  /// Callback-style submission (the serve/ gateway's entry point): the job's
  /// result is delivered through hooks.on_complete instead of a future, and
  /// hooks.on_progress (optional) streams best-so-far snapshots after each
  /// non-final unit. Deadline semantics are identical to submit().
  void submit_async(SolveRequest request, JobHooks hooks);

  /// Synchronous convenience: submit + wait.
  SolveReport solve(SolveRequest request);

  /// Worker pool size.
  std::size_t threads() const { return workers_.size(); }

  /// Jobs queued or in flight (diagnostic).
  std::size_t pending_jobs() const;

  /// Unit-granular queue introspection (the serve/ gateway's admission
  /// watermark reads this): `jobs` counts queued + in-flight jobs,
  /// `queued_units` work units not yet dispatched (an unprepared job counts
  /// its pending prepare step as one unit), `in_flight_units` units currently
  /// running on workers.
  struct QueueDepth {
    std::size_t jobs = 0;
    std::size_t queued_units = 0;
    std::size_t in_flight_units = 0;
  };
  QueueDepth queue_depth() const;

  /// Graceful shutdown: stop accepting new jobs, then block until every
  /// queued and in-flight job has finished (all futures resolved before
  /// drain() returns). Terminal — the service rejects submissions with
  /// std::runtime_error afterwards. Idempotent and safe to call concurrently
  /// with in-flight submissions from other threads: a submission either
  /// lands before the drain (and is finished by it) or is rejected.
  void drain();
  bool draining() const;

  /// The process-wide service (one worker per hardware thread) used by the
  /// benches, examples and CLI drivers.
  static SolverService& shared();

 private:
  struct Job;

  std::shared_ptr<Job> make_job();
  void submit_job(SolveRequest request, std::shared_ptr<Job> job);
  void enqueue(std::shared_ptr<Job> job);
  /// Resolve a job that never reached the queue (validation / draining).
  static void fail_now(const std::shared_ptr<Job>& job, std::exception_ptr e);
  void worker_loop();
  void finish(std::shared_ptr<Job> job);  // fulfil promise, job already delisted

  const SolverRegistry* registry_;
  const ServiceTelemetry telemetry_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::list<std::shared_ptr<Job>> jobs_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  bool draining_ = false;
  /// Jobs delisted from jobs_ whose promise is still being fulfilled; drain()
  /// waits for this to reach zero so every future is resolved on return.
  std::size_t finishing_ = 0;
};

}  // namespace cnash::core
