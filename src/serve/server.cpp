#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/report_json.hpp"
#include "simd/simd.hpp"
#include "util/build_info.hpp"

namespace cnash::serve {

namespace {

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string("serve: ") + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    sys_fail("fcntl(O_NONBLOCK)");
}

/// Is a complete (or detectably malformed / oversize — both of which the
/// extractor reports as an error the moment it sees them) binary frame
/// buffered? Used for the fairness-backlog decision, so it must never say
/// "yes" for a frame that is merely still arriving.
bool frame_actionable(const std::string& in, std::size_t max_payload) {
  if (in.size() < kFrameHeaderSize) return false;
  const auto* b = reinterpret_cast<const unsigned char*>(in.data());
  if (b[0] != kFrameMagic0 || b[1] != kFrameMagic1 || b[2] != kFrameVersion)
    return true;  // malformed header: actionable (produces an error)
  const std::uint32_t length = static_cast<std::uint32_t>(b[4]) |
                               (static_cast<std::uint32_t>(b[5]) << 8) |
                               (static_cast<std::uint32_t>(b[6]) << 16) |
                               (static_cast<std::uint32_t>(b[7]) << 24);
  if (length > max_payload) return true;  // oversize: actionable error
  return in.size() >= kFrameHeaderSize + length;
}

/// One pipeline stage: times its scope into a histogram (always, when one is
/// given) and emits a trace span (only while tracing is enabled). Inert —
/// zero clock reads — when neither sink wants the sample, which is how the
/// disabled-telemetry path stays under the <2% overhead budget.
class Stage {
 public:
  Stage(obs::TraceRecorder& trace, const char* name, std::uint64_t trace_id,
        obs::Histogram* hist)
      : trace_(trace), name_(name), trace_id_(trace_id), hist_(hist) {
    active_ = hist_ != nullptr || trace_.enabled();
    if (active_) begin_ = obs::TraceRecorder::Clock::now();
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  ~Stage() {
    if (!active_) return;
    const auto end = obs::TraceRecorder::Clock::now();
    if (hist_)
      hist_->record(std::chrono::duration<double>(end - begin_).count());
    trace_.record(name_, "gateway", begin_, end, trace_id_);
  }

 private:
  obs::TraceRecorder& trace_;
  const char* name_;
  std::uint64_t trace_id_;
  obs::Histogram* hist_;
  bool active_ = false;
  obs::TraceRecorder::Clock::time_point begin_{};
};

}  // namespace

// ---- Per-connection and cross-thread structures ----------------------------

struct NashServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;  // process-wide (fault-roll index base)
  std::string in;   // unparsed request bytes (reused across requests)
  std::string out;  // unflushed response bytes (reused across responses)
  std::string scratch;  // current request line / frame payload (reused)
  ParseSession session;  // backend memo + render buffer (reused)
  std::size_t inflight = 0;  // solve responses owed (queued + coalesced)
  std::uint64_t write_seq = 0;  // flush attempts (fault-roll index)
  enum Framing { kUndecided, kJsonLines, kBinary };
  Framing framing = kUndecided;  // negotiated on the first byte received
  bool want_write = false;  // epoll interest currently includes EPOLLOUT
  bool close_after_flush = false;
  /// Hard-dead (injected disconnect or output overflow): buffered I/O is
  /// dropped and the loop reaps the fd without waiting on inflight.
  bool aborted = false;
};

/// A cross-thread handoff into an event loop: a freshly accepted connection
/// from the accept thread, or a solve outcome from a service callback.
struct NashServer::Delivery {
  enum Kind { kNewConn, kFinal, kError, kProgress };
  Kind kind = kNewConn;
  std::uint64_t conn_id = 0;
  int fd = -1;  // kNewConn
  // kFinal: the canonical report's bytes (shared with the cache when stored)
  // and the waiter's mapping onto them.
  ReportBytes report_json;
  ReportMapping mapping;
  // kError
  std::string code;
  std::string message;
  std::optional<double> retry_after_s;
  // kProgress
  core::ProgressSnapshot snapshot;
  util::Json id;  // response correlation id (kFinal/kError/kProgress)
  std::uint64_t trace_id = 0;  // span correlation of the originating request
};

/// One event loop: an epoll instance plus the connections sharded onto it.
/// Everything except `inbox` is touched only by the owning thread; the inbox
/// is the single cross-thread entry point (push under inbox_mutex, then wake
/// the eventfd).
struct NashServer::Loop {
  NashServer* server = nullptr;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::unordered_map<std::uint64_t, Connection> conns;
  /// Connections with complete requests still buffered past the fairness
  /// bound; resumed next round without waiting for new socket data.
  std::deque<std::uint64_t> backlog;

  std::mutex inbox_mutex;
  std::vector<Delivery> inbox;

  ~Loop() {
    for (auto& [id, conn] : conns)
      if (conn.fd >= 0) ::close(conn.fd);
    if (event_fd >= 0) ::close(event_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  void open() {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) sys_fail("epoll_create1");
    event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd < 0) sys_fail("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // 0 = the eventfd (connection ids start at 1)
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, event_fd, &ev) < 0)
      sys_fail("epoll_ctl(eventfd)");
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }

  /// Keep EPOLLOUT interest in sync with buffered output.
  void update_interest(Connection& conn) {
    const bool want = !conn.out.empty() && !conn.aborted;
    if (want == conn.want_write) return;
    conn.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (want) ev.events |= EPOLLOUT;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void flush(Connection& conn);
  void send_body(Connection& conn, unsigned char frame_type, bool is_error);
  void read_ready(std::uint64_t conn_id);
  void process_input(std::uint64_t conn_id);
  void process_inbox();
  void process_backlog();
  void reap();
  void close_connection(std::uint64_t conn_id);
  void run();
  void final_flush_and_close();
};

// ---- Construction / listen -------------------------------------------------

NashServer::NashServer(ServeOptions options)
    : options_(options),
      cache_(options.cache_bytes),
      admission_(options.admission),
      // service_options() reads registry_/trace_; both are declared (hence
      // initialized) before service_, and init_telemetry() below registers
      // the same instruments the options point at.
      service_(service_options()) {
  init_telemetry();
  if (!options_.store_dir.empty()) {
    store::StoreOptions store_options;
    store_options.byte_budget = options_.store_budget_bytes;
    store_ = std::make_unique<store::SolutionStore>(options_.store_dir,
                                                    store_options);
    cache_.attach_store(store_.get(), store_get_, store_put_);
  }
}

core::ServiceOptions NashServer::service_options() {
  if (!options_.trace_out.empty()) trace_.enable();
  core::ServiceOptions svc;
  svc.threads = options_.service_threads;
  svc.telemetry.prepare_seconds =
      &registry_.histogram("cnash_stage_prepare_seconds");
  svc.telemetry.unit_seconds = &registry_.histogram("cnash_stage_unit_seconds");
  svc.telemetry.queue_wait_seconds =
      &registry_.histogram("cnash_stage_queue_wait_seconds");
  svc.telemetry.trace = &trace_;
  return svc;
}

void NashServer::init_telemetry() {
  started_ = std::chrono::steady_clock::now();
  stage_parse_ = &registry_.histogram("cnash_stage_parse_seconds");
  stage_canonicalize_ =
      &registry_.histogram("cnash_stage_canonicalize_seconds");
  stage_cache_lookup_ =
      &registry_.histogram("cnash_stage_cache_lookup_seconds");
  stage_admit_ = &registry_.histogram("cnash_stage_admit_seconds");
  stage_render_ = &registry_.histogram("cnash_stage_render_seconds");
  stage_flush_ = &registry_.histogram("cnash_stage_flush_seconds");
  stage_request_ = &registry_.histogram("cnash_request_handle_seconds");
  solve_wall_ = &registry_.histogram("cnash_solve_wall_seconds");
  store_get_ = &registry_.histogram("cnash_store_get_seconds");
  store_put_ = &registry_.histogram("cnash_store_put_seconds");
  gate_wait_ = &registry_.histogram("cnash_gate_wait_seconds");
  store_put_failures_ = &registry_.counter("cnash_store_put_failures_total");
  re_swap_proposals_ = &registry_.counter("cnash_re_swap_proposals_total");
  re_swap_accepts_ = &registry_.counter("cnash_re_swap_accepts_total");
  fallback_samples_ = &registry_.counter("cnash_fallback_samples_total");
  degraded_reports_ = &registry_.counter("cnash_degraded_reports_total");
  registry_.on_collect([this] { collect_mirrors(); });
}

void NashServer::collect_mirrors() {
  CacheStats cs;
  AdmissionStats as;
  std::size_t pending = 0;
  {
    const auto lock = lock_gate();
    cs = cache_.stats();
    as = admission_.stats();
    pending = pending_.size();
  }
  registry_.counter("cnash_cache_hits_total").set(cs.hits);
  registry_.counter("cnash_cache_misses_total").set(cs.misses);
  registry_.counter("cnash_cache_insertions_total").set(cs.insertions);
  registry_.counter("cnash_cache_evictions_total").set(cs.evictions);
  registry_.counter("cnash_cache_oversize_rejects_total")
      .set(cs.oversize_rejects);
  registry_.gauge("cnash_cache_entries").set(static_cast<double>(cs.entries));
  registry_.gauge("cnash_cache_bytes").set(static_cast<double>(cs.bytes));
  registry_.gauge("cnash_cache_byte_budget_bytes")
      .set(static_cast<double>(cs.byte_budget));

  registry_.counter("cnash_admission_admitted_total").set(as.admitted);
  registry_.counter("cnash_admission_shed_queue_full_total")
      .set(as.shed_queue_full);
  registry_.counter("cnash_admission_shed_connection_cap_total")
      .set(as.shed_connection_cap);
  registry_.counter("cnash_admission_coalesced_total").set(as.coalesced);

  // The tier-2 store keeps its own mutex: snapshot outside the gate. The
  // instruments exist (all-zero) even without --store-dir so the exposition
  // schema is stable.
  const store::StoreStats sts = store_ ? store_->stats() : store::StoreStats{};
  registry_.gauge("cnash_store_enabled").set(store_ ? 1.0 : 0.0);
  registry_.counter("cnash_store_hits_total").set(sts.hits);
  registry_.counter("cnash_store_misses_total").set(sts.misses);
  registry_.counter("cnash_store_appends_total").set(sts.appends);
  registry_.counter("cnash_store_evictions_total").set(sts.evictions);
  registry_.counter("cnash_store_compactions_total").set(sts.compactions);
  registry_.gauge("cnash_store_entries").set(static_cast<double>(sts.entries));
  registry_.gauge("cnash_store_segments")
      .set(static_cast<double>(sts.segments));
  registry_.gauge("cnash_store_live_stored_bytes")
      .set(static_cast<double>(sts.live_stored_bytes));

  const ServedStats ss = served_stats();
  registry_.counter("cnash_requests_total").set(ss.lines);
  registry_.counter("cnash_served_solves_ok_total").set(ss.solves_ok);
  registry_.counter("cnash_served_cache_hits_total").set(ss.cache_hits);
  registry_.counter("cnash_served_coalesced_total").set(ss.coalesced);
  registry_.counter("cnash_served_errors_total").set(ss.errors);
  registry_.counter("cnash_served_jobs_submitted_total")
      .set(ss.jobs_submitted);
  registry_.counter("cnash_served_progress_frames_total")
      .set(ss.progress_frames);
  registry_.counter("cnash_served_fair_deferrals_total")
      .set(ss.fair_deferrals);
  registry_.counter("cnash_served_write_stalls_total").set(ss.write_stalls);
  registry_.counter("cnash_served_injected_disconnects_total")
      .set(ss.injected_disconnects);
  registry_.counter("cnash_served_overflow_closed_total")
      .set(ss.overflow_closed);
  registry_.counter("cnash_served_uncached_reports_total")
      .set(ss.uncached_reports);

  const core::SolverService::QueueDepth depth = service_.queue_depth();
  registry_.gauge("cnash_service_threads")
      .set(static_cast<double>(service_.threads()));
  registry_.gauge("cnash_service_jobs").set(static_cast<double>(depth.jobs));
  registry_.gauge("cnash_service_queued_units")
      .set(static_cast<double>(depth.queued_units));
  registry_.gauge("cnash_service_in_flight_units")
      .set(static_cast<double>(depth.in_flight_units));

  registry_.gauge("cnash_pending_solves").set(static_cast<double>(pending));
  registry_.gauge("cnash_connections")
      .set(static_cast<double>(
          connections_.load(std::memory_order_relaxed)));
  registry_.gauge("cnash_uptime_seconds")
      .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
               .count());

  // Derived Earl & Deem observable: the replica-exchange acceptance rate.
  const std::uint64_t props = re_swap_proposals_->value();
  registry_.gauge("cnash_re_swap_accept_rate")
      .set(props ? static_cast<double>(re_swap_accepts_->value()) /
                       static_cast<double>(props)
                 : 0.0);
}

NashServer::~NashServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  // loops_ destructor closes any remaining fds; service_ (declared last) is
  // destroyed before either, draining its callbacks first.
}

void NashServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("serve: invalid host address " + options_.host);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0)
    sys_fail("bind");
  if (::listen(listen_fd_, 256) < 0) sys_fail("listen");
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0)
    sys_fail("getsockname");
  port_ = ntohs(bound.sin_port);

  if (options_.announce) {
    std::printf("LISTENING %u\n", static_cast<unsigned>(port_));
    std::fflush(stdout);
  }
}

// ---- Accept thread ----------------------------------------------------------

void NashServer::accept_ready(std::size_t& next_loop) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: the pending connection stays queued and the
        // listener stays readable, so back off briefly instead of letting
        // the accept loop busy-spin on a failure that cannot clear itself.
        ::poll(nullptr, 0, 50);
        return;
      }
      return;  // transient accept failure (e.g. ECONNABORTED); keep serving
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Delivery d;
    d.kind = Delivery::kNewConn;
    d.fd = fd;
    d.conn_id = next_conn_id_++;
    connections_.fetch_add(1, std::memory_order_relaxed);
    Loop& loop = *loops_[next_loop++ % loops_.size()];
    post(loop, std::move(d));
  }
}

void NashServer::post(Loop& loop, Delivery delivery) {
  {
    std::lock_guard<std::mutex> lock(loop.inbox_mutex);
    loop.inbox.push_back(std::move(delivery));
  }
  loop.wake();
}

void NashServer::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::unique_lock<std::mutex> NashServer::lock_gate() const {
  const auto begin = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(gate_);
  if (gate_wait_ != nullptr)
    gate_wait_->record(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - begin)
                           .count());
  return lock;
}

bool NashServer::pending_empty() {
  const auto lock = lock_gate();
  return pending_.empty();
}

void NashServer::shutdown_loops() {
  loops_stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_)
    if (loop->thread.joinable()) loop->wake();
  for (auto& loop : loops_)
    if (loop->thread.joinable()) loop->thread.join();
}

void NashServer::run() {
  if (listen_fd_ < 0 && !draining_.load(std::memory_order_relaxed))
    throw std::runtime_error("serve: run() before start()");

  loops_.clear();
  loops_stop_.store(false, std::memory_order_relaxed);
  const std::size_t n_loops = std::max<std::size_t>(1, options_.serve_threads);
  for (std::size_t i = 0; i < n_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->server = this;
    loop->open();
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_)
    loop->thread = std::thread([l = loop.get()] { l->run(); });

  try {
    std::size_t next_loop = 0;
    for (;;) {
      if (stop_requested_.load(std::memory_order_relaxed) &&
          !draining_.load(std::memory_order_relaxed))
        begin_drain();
      // Exit once draining and every in-flight solve has resolved. Its
      // callback posted all deliveries under the gate before removing the
      // registry entry, so observing an empty registry here means every
      // final frame is already in a loop inbox — the loops' shutdown path
      // writes and flushes them before closing.
      if (draining_.load(std::memory_order_relaxed) && pending_empty()) break;

      if (listen_fd_ >= 0) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 50);
        if (ready < 0 && errno != EINTR) sys_fail("poll(listen)");
        if (ready > 0) accept_ready(next_loop);
      } else {
        ::poll(nullptr, 0, 5);  // draining: just watch the registry
      }
    }
  } catch (...) {
    shutdown_loops();
    throw;
  }

  shutdown_loops();
  service_.drain();
  // Make the drain a durability point: every report persisted during this
  // run is on stable storage before run() returns.
  if (store_) store_->sync();
  // All loops and workers are parked, so the event buffer is quiescent:
  // write the Chrome trace (Perfetto-loadable) in one shot.
  if (!options_.trace_out.empty())
    trace_.write_chrome_trace(options_.trace_out);
}

// ---- Event loop -------------------------------------------------------------

void NashServer::Loop::run() {
  std::vector<epoll_event> events(64);
  while (!server->loops_stop_.load(std::memory_order_acquire)) {
    const int timeout_ms = backlog.empty() ? 200 : 0;
    const int n =
        ::epoll_wait(epoll_fd, events.data(), static_cast<int>(events.size()),
                     timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure; shut this loop down
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == 0) {
        std::uint64_t drained;
        while (::read(event_fd, &drained, sizeof drained) > 0) {
        }
        process_inbox();
        continue;
      }
      const std::uint64_t conn_id = events[i].data.u64;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
        read_ready(conn_id);
      const auto it = conns.find(conn_id);
      if (it != conns.end() && (events[i].events & EPOLLOUT)) {
        flush(it->second);
        update_interest(it->second);
      }
    }
    process_backlog();
    reap();
  }
  final_flush_and_close();
}

void NashServer::Loop::process_inbox() {
  std::vector<Delivery> batch;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex);
    batch.swap(inbox);
  }
  for (Delivery& d : batch) {
    if (d.kind == Delivery::kNewConn) {
      Connection conn;
      conn.fd = d.fd;
      conn.id = d.conn_id;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = d.conn_id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, d.fd, &ev) < 0) {
        ::close(d.fd);
        server->connections_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      conns.emplace(d.conn_id, std::move(conn));
      continue;
    }

    const auto it = conns.find(d.conn_id);
    // Solve bookkeeping mirrors a client that went away: the owed-response
    // count is irrelevant once the connection is gone, and the response is
    // dropped exactly like a genuine mid-request disconnect.
    if (d.kind == Delivery::kFinal || d.kind == Delivery::kError) {
      if (it != conns.end() && it->second.inflight > 0) it->second.inflight--;
    }
    if (it == conns.end()) continue;
    Connection& conn = it->second;

    switch (d.kind) {
      case Delivery::kFinal: {
        server->counters_.solves_ok.fetch_add(1, std::memory_order_relaxed);
        {
          Stage stage(server->trace_, "render", d.trace_id,
                      server->stage_render_);
          render_solve_ok_spliced(conn.session.body, d.id, /*cached=*/false,
                                  *d.report_json, d.mapping);
        }
        Stage stage(server->trace_, "flush", d.trace_id, server->stage_flush_);
        send_body(conn, kFrameFinal, /*is_error=*/false);
        break;
      }
      case Delivery::kError:
        render_error_body(conn.session.body, d.id, d.code, d.message,
                          d.retry_after_s);
        send_body(conn, kFrameError, /*is_error=*/true);
        break;
      case Delivery::kProgress:
        if (!conn.aborted) {
          server->counters_.progress_frames.fetch_add(
              1, std::memory_order_relaxed);
          render_progress_body(conn.session.body, d.id, d.snapshot);
          send_body(conn, kFrameProgress, /*is_error=*/false);
        }
        break;
      case Delivery::kNewConn:
        break;  // handled above
    }
  }
}

void NashServer::Loop::read_ready(std::uint64_t conn_id) {
  const auto it = conns.find(conn_id);
  if (it == conns.end()) return;
  Connection& conn = it->second;
  {
    // Trace-only span (no request id yet — bytes may span many requests).
    Stage stage(server->trace_, "read", /*trace_id=*/0, /*hist=*/nullptr);
    char buf[16384];
    for (;;) {
      const ssize_t got = ::recv(conn.fd, buf, sizeof buf, 0);
      if (got > 0) {
        conn.in.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      // Peer closed (or hard error): serve what was already buffered, then
      // close once owed responses are flushed.
      conn.close_after_flush = true;
      break;
    }
  }
  process_input(conn_id);
}

void NashServer::Loop::process_input(std::uint64_t conn_id) {
  auto it = conns.find(conn_id);
  if (it == conns.end()) return;
  Connection& conn = it->second;

  if (conn.framing == Connection::kUndecided && !conn.in.empty())
    conn.framing =
        looks_binary(static_cast<unsigned char>(conn.in.front()))
            ? Connection::kBinary
            : Connection::kJsonLines;

  const std::size_t cap = std::max<std::size_t>(
      1, server->options_.max_requests_per_wakeup);
  std::size_t handled = 0;
  while (handled < cap && !conn.aborted && !conn.close_after_flush) {
    if (conn.framing == Connection::kBinary) {
      std::optional<FrameHeader> header;
      try {
        header = peek_frame(conn.in, server->options_.max_line_bytes);
      } catch (const ProtocolError& e) {
        // A broken frame header desynchronises the stream — answer and close.
        server->counters_.lines.fetch_add(1, std::memory_order_relaxed);
        render_error_body(conn.session.body, util::Json(), e.code(), e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
        conn.in.clear();
        conn.close_after_flush = true;
        break;
      }
      if (!header || conn.in.size() < kFrameHeaderSize + header->length) break;
      conn.scratch.assign(conn.in, kFrameHeaderSize, header->length);
      conn.in.erase(0, kFrameHeaderSize + header->length);
      handled++;
      server->counters_.lines.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t tid =
          server->trace_.enabled() ? server->trace_.new_trace_id() : 0;
      Stage request_stage(server->trace_, "request", tid,
                          server->stage_request_);
      WireRequest request;
      try {
        Stage parse_stage(server->trace_, "parse", tid, server->stage_parse_);
        request = parse_frame_request(header->type, conn.scratch,
                                      &conn.session);
      } catch (const ProtocolError& e) {
        render_error_body(conn.session.body, e.id(), e.code(), e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
        continue;
      } catch (const std::exception& e) {
        render_error_body(conn.session.body, util::Json(), "internal",
                          e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
        continue;
      }
      try {
        server->handle_request(*this, conn, std::move(request), tid);
      } catch (const std::exception& e) {
        // Defensive: nothing may escape the event loop.
        render_error_body(conn.session.body, util::Json(), "internal",
                          e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
      }
    } else {
      const std::size_t nl = conn.in.find('\n');
      if (nl == std::string::npos) break;
      conn.scratch.assign(conn.in, 0, nl);
      conn.in.erase(0, nl + 1);
      if (!conn.scratch.empty() && conn.scratch.back() == '\r')
        conn.scratch.pop_back();
      if (conn.scratch.empty()) continue;
      handled++;
      server->counters_.lines.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t tid =
          server->trace_.enabled() ? server->trace_.new_trace_id() : 0;
      Stage request_stage(server->trace_, "request", tid,
                          server->stage_request_);
      WireRequest request;
      try {
        Stage parse_stage(server->trace_, "parse", tid, server->stage_parse_);
        request = parse_request(conn.scratch, &conn.session);
      } catch (const ProtocolError& e) {
        render_error_body(conn.session.body, e.id(), e.code(), e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
        continue;
      } catch (const std::exception& e) {
        // Defensive: nothing may escape the event loop.
        render_error_body(conn.session.body, util::Json(), "internal",
                          e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
        continue;
      }
      try {
        server->handle_request(*this, conn, std::move(request), tid);
      } catch (const std::exception& e) {
        render_error_body(conn.session.body, util::Json(), "internal",
                          e.what());
        send_body(conn, kFrameError, /*is_error=*/true);
      }
    }
  }
  if (conn.aborted) return;

  // Protocol-abuse guard: an unterminated request longer than the limit.
  if (conn.framing != Connection::kBinary &&
      conn.in.size() > server->options_.max_line_bytes) {
    render_error_body(conn.session.body, util::Json(), "bad_request",
                      "request line exceeds " +
                          std::to_string(server->options_.max_line_bytes) +
                          " bytes");
    send_body(conn, kFrameError, /*is_error=*/true);
    conn.in.clear();
    conn.close_after_flush = true;
    return;
  }

  // Fairness: a pipelined batch beyond the per-wakeup bound is resumed from
  // the backlog next round instead of here, so the loop's other connections
  // get a turn first.
  const bool more =
      !conn.close_after_flush &&
      (conn.framing == Connection::kBinary
           ? frame_actionable(conn.in, server->options_.max_line_bytes)
           : conn.in.find('\n') != std::string::npos);
  if (more) {
    backlog.push_back(conn_id);
    server->counters_.fair_deferrals.fetch_add(1, std::memory_order_relaxed);
  }
}

void NashServer::Loop::process_backlog() {
  // One pass over the connections queued at entry; process_input re-queues
  // any that still exceed the bound, for the next round.
  std::size_t n = backlog.size();
  while (n-- > 0) {
    const std::uint64_t conn_id = backlog.front();
    backlog.pop_front();
    process_input(conn_id);
  }
}

void NashServer::Loop::reap() {
  // Connections that are done: aborted (injected disconnect / output
  // overflow — no goodbyes owed), or flushed + flagged with nothing owed.
  // An aborted connection's pending deliveries resolve against a missing
  // conn id and are dropped, exactly like a genuine mid-request disconnect.
  std::vector<std::uint64_t> dead;
  for (const auto& [id, conn] : conns)
    if (conn.aborted ||
        (conn.close_after_flush && conn.out.empty() && conn.inflight == 0))
      dead.push_back(id);
  for (const std::uint64_t id : dead) close_connection(id);
}

void NashServer::Loop::close_connection(std::uint64_t conn_id) {
  const auto it = conns.find(conn_id);
  if (it == conns.end()) return;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns.erase(it);
  server->connections_.fetch_sub(1, std::memory_order_relaxed);
}

void NashServer::Loop::final_flush_and_close() {
  // The in-flight registry was empty before loops_stop_ was set, so every
  // final delivery is already in the inbox: write those responses, then give
  // sockets a bounded grace period to take the last bytes.
  process_inbox();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool outstanding = false;
    for (auto& [id, conn] : conns) {
      flush(conn);
      if (!conn.aborted && !conn.out.empty()) outstanding = true;
    }
    if (!outstanding || std::chrono::steady_clock::now() > deadline) break;
    ::poll(nullptr, 0, 10);
  }
  std::vector<std::uint64_t> all;
  for (const auto& [id, conn] : conns) all.push_back(id);
  for (const std::uint64_t id : all) close_connection(id);
}

// ---- Response writing -------------------------------------------------------

void NashServer::Loop::send_body(Connection& conn, unsigned char frame_type,
                                 bool is_error) {
  if (is_error)
    server->counters_.errors.fetch_add(1, std::memory_order_relaxed);
  if (conn.aborted) return;
  if (conn.framing == Connection::kBinary) {
    encode_frame(frame_type, conn.session.body, conn.out);
  } else {
    conn.out += conn.session.body;
    conn.out += '\n';
  }
  // Slow-reader guard: a peer that stops draining responses while issuing
  // more requests cannot grow `out` past the cap — the connection is
  // aborted instead (buffered output dropped, fd reaped by the loop).
  if (conn.out.size() > server->options_.max_output_bytes) {
    conn.out.clear();
    conn.aborted = true;
    server->counters_.overflow_closed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  flush(conn);
  update_interest(conn);
}

void NashServer::Loop::flush(Connection& conn) {
  if (conn.aborted) return;
  // Injected transport faults, rolled per flush attempt: a disconnect aborts
  // the connection mid-response; a write stall delivers at most one byte and
  // leaves the rest buffered for EPOLLOUT — downstream of both, the server
  // must behave exactly as it does for a genuinely broken or slow peer.
  const util::FaultPlan& fault = server->options_.fault;
  if (!conn.out.empty() && fault.server_faults()) {
    using Scope = util::FaultPlan::Scope;
    const std::uint64_t roll_index = (conn.id << 20) ^ conn.write_seq++;
    if (fault.roll(Scope::kDisconnect, roll_index, fault.disconnect_rate)) {
      conn.out.clear();
      conn.aborted = true;
      server->counters_.injected_disconnects.fetch_add(
          1, std::memory_order_relaxed);
      return;
    }
    if (fault.roll(Scope::kWriteStall, roll_index, fault.write_stall_rate)) {
      const ssize_t sent = ::send(conn.fd, conn.out.data(), 1, MSG_NOSIGNAL);
      if (sent > 0) conn.out.erase(0, static_cast<std::size_t>(sent));
      server->counters_.write_stalls.fetch_add(1, std::memory_order_relaxed);
      return;  // rest stays buffered; EPOLLOUT resumes it
    }
  }
  while (!conn.out.empty()) {
    const ssize_t sent =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (sent > 0) {
      // Short writes are normal under O_NONBLOCK: loop until EAGAIN, the
      // remainder stays in `out` and epoll watches EPOLLOUT.
      conn.out.erase(0, static_cast<std::size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (sent < 0 && errno == EINTR) continue;
    conn.out.clear();  // broken pipe: drop buffered output, close on reap
    conn.close_after_flush = true;
    return;
  }
}

// ---- Request handling -------------------------------------------------------

void NashServer::handle_request(Loop& loop, Connection& conn,
                                WireRequest request, std::uint64_t trace_id) {
  if (request.method == "solve") {
    handle_solve(loop, conn, std::move(request), trace_id);
  } else if (request.method == "status") {
    render_ok_body(conn.session.body, request.id, "status", status_payload());
    loop.send_body(conn, kFrameFinal, /*is_error=*/false);
  } else if (request.method == "stats") {
    render_ok_body(conn.session.body, request.id, "stats", stats_payload());
    loop.send_body(conn, kFrameFinal, /*is_error=*/false);
  } else if (request.method == "metrics") {
    // Scrape path: the registry's collect callback takes the gate (briefly)
    // to mirror the aggregate stats; we hold no lock here, so scraping is
    // safe — and non-blocking for other loops — while solves run.
    if (request.metrics_text)
      render_ok_body(conn.session.body, request.id, "metrics_text",
                     util::Json::string(registry_.text_exposition()));
    else
      render_ok_body(conn.session.body, request.id, "metrics",
                     registry_.to_json());
    loop.send_body(conn, kFrameFinal, /*is_error=*/false);
  } else {  // list-backends (the parser rejected everything else)
    util::Json backends = util::Json::array();
    const core::SolverRegistry& registry = core::SolverRegistry::global();
    for (const std::string& name : registry.names()) {
      util::Json& b = backends.push();
      b.set("name", name);
      b.set("description", registry.at(name).describe());
    }
    render_ok_body(conn.session.body, request.id, "backends",
                   std::move(backends));
    loop.send_body(conn, kFrameFinal, /*is_error=*/false);
  }
}

void NashServer::handle_solve(Loop& loop, Connection& conn,
                              WireRequest request, std::uint64_t trace_id) {
  if (draining_.load(std::memory_order_relaxed)) {
    render_error_body(conn.session.body, request.id, "draining",
                      "server is draining and accepts no new solves",
                      admission_.options().retry_after_s);
    loop.send_body(conn, kFrameError, /*is_error=*/true);
    return;
  }

  CanonicalRequest canonical = [&] {
    Stage stage(trace_, "canonicalize", trace_id, stage_canonicalize_);
    return canonicalize(std::move(*request.solve));
  }();

  // Everything the loops share sits behind the gate: cache, coalescing
  // registry and admission. The verdict is computed under the lock; the
  // response (and the submit) happens after it is released — rendering a
  // report, reading the store or running the solver under the gate would
  // serialise the loops.
  enum class Outcome { kHit, kCoalesced, kShed, kSubmit };
  Outcome outcome;
  ReportBytes hit;
  std::string shed_message;
  double shed_retry = 0.0;
  InFlight* entry = nullptr;
  bool want_progress = request.progress;
  auto note_hit = [&] {
    counters_.solves_ok.fetch_add(1, std::memory_order_relaxed);
    counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kHit;
  };
  // Layer 1b (gate held): coalesce onto an identical in-flight solve — the
  // duplicate costs a waiter slot, not a solver job. Waiters hold a response
  // slot and buffered output, so they still count against the connection's
  // in-flight cap (only the global watermark does not).
  auto coalesce = [&] {
    for (auto& pending : pending_) {
      if (!pending->store_in_cache || !(pending->key == canonical.key))
        continue;
      if (admission_.admit(/*global_in_flight=*/0, conn.inflight) !=
          AdmissionController::Verdict::kAdmit) {
        shed_message = "connection in-flight cap reached";
        shed_retry = admission_.retry_after_s(pending_.size());
        return Outcome::kShed;
      }
      admission_.note_coalesced();
      counters_.coalesced.fetch_add(1, std::memory_order_relaxed);
      conn.inflight++;
      pending->waiters.push_back({&loop, conn.id, request.id,
                                  std::move(canonical.mapping),
                                  request.progress, trace_id});
      return Outcome::kCoalesced;
    }
    return Outcome::kSubmit;
  };
  // Layers 2 and 3 (gate held): admission control, then a new job for the
  // solver pool (submitted below, outside the gate).
  auto admit = [&] {
    Stage stage(trace_, "admit", trace_id, stage_admit_);
    const AdmissionController::Verdict verdict =
        admission_.admit(pending_.size(), conn.inflight);
    if (verdict != AdmissionController::Verdict::kAdmit) {
      shed_message = verdict == AdmissionController::Verdict::kShedQueueFull
                         ? "solve queue is at its watermark"
                         : "connection in-flight cap reached";
      shed_retry = admission_.retry_after_s(pending_.size());
      return Outcome::kShed;
    }
    auto owned = std::make_unique<InFlight>();
    entry = owned.get();
    entry->key = std::move(canonical.key);
    entry->store_in_cache = !request.no_cache;
    entry->waiters.push_back({&loop, conn.id, request.id,
                              std::move(canonical.mapping), request.progress,
                              trace_id});
    pending_.push_back(std::move(owned));
    conn.inflight++;
    counters_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kSubmit;
  };

  // Layer 1: the content-addressed cache. Replay is deterministic — the
  // stored canonical report (modeled timing included) is mapped back to the
  // caller's action order; for an identical request that mapping is the
  // identity and the response is byte-identical to the first one. A RAM miss
  // that nothing in flight will answer is looked up in the tier-2 store with
  // the gate released (the store has its own mutex), so disk reads never
  // block the other loops; the gate is then re-taken to promote a disk hit,
  // or to re-check RAM and the in-flight registry before admitting a solve.
  //
  // The "cache" stage times the whole lookup: the RAM tier and, on a miss,
  // the store read and the promotion.
  std::optional<Stage> cache_stage;
  bool read_store = false;
  {
    const auto lock = lock_gate();
    outcome = Outcome::kSubmit;
    if (!request.no_cache) {
      cache_stage.emplace(trace_, "cache", trace_id, stage_cache_lookup_);
      hit = cache_.lookup_ram(canonical.key);
      outcome = hit ? note_hit() : coalesce();
      read_store = outcome == Outcome::kSubmit && cache_.has_store();
      if (!read_store) cache_stage.reset();
    }
    if (outcome == Outcome::kSubmit && !read_store) outcome = admit();
  }
  if (read_store) {
    std::optional<SolutionCache::Stored> stored;
    {
      Stage stage(trace_, "store", trace_id, /*hist=*/nullptr);
      stored = cache_.fetch_stored(canonical.key);
    }
    const auto lock = lock_gate();
    if (stored) {
      cache_.insert_bytes(canonical.key, stored->report_json,
                          stored->footprint);
      hit = std::move(stored->report_json);
    } else {
      hit = cache_.peek(canonical.key);  // solved while the store was read
    }
    cache_stage.reset();
    if (hit) {
      outcome = note_hit();
    } else {
      outcome = coalesce();
      if (outcome == Outcome::kSubmit) outcome = admit();
    }
  }

  switch (outcome) {
    case Outcome::kHit: {
      {
        Stage stage(trace_, "render", trace_id, stage_render_);
        render_solve_ok_spliced(conn.session.body, request.id, /*cached=*/true,
                                *hit, canonical.mapping);
      }
      Stage stage(trace_, "flush", trace_id, stage_flush_);
      loop.send_body(conn, kFrameFinal, /*is_error=*/false);
      return;
    }
    case Outcome::kCoalesced:
      return;  // the in-flight job's completion answers this waiter
    case Outcome::kShed:
      render_error_body(conn.session.body, request.id, "overloaded",
                        shed_message, shed_retry);
      loop.send_body(conn, kFrameError, /*is_error=*/true);
      return;
    case Outcome::kSubmit:
      break;
  }

  // Per-backend solve counts, labeled Prometheus-style. Interned once per
  // backend key; outside the gate (the registry has its own mutex).
  registry_
      .counter("cnash_solve_jobs_total{backend=\"" +
               canonical.request.backend + "\"}")
      .add(1);

  // Submit outside the gate: an immediately-resolved submission (service
  // draining) runs on_complete inline on this thread, and on_complete takes
  // the gate. Progress streaming is wired iff the submitting request asked
  // for it — a later coalescer onto a job without the hook gets the final
  // frame only.
  core::JobHooks hooks;
  hooks.trace_id = trace_id;
  if (want_progress)
    hooks.on_progress = [this, entry](const core::ProgressSnapshot& snapshot) {
      deliver_progress(entry, snapshot);
    };
  hooks.on_complete = [this, entry](core::SolveReport&& report,
                                    std::exception_ptr error) {
    complete_solve(entry, std::move(report), error);
  };
  service_.submit_async(std::move(canonical.request), std::move(hooks));
}

// ---- Solve callbacks (service worker threads) -------------------------------

void NashServer::deliver_progress(InFlight* entry,
                                  const core::ProgressSnapshot& snapshot) {
  const auto lock = lock_gate();
  // Only deliver while the job is still registered: a snapshot racing the
  // final report (posted when the entry is removed) is dropped, so a waiter
  // never sees progress after its final frame. The pointer is compared, not
  // dereferenced, until the entry is known live.
  const auto it = std::find_if(
      pending_.begin(), pending_.end(),
      [entry](const std::unique_ptr<InFlight>& p) { return p.get() == entry; });
  if (it == pending_.end()) return;
  for (const InFlight::Waiter& waiter : entry->waiters) {
    if (!waiter.progress) continue;
    Delivery d;
    d.kind = Delivery::kProgress;
    d.conn_id = waiter.conn_id;
    d.id = waiter.id;
    d.snapshot = snapshot;
    post(*waiter.loop, std::move(d));
  }
}

void NashServer::complete_solve(InFlight* entry, core::SolveReport&& report,
                                std::exception_ptr error) {
  std::string failure;
  bool service_draining = false;
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const core::ServiceDrainingError& e) {
      // The submit raced the solver pool's drain (admitted before the drain,
      // enqueued after): a retryable condition, not a server bug.
      failure = e.what();
      service_draining = true;
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }
  ReportBytes report_json;
  if (!error) {
    // Solve-outcome instruments (relaxed atomics; no lock needed, and kept
    // off the gate on purpose — one bump per completed job, not per waiter).
    solve_wall_->record(report.wall_clock_s);
    if (report.re_swap_proposals)
      re_swap_proposals_->add(report.re_swap_proposals);
    if (report.re_swap_accepts) re_swap_accepts_->add(report.re_swap_accepts);
    if (report.fallback_count) fallback_samples_->add(report.fallback_count);
    if (report.degraded) degraded_reports_->add(1);
    // Rendered once, here on the solver thread: the cache entry, the store
    // value and every waiter's response (render_solve_ok_spliced) are all
    // made from these bytes.
    auto bytes = std::make_shared<std::string>();
    core::append_report_json(*bytes, report);
    report_json = std::move(bytes);
  }

  // Degraded (deadline-truncated) and fallback-containing reports are
  // deliberately never cached: they are request-circumstance artefacts, and
  // a later identical request deserves the full-quality answer. The entry's
  // key and cache flag were fixed before the job was submitted, so they are
  // read here without the gate.
  const bool store_in_cache = entry->store_in_cache;
  const bool cacheable = !error && store_in_cache && !report.degraded &&
                         report.fallback_count == 0;
  std::size_t footprint = 0;
  if (cacheable) {
    footprint = report_footprint(report);
    // The store write runs before the gate is taken, so disk I/O never
    // blocks the loops. A failed write costs the tier-2 copy, not the answer.
    try {
      cache_.persist(entry->key, *report_json);
    } catch (const std::exception&) {
      store_put_failures_->add(1);
    }
  }

  const auto lock = lock_gate();
  const auto it = std::find_if(
      pending_.begin(), pending_.end(),
      [entry](const std::unique_ptr<InFlight>& p) { return p.get() == entry; });
  std::vector<InFlight::Waiter> waiters = std::move(entry->waiters);
  GameKey key = std::move(entry->key);
  pending_.erase(it);  // frees the entry; `entry` is dead past this line

  if (cacheable)
    cache_.insert_bytes(key, report_json, footprint);
  else if (!error && store_in_cache)
    counters_.uncached_reports.fetch_add(1, std::memory_order_relaxed);

  for (InFlight::Waiter& waiter : waiters) {
    Delivery d;
    d.conn_id = waiter.conn_id;
    d.id = std::move(waiter.id);
    d.trace_id = waiter.trace_id;
    if (error) {
      d.kind = Delivery::kError;
      d.code = service_draining ? "draining" : "internal";
      d.message = failure;
      if (service_draining) d.retry_after_s = admission_.options().retry_after_s;
    } else {
      d.kind = Delivery::kFinal;
      d.report_json = report_json;
      d.mapping = std::move(waiter.mapping);
    }
    post(*waiter.loop, std::move(d));
  }
}

// ---- Introspection ----------------------------------------------------------

ServedStats NashServer::served_stats() const {
  ServedStats s;
  s.lines = counters_.lines.load(std::memory_order_relaxed);
  s.solves_ok = counters_.solves_ok.load(std::memory_order_relaxed);
  s.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
  s.coalesced = counters_.coalesced.load(std::memory_order_relaxed);
  s.errors = counters_.errors.load(std::memory_order_relaxed);
  s.jobs_submitted = counters_.jobs_submitted.load(std::memory_order_relaxed);
  s.progress_frames =
      counters_.progress_frames.load(std::memory_order_relaxed);
  s.fair_deferrals = counters_.fair_deferrals.load(std::memory_order_relaxed);
  s.write_stalls = counters_.write_stalls.load(std::memory_order_relaxed);
  s.injected_disconnects =
      counters_.injected_disconnects.load(std::memory_order_relaxed);
  s.overflow_closed =
      counters_.overflow_closed.load(std::memory_order_relaxed);
  s.uncached_reports =
      counters_.uncached_reports.load(std::memory_order_relaxed);
  return s;
}

util::Json NashServer::status_payload() {
  util::Json status = util::Json::object();
  status.set("draining", draining_.load(std::memory_order_relaxed));
  status.set("connections",
             connections_.load(std::memory_order_relaxed));
  {
    const auto lock = lock_gate();
    status.set("pending_solves", pending_.size());
  }
  status.set("serve_threads", loops_.size());
  status.set("queue_limit", admission_.options().max_queue_depth);
  status.set("per_connection_inflight",
             admission_.options().per_connection_inflight);
  const core::SolverService::QueueDepth depth = service_.queue_depth();
  util::Json svc = util::Json::object();
  svc.set("threads", service_.threads());
  svc.set("jobs", depth.jobs);
  svc.set("queued_units", depth.queued_units);
  svc.set("in_flight_units", depth.in_flight_units);
  status.set("service", std::move(svc));
  // Deployment identity: which build is this, with which kernels, for how
  // long — the fields an operator checks before blaming anything else.
  status.set("git_sha", util::build_git_sha());
  status.set("simd_level", simd::level_name(simd::active_level()));
  status.set("store_enabled", store_ != nullptr);
  status.set("uptime_s",
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           started_)
                 .count());
  return status;
}

util::Json NashServer::stats_payload() {
  util::Json stats = util::Json::object();

  {
    const auto lock = lock_gate();
    util::Json cache = util::Json::object();
    const CacheStats& cs = cache_.stats();
    cache.set("hits", cs.hits);
    cache.set("misses", cs.misses);
    cache.set("insertions", cs.insertions);
    cache.set("evictions", cs.evictions);
    cache.set("oversize_rejects", cs.oversize_rejects);
    cache.set("entries", cs.entries);
    cache.set("bytes", cs.bytes);
    cache.set("byte_budget", cs.byte_budget);
    stats.set("cache", std::move(cache));

    util::Json admission = util::Json::object();
    const AdmissionStats& as = admission_.stats();
    admission.set("admitted", as.admitted);
    admission.set("shed_queue_full", as.shed_queue_full);
    admission.set("shed_connection_cap", as.shed_connection_cap);
    admission.set("coalesced", as.coalesced);
    stats.set("admission", std::move(admission));
  }

  // The tier-2 store keeps its own mutex, so its snapshot is taken outside
  // the gate. The object is always present (all-zero when disabled) so
  // dashboards can rely on the schema.
  util::Json store = util::Json::object();
  store.set("enabled", store_ != nullptr);
  const store::StoreStats sts = store_ ? store_->stats() : store::StoreStats{};
  store.set("hits", sts.hits);
  store.set("misses", sts.misses);
  store.set("appends", sts.appends);
  store.set("tombstones", sts.tombstones);
  store.set("evictions", sts.evictions);
  store.set("oversize_rejects", sts.oversize_rejects);
  store.set("compactions", sts.compactions);
  store.set("entries", sts.entries);
  store.set("segments", sts.segments);
  store.set("live_raw_bytes", sts.live_raw_bytes);
  store.set("live_value_bytes", sts.live_value_bytes);
  store.set("live_stored_bytes", sts.live_stored_bytes);
  store.set("dead_stored_bytes", sts.dead_stored_bytes);
  store.set("compressed_records", sts.compressed_records);
  store.set("stored_records", sts.stored_records);
  store.set("corrupt_records_skipped", sts.corrupt_records_skipped);
  store.set("torn_tail_truncations", sts.torn_tail_truncations);
  store.set("byte_budget", sts.byte_budget);
  store.set("compression_ratio", sts.compression_ratio());
  stats.set("store", std::move(store));

  const ServedStats ss = served_stats();
  util::Json served = util::Json::object();
  served.set("lines", ss.lines);
  served.set("solves_ok", ss.solves_ok);
  served.set("cache_hits", ss.cache_hits);
  served.set("coalesced", ss.coalesced);
  served.set("errors", ss.errors);
  served.set("jobs_submitted", ss.jobs_submitted);
  served.set("progress_frames", ss.progress_frames);
  served.set("fair_deferrals", ss.fair_deferrals);
  served.set("write_stalls", ss.write_stalls);
  served.set("injected_disconnects", ss.injected_disconnects);
  served.set("overflow_closed", ss.overflow_closed);
  served.set("uncached_reports", ss.uncached_reports);
  stats.set("served", std::move(served));
  return stats;
}

}  // namespace cnash::serve
