// serve-mix: an in-process NashServer (2 event loops, 2 solver workers)
// driven closed-loop by one client thread over 4 connections, each with at
// most one request outstanding — the shape of gateway callers that each wait
// for their reply.
//
// The gateway has a tier-2 store and a RAM budget below the working set; two
// of the connections use binary framing, and ~20 % of requests are fresh
// solves. Repeats take the warm path (parse, canonicalize, lookup, remap,
// render, flush) or fall through to store reads and promotions, while misses
// run admit -> queue -> solve -> render -> cache insert -> store append.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <numeric>
#include <thread>

#include "core/report_json.hpp"
#include "game/random_games.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace repobench {

namespace cc = cnash::core;
namespace cg = cnash::game;
namespace sv = cnash::serve;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kBinaryConnections = 2;
constexpr std::size_t kEventLoops = 2;
constexpr std::size_t kSolverWorkers = 2;
// Originals per request class. Whether a game's equilibria lie on the
// strategy grid varies from game to game, so success_rate needs hundreds of
// games before it stops moving with the seed.
constexpr std::size_t kPerClass = 160;
constexpr std::size_t kSetupReps = 3;     // set-ups per run (setup_s median)
constexpr double kFreshShare = 0.2;       // fresh-solve share of requests
constexpr double kRamBudgetShare = 0.3;   // RAM budget / working set
constexpr std::size_t kFreshChecked = 48;  // fresh responses re-solved locally
constexpr std::size_t kFreshCheckStride = 16;  // ... taken from every 16th
constexpr std::size_t kFreshIdBase = 1000000;  // wire ids of fresh solves

/// bench_serve_throughput's five request classes.
struct RequestClass {
  const char* backend;
  std::size_t actions;
  std::size_t runs;
  std::size_t iterations;
};
constexpr RequestClass kClasses[] = {
    {"exact-sa", 2, 8, 400},
    {"exact-sa", 16, 4, 400},
    {"lemke-howson", 12, 1, 0},
    {"hardware-sa", 4, 4, 300},
    {"hardware-sa-tiled", 8, 2, 300},
};

cc::SolveRequest class_request(const RequestClass& cls, cnash::util::Rng& rng) {
  // Hardware backends want integer-codeable payoffs; the software backends
  // get covariant games.
  const bool hw = std::string(cls.backend).rfind("hardware", 0) == 0;
  cc::SolveRequest r(
      hw ? cg::random_integer_game(cls.actions, cls.actions, rng)
         : cg::random_covariant_game(cls.actions, cls.actions, 0.0, rng));
  r.backend = cls.backend;
  r.runs = cls.runs;
  r.sa.iterations = cls.iterations;
  r.seed = rng() >> 12;
  return r;
}

/// The same solve with the actions of both players relabelled.
cc::SolveRequest permuted(const cc::SolveRequest& r, cnash::util::Rng& rng) {
  const auto& m = r.game.payoff1();
  const auto& n = r.game.payoff2();
  std::vector<std::size_t> rp(m.rows()), cp(m.cols());
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  for (std::size_t i = rp.size(); i > 1; --i)
    std::swap(rp[i - 1], rp[rng.uniform_index(i)]);
  for (std::size_t i = cp.size(); i > 1; --i)
    std::swap(cp[i - 1], cp[rng.uniform_index(i)]);
  cnash::la::Matrix pm(m.rows(), m.cols()), pn(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) {
      pm(i, j) = m(rp[i], cp[j]);
      pn(i, j) = n(rp[i], cp[j]);
    }
  cc::SolveRequest out = r;
  out.game = cg::BimatrixGame(std::move(pm), std::move(pn), r.game.name());
  return out;
}

/// Byte equality of two responses except for the value of "cached". Runs on
/// the client thread for every timed response, so it compares in place
/// instead of building masked copies as mask_field() does.
bool equal_except_cached(std::string_view a, std::string_view b) {
  constexpr std::string_view key = "\"cached\":";
  const std::size_t ia = a.find(key), ib = b.find(key);
  if (ia == std::string_view::npos || ia != ib) return a == b;
  if (a.substr(0, ia) != b.substr(0, ib)) return false;
  auto skip = [](std::string_view s, std::size_t at) {
    while (at < s.size() && s[at] != ',' && s[at] != '}') ++at;
    return at;
  };
  return a.substr(skip(a, ia + key.size())) ==
         b.substr(skip(b, ib + key.size()));
}

bool is_ok(std::string_view response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// Samples in a solve response: one "is_nash" field per sample.
std::size_t count_samples(std::string_view response) {
  std::size_t n = 0;
  for (std::size_t at = response.find("\"is_nash\":");
       at != std::string_view::npos; at = response.find("\"is_nash\":", at + 1))
    ++n;
  return n;
}

// ---- Closed-loop client ------------------------------------------------------

/// One client connection; at most one request outstanding.
struct Conn {
  int fd = -1;
  bool binary = false;
  std::string in;
  bool busy = false;
  std::size_t item = 0;
  Clock::time_point sent;
  cnash::obs::Span span;
};

class Client {
 public:
  Client(std::uint16_t port, std::size_t binary_conns) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      Conn conn;
      conn.binary = c >= kConnections - binary_conns;
      conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      const bool connected =
          conn.fd >= 0 &&
          ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0;
      conns_.push_back(std::move(conn));
      if (!connected) {
        const std::string why = std::strerror(errno);
        close_all();
        throw std::runtime_error("connect: " + why);
      }
      const int one = 1;
      ::setsockopt(conns_.back().fd, IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof one);
    }
  }
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// `next(item, body)` yields the next request (false = none left);
  /// `done(item, response, latency_s)` receives each response. Returns false
  /// when a connection was lost.
  bool run(const std::function<bool(std::size_t&, const std::string*&)>& next,
           const std::function<void(std::size_t, std::string&&, double)>& done,
           Tracer* tracer) {
    std::vector<pollfd> fds(conns_.size());
    std::string wire, response;
    for (;;) {
      std::size_t busy = 0;
      for (Conn& c : conns_) {
        if (!c.busy) {
          const std::string* body = nullptr;
          if (next(c.item, body)) {
            wire.clear();
            if (c.binary) {
              sv::encode_frame(sv::kFrameSolve, *body, wire);
            } else {
              wire = *body;
              wire += '\n';
            }
            if (tracer) c.span = tracer->span("client.request", tracer->new_id());
            c.sent = Clock::now();
            if (!send_all(c.fd, wire)) return false;
            c.busy = true;
          }
        }
        busy += c.busy;
      }
      if (busy == 0) return true;
      for (std::size_t i = 0; i < conns_.size(); ++i)
        fds[i] = {conns_[i].busy ? conns_[i].fd : -1, POLLIN, 0};
      if (::poll(fds.data(), fds.size(), 10000) <= 0) return false;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Conn& c = conns_[i];
        char chunk[65536];
        const ssize_t got = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (got <= 0) return false;
        c.in.append(chunk, static_cast<std::size_t>(got));
        if (!extract(c, response)) continue;
        const double latency = seconds_between(c.sent, Clock::now());
        c.span.finish();
        c.busy = false;
        done(c.item, std::move(response), latency);
      }
    }
  }

 private:
  void close_all() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    conns_.clear();
  }
  static bool send_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// One complete response body (without framing) from the buffer.
  static bool extract(Conn& c, std::string& out) {
    if (!c.binary) {
      const std::size_t nl = c.in.find('\n');
      if (nl == std::string::npos) return false;
      out.assign(c.in, 0, nl);
      c.in.erase(0, nl + 1);
      return true;
    }
    // Throws serve::ProtocolError on a malformed header.
    const std::optional<sv::FrameHeader> h =
        sv::peek_frame(c.in, std::numeric_limits<std::uint32_t>::max());
    if (!h || c.in.size() < sv::kFrameHeaderSize + h->length) return false;
    out.assign(c.in, sv::kFrameHeaderSize, h->length);
    c.in.erase(0, sv::kFrameHeaderSize + h->length);
    return true;
  }

  std::vector<Conn> conns_;
};

/// An in-process gateway on an ephemeral port with its run() thread.
class Gateway {
 public:
  explicit Gateway(const sv::ServeOptions& o) : server_(o) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~Gateway() { stop(); }
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;
  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  sv::NashServer& server() { return server_; }

 private:
  sv::NashServer server_;
  std::thread thread_;
};

/// Primes the working set through `client` (originals first, then the
/// relabelled copies) and returns one response per item.
std::vector<std::string> prime(Client& client, const std::vector<std::string>& set,
                               std::size_t originals, bool& lost) {
  std::vector<std::string> responses(set.size());
  for (const auto& [lo, hi] :
       {std::pair{std::size_t{0}, originals}, std::pair{originals, set.size()}}) {
    std::size_t next_i = lo;
    lost |= !client.run(
        [&](std::size_t& item, const std::string*& body) {
          if (next_i >= hi) return false;
          item = next_i++;
          body = &set[item];
          return true;
        },
        [&](std::size_t item, std::string&& resp, double) {
          responses[item] = std::move(resp);
        },
        nullptr);
  }
  return responses;
}

double hist_q(const cnash::util::Json& hists, const std::string& name,
              const char* field) {
  const cnash::util::Json* h = hists.find(name);
  if (!h) return 0.0;
  const cnash::util::Json* v = h->find(field);
  return v && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace

PassResult run_serve_mix(const Options& opts, Tracer tracer, Checks& checks,
                         ProbeInputs* probe_inputs) {
  const std::string wl = "serve-mix";
  PassResult out;

  // ---- Seeded inputs ----------------------------------------------------------
  cnash::util::Rng rng(derive_seed(opts.seed, wl + "/working-set"));
  std::vector<cc::SolveRequest> requests;
  std::vector<std::string> set;  // request bodies; the id is the index
  for (const RequestClass& cls : kClasses)
    for (std::size_t i = 0; i < kPerClass; ++i) {
      requests.push_back(class_request(cls, rng));
      set.push_back(wire_body(requests.back(), set.size()));
    }
  const std::size_t originals = set.size();
  for (std::size_t i = 0; i < originals; i += 4) {
    requests.push_back(permuted(requests[i], rng));
    set.push_back(wire_body(requests.back(), set.size()));
  }
  // Canonicalization must send every relabelled copy to its original's key.
  std::vector<bool> is_permuted(set.size(), false);
  {
    std::vector<sv::GameKey> keys;
    for (const cc::SolveRequest& r : requests)
      keys.push_back(sv::canonicalize(r).key);
    for (std::size_t i = originals; i < set.size(); ++i) {
      const std::size_t orig = (i - originals) * 4;
      checks.expect(keys[i] == keys[orig],
                    "relabelled body " + std::to_string(i) +
                        " does not canonicalize to its original's key");
      // A draw of identity permutations leaves the game as it was.
      is_permuted[i] =
          !(requests[i].game.payoff1() == requests[orig].game.payoff1() &&
            requests[i].game.payoff2() == requests[orig].game.payoff2());
    }
  }
  // Fresh solves: same classes, new seeded games, generated ahead of the
  // timed phase (the pool is sized above the expected count).
  std::vector<std::string> fresh;
  std::size_t fresh_used = 0;
  cnash::util::Rng fresh_rng(derive_seed(opts.seed, wl + "/fresh"));
  auto add_fresh = [&] {
    const RequestClass& cls =
        kClasses[fresh_rng.uniform_index(std::size(kClasses))];
    fresh.push_back(wire_body(class_request(cls, fresh_rng),
                              kFreshIdBase + fresh.size()));
  };
  while (fresh.size() < static_cast<std::size_t>(opts.seconds * 1000.0))
    add_fresh();

  // ---- Set-ups and timed segments ---------------------------------------------
  // The gateway is set up kSetupReps times (setup_s is their median) and the
  // timed windows are split over the last set-ups' gateways, so one run's
  // figures span several thread placements on the host.
  const double window = std::min(1.0, opts.seconds);
  const auto windows_total = std::max<std::size_t>(
      1, static_cast<std::size_t>(opts.seconds / window + 0.5));
  const std::size_t segments = std::min(kSetupReps, windows_total);
  const fs::path tmp = fs::path(opts.out_dir) / "tmp" /
                       (wl + "-" + std::to_string(::getpid()) +
                        (tracer.recorder ? "-traced" : ""));
  fs::remove_all(tmp);
  sv::ServeOptions so;
  so.serve_threads = kEventLoops;
  so.service_threads = kSolverWorkers;
  // Admission never sheds here: 4 connections hold at most 4 requests.
  so.admission.max_queue_depth = 1024;
  so.admission.per_connection_inflight = 64;

  std::vector<double> setup_s, peak_rss, w_rps, w_sps;
  std::vector<double> latencies;  // every timed response, all windows pooled
  std::vector<std::string> first_recorded;
  std::vector<std::size_t> samples_of(set.size(), 0);
  std::size_t ws_samples = 0, ws_nash = 0, hw_samples = 0, hw_nash = 0;
  double hw_model = 0.0;
  cnash::util::Rng order_rng(derive_seed(opts.seed, wl + "/order"));
  std::size_t sent = 0, answered = 0, errors = 0, mismatches = 0, repeats = 0,
              permuted_n = 0, fresh_served = 0;
  // Every kFreshCheckStride-th fresh response is kept for the local re-solve.
  std::vector<std::pair<std::size_t, std::string>> fresh_kept;
  // Gateway counters summed over the timed segments.
  std::size_t ram_hits = 0, ram_misses = 0, store_hits = 0, store_misses = 0,
              store_appends = 0, jobs_timed = 0, coalesced = 0, shed = 0,
              fair_deferrals = 0;
  // The last gateway's registry and lifetime, for the per-layer metrics.
  cnash::util::Json registry;
  double gw_life = 0.0;
  std::size_t gw_spans = 0, gw_dropped = 0;
  const std::string gateway_trace = opts.out_dir + "/traces/" + wl + "-seed" +
                                    std::to_string(opts.seed) +
                                    "-gateway.json";

  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    reset_peak_rss();
    Clock::time_point t0 = Clock::now();
    double setup = 0.0;  // the fill instance's share
    sv::ServeOptions o = so;
    if (tracer.recorder && last) o.trace_out = gateway_trace;
    std::vector<std::string> recorded;
    bool lost = false;
    std::unique_ptr<Gateway> gw;
    std::unique_ptr<Client> client;
    Clock::time_point gw_boot = t0;
    o.store_dir = (tmp / ("store-" + std::to_string(rep))).string();
    {
      sv::ServeOptions fill_options = o;
      fill_options.trace_out.clear();
      Gateway fill(fill_options);
      Client c(fill.server().port(), kBinaryConnections);
      recorded = prime(c, set, originals, lost);
    }
    setup = seconds_between(t0, Clock::now());
    // RAM budget below the working set's footprint, so most repeats fall
    // through to the store. Computed off the set-up clock.
    std::size_t footprint = 0;
    for (const std::string& r : recorded)
      if (is_ok(r))
        footprint += sv::report_footprint(
            cc::report_from_json(cnash::util::Json::parse(r).at("report")));
    o.cache_bytes = static_cast<std::size_t>(kRamBudgetShare *
                                             static_cast<double>(footprint));
    t0 = gw_boot = Clock::now();
    gw = std::make_unique<Gateway>(o);  // reopens the store: log replay
    client = std::make_unique<Client>(gw->server().port(), kBinaryConnections);
    if (last)
      out.notes.push_back(wl + ": RAM cache budget " +
                          std::to_string(o.cache_bytes) + " B = " +
                          std::to_string(kRamBudgetShare) +
                          " x working-set footprint " +
                          std::to_string(footprint) + " B");
    setup_s.push_back(setup + seconds_between(t0, Clock::now()));
    if (lost) {
      checks.fail(wl + ": connection lost during set-up");
      return out;
    }
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      checks.expect(is_ok(recorded[i]),
                    wl + ": set-up response " + std::to_string(i) + " failed");
      if (rep > 0)
        checks.expect(mask_field(recorded[i], "wall_clock_s") ==
                          mask_field(first_recorded[i], "wall_clock_s"),
                      wl + ": set-up response " + std::to_string(i) +
                          " differs between set-ups");
    }
    if (rep == 0) {
      // Solve statistics of the working set (deterministic per seed).
      for (std::size_t i = 0; i < set.size(); ++i) {
        if (!is_ok(recorded[i])) continue;
        const cc::SolveReport r = cc::report_from_json(
            cnash::util::Json::parse(recorded[i]).at("report"));
        samples_of[i] = r.samples.size();
        out.digests.emplace_back(wl + "/" + std::to_string(i),
                                 fnv1a(mask_field(recorded[i], "wall_clock_s")));
        if (i >= originals) continue;
        ws_samples += r.samples.size();
        ws_nash += r.nash_count;
        if (r.backend == "hardware-sa") {
          hw_samples += r.samples.size();
          hw_nash += r.nash_count;
          hw_model += r.modeled_time_s;
        }
      }
      first_recorded = recorded;
    }
    if (rep + segments < kSetupReps) continue;  // set-up only

    // ---- Timed segment -------------------------------------------------------
    const std::size_t seg = rep + segments - kSetupReps;
    const std::size_t seg_windows =
        windows_total / segments + (seg < windows_total % segments ? 1 : 0);
    sv::NashServer& server = gw->server();
    const sv::ServedStats s0 = server.served_stats();
    const sv::CacheStats c0 = server.cache_stats();
    const sv::AdmissionStats a0 = server.admission_stats();
    const cnash::store::StoreStats st0 = server.store()->stats();
    Tracer client_tracer{tracer.recorder ? &server.trace_recorder() : nullptr};
    // Per-window responses and delivered samples.
    std::vector<double> win_resp(seg_windows, 0.0), win_samples(seg_windows, 0.0);
    std::size_t seg_sent = 0, seg_answered = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        window * static_cast<double>(seg_windows)));
    const bool ok_run = client->run(
        [&](std::size_t& item, const std::string*& body) {
          if (Clock::now() >= deadline) return false;
          ++seg_sent;
          if (order_rng.uniform() < kFreshShare) {
            if (fresh_used == fresh.size()) add_fresh();  // pool exhausted
            item = set.size() + fresh_used;
            body = &fresh[fresh_used++];
            return true;
          }
          item = order_rng.uniform_index(set.size());
          body = &set[item];
          return true;
        },
        [&](std::size_t item, std::string&& resp, double latency) {
          ++seg_answered;
          std::size_t samples = 0;
          if (!is_ok(resp)) {
            ++errors;
          } else if (item >= set.size()) {
            ++fresh_served;
            samples = count_samples(resp);
            const std::size_t k = item - set.size();
            if (k % kFreshCheckStride == 0 && fresh_kept.size() < kFreshChecked)
              fresh_kept.emplace_back(k, std::move(resp));
          } else {
            ++repeats;
            permuted_n += is_permuted[item];
            samples = samples_of[item];
            if (!equal_except_cached(resp, recorded[item])) ++mismatches;
          }
          // Responses completing after the segment's last full window (the
          // drain of in-flight requests) count for checks only.
          const auto w = static_cast<std::size_t>(
              seconds_between(start, Clock::now()) / window);
          if (w < seg_windows) {
            latencies.push_back(latency);
            win_resp[w] += 1.0;
            win_samples[w] += static_cast<double>(samples);
          }
        },
        tracer.recorder ? &client_tracer : nullptr);
    const Clock::time_point end = Clock::now();
    peak_rss.push_back(peak_rss_mib());
    if (!ok_run) {
      checks.fail(wl + ": connection lost during the timed phase");
      out.failed += 1;
    }
    sent += seg_sent;
    answered += seg_answered;
    for (std::size_t w = 0; w < seg_windows; ++w) {
      w_rps.push_back(win_resp[w] / window);
      w_sps.push_back(win_samples[w] / window);
    }
    const sv::ServedStats s1 = server.served_stats();
    const sv::CacheStats c1 = server.cache_stats();
    const sv::AdmissionStats a1 = server.admission_stats();
    const cnash::store::StoreStats st1 = server.store()->stats();
    ram_hits += c1.hits - c0.hits;
    ram_misses += c1.misses - c0.misses;
    store_hits += st1.hits - st0.hits;
    store_misses += st1.misses - st0.misses;
    store_appends += st1.appends - st0.appends;
    jobs_timed += s1.jobs_submitted - s0.jobs_submitted;
    coalesced += s1.coalesced - s0.coalesced;
    fair_deferrals += s1.fair_deferrals - s0.fair_deferrals;
    shed += (a1.shed_queue_full - a0.shed_queue_full) +
            (a1.shed_connection_cap - a0.shed_connection_cap);
    if (last) {
      registry = server.metrics_registry().to_json();
      gw_life = seconds_between(gw_boot, end);
      gw_spans = server.trace_recorder().event_count();
      gw_dropped = server.trace_recorder().dropped();
    }
    client.reset();
    gw->stop();
  }

  // ---- Output checks, off the timed path ---------------------------------------
  checks.expect(answered == sent, wl + ": " + std::to_string(sent - answered) +
                                      " requests got no response");
  checks.expect(mismatches == 0, wl + ": " + std::to_string(mismatches) +
                                     " responses differ from the response "
                                     "recorded at set-up");
  checks.expect(shed == 0, wl + ": the gateway shed load");
  {
    // The kept fresh solves are re-solved locally; each response must match
    // byte for byte apart from the cached flag and the wall clock.
    const cc::SolverRegistry& solvers = cc::SolverRegistry::global();
    for (const auto& [k, resp] : fresh_kept) {
      sv::CanonicalRequest cr =
          sv::canonicalize(*sv::parse_request(fresh[k]).solve);
      cc::SolveReport report = sv::map_to_original(
          cr.mapping, solvers.at(cr.request.backend).solve(cr.request));
      std::string expected;
      sv::render_solve_ok_body(
          expected,
          cnash::util::Json::number(static_cast<double>(kFreshIdBase + k)),
          false, report);
      checks.expect(mask_field(mask_field(resp, "cached"), "wall_clock_s") ==
                        mask_field(mask_field(expected, "cached"),
                                   "wall_clock_s"),
                    wl + ": fresh solve " + std::to_string(k) +
                        " differs from a local solve of the same request");
    }
  }

  // ---- Metrics -----------------------------------------------------------------
  // Throughputs are the median one-second window; latencies are quantiles of
  // every timed response of the run.
  std::sort(latencies.begin(), latencies.end());
  out.attempted = sent;
  out.failed += errors + (sent - answered);
  const double success =
      ws_samples ? static_cast<double>(ws_nash) / static_cast<double>(ws_samples)
                 : 0.0;
  const double hw_success =
      hw_samples ? static_cast<double>(hw_nash) / static_cast<double>(hw_samples)
                 : 0.0;
  out.e2e.set("setup_s", median(setup_s), "s");
  out.e2e.set("req_per_s", median(w_rps), "1/s");
  out.e2e.set("latency_p50_s", sorted_quantile(latencies, 0.50), "s");
  out.e2e.set("latency_p99_s", sorted_quantile(latencies, 0.99), "s");
  out.e2e.set("samples_per_s", median(w_sps), "1/s");
  out.e2e.set("tts99_s", tts99(1.0 / median(w_sps), success), "s");
  out.e2e.set("success_rate", success, "ratio");
  out.peak_rss_mb = median(peak_rss);
  out.model_tts99_s =
      tts99(hw_model / static_cast<double>(hw_samples), hw_success);
  out.timed_units = static_cast<double>(latencies.size());
  out.timed_wall_s = window * static_cast<double>(w_rps.size());

  const double n_resp = static_cast<double>(std::max<std::size_t>(1, answered));
  char line[640];
  std::snprintf(line, sizeof line,
                "%s: %zu loops, %zu solver workers, %zu connections (%zu "
                "binary), 1 client thread, closed loop; working set %zu "
                "bodies (%zu relabelled); %zu timed requests over %zu "
                "gateways, %zu latency samples in %zu windows; shares: repeat "
                "%.4f, permuted %.4f, RAM hit %.4f, store hit %.4f, fresh "
                "solve %.4f",
                wl.c_str(), kEventLoops, kSolverWorkers, kConnections,
                kBinaryConnections, set.size(),
                set.size() - originals, sent, segments, latencies.size(),
                w_rps.size(), static_cast<double>(repeats) / n_resp,
                static_cast<double>(permuted_n) / n_resp,
                static_cast<double>(ram_hits) / n_resp,
                static_cast<double>(store_hits) / n_resp,
                static_cast<double>(fresh_served) / n_resp);
  out.notes.push_back(line);

  Metrics& L = out.layers;
  const cnash::util::Json& h = registry.at("histograms");
  for (const auto& [name, q] : std::initializer_list<std::pair<const char*, const char*>>{
           {"cnash_stage_parse_seconds", "p50"},
           {"cnash_stage_canonicalize_seconds", "p50"},
           {"cnash_stage_cache_lookup_seconds", "p50"},
           {"cnash_stage_cache_lookup_seconds", "p99"},
           {"cnash_stage_admit_seconds", "p50"},
           {"cnash_stage_queue_wait_seconds", "p50"},
           {"cnash_stage_queue_wait_seconds", "p99"},
           {"cnash_stage_unit_seconds", "p50"},
           {"cnash_stage_render_seconds", "p50"},
           {"cnash_stage_flush_seconds", "p50"},
           {"cnash_request_handle_seconds", "p50"},
           {"cnash_request_handle_seconds", "p99"}})
    L.set(std::string(name) + "." + q, hist_q(h, name, q), "s");
  const double ms = 1e3;
  L.set("core.service.queue_wait_ms.p50",
        ms * hist_q(h, "cnash_stage_queue_wait_seconds", "p50"), "ms");
  L.set("core.service.queue_wait_ms.p99",
        ms * hist_q(h, "cnash_stage_queue_wait_seconds", "p99"), "ms");
  L.set("core.service.unit_ms.p50",
        ms * hist_q(h, "cnash_stage_unit_seconds", "p50"), "ms");
  L.set("core.service.unit_ms.p99",
        ms * hist_q(h, "cnash_stage_unit_seconds", "p99"), "ms");
  L.set("core.service.prepare_ms.p50",
        ms * hist_q(h, "cnash_stage_prepare_seconds", "p50"), "ms");
  L.set("core.service.busy_share",
        (hist_q(h, "cnash_stage_prepare_seconds", "sum") +
         hist_q(h, "cnash_stage_unit_seconds", "sum")) /
            (gw_life * static_cast<double>(kSolverWorkers)),
        "ratio");
  L.set("core.service.units", hist_q(h, "cnash_stage_unit_seconds", "count"),
        "count");
  L.set("serve.ram_hit_ratio",
        ram_hits + ram_misses ? static_cast<double>(ram_hits) /
                                    static_cast<double>(ram_hits + ram_misses)
                              : 0.0,
        "ratio");
  L.set("serve.permuted_share", static_cast<double>(permuted_n) / n_resp,
        "ratio");
  L.set("serve.coalesced_share", static_cast<double>(coalesced) / n_resp,
        "ratio");
  L.set("serve.jobs_submitted", static_cast<double>(jobs_timed), "count");
  L.set("serve.shed", static_cast<double>(shed), "count");
  L.set("serve.fair_deferrals", static_cast<double>(fair_deferrals), "count");
  L.set("mix.repeat_share", static_cast<double>(repeats) / n_resp, "ratio");
  L.set("mix.store_hit_share", static_cast<double>(store_hits) / n_resp,
        "ratio");
  L.set("mix.fresh_share", static_cast<double>(fresh_served) / n_resp,
        "ratio");
  L.set("store.hit_ratio",
        static_cast<double>(store_hits) /
            static_cast<double>(std::max<std::size_t>(
                1, store_hits + store_misses)),
        "ratio");
  L.set("store.appends", static_cast<double>(store_appends), "count");
  if (tracer.recorder)
    out.notes.push_back("gateway trace: " + gateway_trace + " (" +
                        std::to_string(gw_spans) + " spans, " +
                        std::to_string(gw_dropped) + " dropped)");

  if (probe_inputs) {
    for (std::size_t i = 0; i < set.size(); ++i)
      if (is_ok(first_recorded[i])) {
        probe_inputs->bodies.push_back(set[i]);
        probe_inputs->responses.push_back(first_recorded[i]);
      }
    probe_inputs->store_dir =
        (tmp / ("store-" + std::to_string(kSetupReps - 1))).string();
  } else {
    fs::remove_all(tmp);
  }
  return out;
}

}  // namespace repobench
