// cluster::Router — the scene-affine front-end of a sharded render fleet.
//
// A net::FrameServer accepts ordinary gaurast wire clients; every render
// request is routed by its scene key through HostDb's rendezvous hash and
// forwarded to the owning shard over a pooled net::Client, so a scene's
// scene-store affinity lands on exactly one worker. Per shard the
// router keeps a fixed crew of forwarder threads (the in-flight bound) plus
// a small waiting queue; when both are full the router sheds with
// kOverloaded — the same admission-control contract the shards themselves
// use, and a shard's own kOverloaded/kServerError responses pass through
// untouched. A transport failure against a shard reports into the health
// state machine and — under the RetryPolicy's attempt budget — fails the
// request over to the scene's next shard in HRW order (connect failures
// immediately, timeouts after a jittered backoff); when the budget is
// spent or no shard is routable the client gets an explicit
// kFleetUnavailable response — bounded errors, never a hang.
//
// Deadlines: a request's wire deadline_ms (or RouterConfig's default) is
// pinned as an absolute deadline at admission. Expiry is checked at every
// hand-off — admission, each (re-)route, each forwarder pop — and an
// expired request is answered kDeadlineExceeded instead of forwarded.
// Before each forward the wire deadline_ms is rewritten to the REMAINING
// budget and the per-hop client timeout is derated to match, so a shard
// never renders for a client that stopped waiting and a slow hop cannot
// eat the budget of the failover that follows it.
//
// Health: a prober thread issues periodic HTTP /healthz probes against
// every shard (dead ones included — that is the recovery path), feeding the
// same report_success/report_failure inputs as the forwarders.
//
// Stats: kStatsRequest frames and GET /stats answer with the merged
// gaurast-fleet-stats/v1 document (per-shard serve stats + router
// counters); GET /healthz answers a cheap local health summary without
// touching the shards.
//
// Threading: connection state lives on the FrameServer loop thread; routing
// decisions happen there too (the HostDb walk is cheap). Forwarder, stats,
// and prober threads never touch a connection — results re-enter the loop
// via FrameServer::post_deliver.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>  // lint-invariants: allow(raw-concurrency)
#include <vector>

#include "cluster/fleet_stats.hpp"
#include "cluster/host_db.hpp"
#include "cluster/retry_policy.hpp"
#include "common/mutex.hpp"
#include "common/sample_ring.hpp"
#include "common/thread_annotations.hpp"
#include "net/client.hpp"
#include "net/frame_server.hpp"

namespace gaurast::cluster {

struct RouterConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Router::port() reports the actual one.
  int port = 0;
  int idle_timeout_ms = 30000;
  int drain_timeout_ms = 5000;
  int backlog = 64;
  /// Forwarder threads per shard — the bound on concurrently forwarded
  /// requests per shard.
  int inflight_per_shard = 2;
  /// Waiting room per shard beyond the in-flight bound; when full the
  /// router sheds the request with kOverloaded.
  int queue_per_shard = 8;
  /// Dial bound for forwarder connections (a black-holed shard must fail
  /// over quickly, not stall a forwarder).
  int connect_timeout_ms = 2000;
  /// Send/recv bound per forwarded request.
  int forward_timeout_ms = 30000;
  int probe_interval_ms = 1000;
  int probe_timeout_ms = 500;
  /// Per-shard bound when assembling a fleet stats report.
  int stats_timeout_ms = 2000;
  /// Deadline budget (ms) applied to requests that carry none (wire
  /// deadline_ms == 0). 0 = no default: undeadlined requests forward
  /// unconditionally. Requests with their own budget keep it.
  int default_deadline_ms = 0;
  /// Retry budget and backoff for failed forwards.
  RetryPolicyConfig retry;
};

class Router : private net::FrameHandler {
 public:
  /// The HostDb must outlive the router. start() is not implicit.
  Router(HostDb& db, RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void start();
  /// Graceful shutdown: stops accepting, finishes every admitted forward
  /// (or fails it over / reports it unavailable), flushes connections,
  /// joins every thread. Idempotent.
  void stop();

  /// The bound port (resolves ephemeral binds). Valid after start().
  int port() const { return front_.port(); }
  const RouterConfig& config() const { return config_; }

  /// Assembles the merged gaurast-fleet-stats/v1 document now: polls every
  /// non-dead shard (bounded by stats_timeout_ms each) and merges with the
  /// router's counters. Blocking — call from any thread except the loop
  /// thread (the stats worker and the CLI both use it).
  std::string fleet_stats_json();

  /// Snapshot of the router-level counters and samples.
  RouterStatsSnapshot stats_snapshot() const GAURAST_EXCLUDES(stats_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  /// One routed render request, loop-thread-owned between forward attempts.
  struct Job {
    std::uint64_t conn_id = 0;
    net::RenderRequest wire;
    Clock::time_point admitted;
    /// Absolute deadline pinned at admission (wire deadline_ms or the
    /// router default, relative to receipt); nullopt = no deadline.
    std::optional<Clock::time_point> deadline;
    /// Failed forward attempts so far — the RetryPolicy's budget input.
    int failures = 0;
    /// Shards already tried (failed forwards) — the failover walk excludes
    /// them so a flapping fleet cannot loop a request forever.
    std::set<std::size_t> tried;
  };

  /// Per-shard forward channel: a bounded queue drained by the shard's
  /// forwarder crew. Each forwarder owns one pooled net::Client.
  struct Shard {
    explicit Shard(std::size_t index) : index(index) {}
    const std::size_t index;
    common::Mutex mutex;
    common::CondVar cv;
    std::deque<Job> queue GAURAST_GUARDED_BY(mutex);
    bool closed GAURAST_GUARDED_BY(mutex) = false;
    // Long-lived forwarder crew; joined in stop()'s drain hook.
    std::vector<std::thread> forwarders;  // lint-invariants: allow(raw-concurrency)
  };

  /// One deferred stats request (wire frame or HTTP GET).
  struct StatsJob {
    std::uint64_t conn_id = 0;
    bool http = false;
  };

  // FrameHandler (loop thread).
  void on_frame(std::uint64_t conn_id, const net::FrameHeader& header,
                const std::uint8_t* payload) override;
  void on_http_get(std::uint64_t conn_id, const std::string& target) override;

  /// Routes (or re-routes, after a failover) one job. Loop thread.
  void route(Job job);
  void finish_unavailable(Job job);
  /// Answers kDeadlineExceeded for an expired job. `on_loop` as for
  /// deliver_error.
  void finish_deadline_exceeded(Job job, bool on_loop);
  /// Milliseconds left before the job's deadline; nullopt when it has
  /// none. Clamped at 0.
  static std::optional<std::int64_t> remaining_ms(const Job& job);

  // Worker bodies.
  void forwarder_main(Shard& shard);
  void stats_main();
  void prober_main();

  /// One forward attempt against `shard` using the forwarder's pooled
  /// client. Returns nullopt when a response was delivered (any status);
  /// otherwise the failure classification (health already reported) — the
  /// caller consults the RetryPolicy and fails over. A shard kOverloaded
  /// answer comes back as FailureKind::kOverloaded (undelivered) only when
  /// the retry budget and an untried shard both remain; otherwise it is
  /// delivered as-is.
  std::optional<FailureKind> forward(Shard& shard,
                                     std::unique_ptr<net::Client>& client,
                                     Job& job);

  void deliver_error(std::uint64_t conn_id, std::uint64_t request_id,
                     net::RenderStatus status, const std::string& message,
                     bool on_loop);

  HostDb& db_;
  RouterConfig config_;
  RetryPolicy retry_policy_;
  net::FrameServer front_;

  std::vector<std::unique_ptr<Shard>> shards_;

  common::Mutex stats_queue_mutex_;
  common::CondVar stats_cv_;
  std::deque<StatsJob> stats_queue_ GAURAST_GUARDED_BY(stats_queue_mutex_);
  bool stats_closed_ GAURAST_GUARDED_BY(stats_queue_mutex_) = false;
  std::thread stats_thread_;  // lint-invariants: allow(raw-concurrency)

  common::Mutex prober_mutex_;
  common::CondVar prober_cv_;
  bool prober_stop_ GAURAST_GUARDED_BY(prober_mutex_) = false;
  std::thread prober_thread_;  // lint-invariants: allow(raw-concurrency)

  mutable common::Mutex stats_mutex_;
  /// Counters only; the sample vectors come from the rings below.
  RouterStatsSnapshot counters_ GAURAST_GUARDED_BY(stats_mutex_);
  common::SampleRing latency_ms_ GAURAST_GUARDED_BY(stats_mutex_);
  common::SampleRing route_overhead_ms_ GAURAST_GUARDED_BY(stats_mutex_);

  common::Mutex state_mutex_;
  bool running_ GAURAST_GUARDED_BY(state_mutex_) = false;
};

}  // namespace gaurast::cluster
