#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <thread>  // lint-invariants: allow(raw-concurrency)
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace gaurast::cluster {

namespace {

double ms_since(std::chrono::steady_clock::time_point then) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - then)
      .count();
}

/// Slack added to a deadline-derated hop timeout: the shard should get the
/// chance to answer kDeadlineExceeded itself before the socket gives up.
constexpr int kDeadlineSlackMs = 50;

/// Transport failures split into the RetryPolicy's classes by exception
/// type; anything unclassified (including injected faults) counts as a
/// connect failure — retryable, immediately, elsewhere.
FailureKind classify_failure(const std::exception& e) {
  if (dynamic_cast<const net::TimeoutError*>(&e) != nullptr) {
    return FailureKind::kTimeout;
  }
  return FailureKind::kConnect;
}

}  // namespace

Router::Router(HostDb& db, RouterConfig config)
    : db_(db),
      config_(std::move(config)),
      retry_policy_(config_.retry),
      front_(*this, [this] {
        net::FrameServerConfig front;
        front.host = config_.host;
        front.port = config_.port;
        front.idle_timeout_ms = config_.idle_timeout_ms;
        front.drain_timeout_ms = config_.drain_timeout_ms;
        front.backlog = config_.backlog;
        return front;
      }()) {
  GAURAST_CHECK(config_.inflight_per_shard >= 1);
  // The queue is the forward channel itself (forwarders pop it), so a
  // zero-length "waiting room" would shed everything.
  GAURAST_CHECK(config_.queue_per_shard >= 1);
}

Router::~Router() { stop(); }

void Router::start() {
  {
    common::MutexLock lock(state_mutex_);
    GAURAST_CHECK(!running_);
    running_ = true;
  }
  // Workers first, listener last: a request must never arrive before the
  // crew that forwards it exists.
  shards_.reserve(db_.size());
  for (std::size_t i = 0; i < db_.size(); ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
    Shard& shard = *shards_.back();
    for (int f = 0; f < config_.inflight_per_shard; ++f) {
      shard.forwarders.emplace_back([this, &shard] { forwarder_main(shard); });
    }
  }
  stats_thread_ =
      std::thread([this] { stats_main(); });  // lint-invariants: allow(raw-concurrency)
  prober_thread_ =
      std::thread([this] { prober_main(); });  // lint-invariants: allow(raw-concurrency)
  front_.start();
}

void Router::stop() {
  {
    common::MutexLock lock(state_mutex_);
    if (!running_) return;
    running_ = false;
  }
  // FrameServer::stop posts begin_shutdown (no new frames are read), then
  // runs this drain hook: every queued forward finishes — success,
  // failover, or kFleetUnavailable — and posts its response onto the loop
  // before the final flush-and-close sentinel is queued behind them.
  front_.stop([this] {
    for (const auto& shard : shards_) {
      common::MutexLock lock(shard->mutex);
      shard->closed = true;
      shard->cv.notify_all();
    }
    for (const auto& shard : shards_) {
      for (std::thread& t : shard->forwarders) t.join();  // lint-invariants: allow(raw-concurrency)
    }
    {
      common::MutexLock lock(stats_queue_mutex_);
      stats_closed_ = true;
      stats_cv_.notify_all();
    }
    if (stats_thread_.joinable()) stats_thread_.join();
  });
  {
    common::MutexLock lock(prober_mutex_);
    prober_stop_ = true;
    prober_cv_.notify_all();
  }
  if (prober_thread_.joinable()) prober_thread_.join();
}

void Router::on_frame(std::uint64_t conn_id, const net::FrameHeader& header,
                      const std::uint8_t* payload) {
  switch (header.type) {
    case net::MessageType::kRenderRequest: {
      Job job;
      job.conn_id = conn_id;
      job.wire = net::deserialize_render_request(payload, header.payload_size);
      job.admitted = Clock::now();
      // Deadline admission mirrors net::Server — pin the absolute deadline
      // once at receipt; the rest of the router only compares against it.
      std::uint32_t deadline_ms = job.wire.deadline_ms;
      if (deadline_ms == 0 && config_.default_deadline_ms > 0) {
        deadline_ms = static_cast<std::uint32_t>(config_.default_deadline_ms);
      }
      if (deadline_ms > 0) {
        job.deadline = job.admitted + std::chrono::milliseconds(deadline_ms);
      }
      front_.add_pending(conn_id);
      route(std::move(job));
      return;
    }
    case net::MessageType::kStatsRequest: {
      if (header.payload_size != 0) {
        throw net::ProtocolError("stats-request payload must be empty");
      }
      common::MutexLock lock(stats_queue_mutex_);
      if (stats_closed_) {
        throw net::ProtocolError("router is shutting down");
      }
      front_.add_pending(conn_id);
      stats_queue_.push_back(StatsJob{conn_id, false});
      stats_cv_.notify_one();
      return;
    }
    case net::MessageType::kRenderResponse:
    case net::MessageType::kStatsResponse:
    case net::MessageType::kError:
      throw net::ProtocolError(std::string("unexpected ") +
                               net::to_string(header.type) +
                               " frame from a client");
  }
}

void Router::on_http_get(std::uint64_t conn_id, const std::string& target) {
  if (target == "/healthz") {
    // Cheap local answer — a fleet-wide poll would make the router's own
    // liveness probe as slow as its slowest shard.
    const std::size_t alive = db_.alive_count();
    front_.respond_http(
        conn_id, "200 OK",
        "{\"schema\":\"gaurast-fleet-health/v1\",\"shards_total\":" +
            std::to_string(db_.size()) + ",\"shards_alive\":" +
            std::to_string(alive) + "}\n");
    return;
  }
  if (target == "/stats") {
    common::MutexLock lock(stats_queue_mutex_);
    if (stats_closed_) {
      front_.respond_http(conn_id, "503 Service Unavailable",
                          "router is shutting down\n");
      return;
    }
    front_.add_pending(conn_id);
    stats_queue_.push_back(StatsJob{conn_id, true});
    stats_cv_.notify_one();
    return;
  }
  front_.respond_http(conn_id, "404 Not Found",
                      "unknown target '" + target +
                          "' (try /healthz or /stats)\n");
}

void Router::route(Job job) {
  // Deadline gate at every (re-)route: a request whose budget ran out —
  // in the connection buffer, in a shard queue, or across failed forwards
  // — is answered, not forwarded.
  if (job.deadline && Clock::now() >= *job.deadline) {
    finish_deadline_exceeded(std::move(job), true);
    return;
  }
  const std::string scene_key = job.wire.scene_key();
  const bool job_was_failover = !job.tried.empty();
  const std::optional<std::size_t> target = db_.route(scene_key, job.tried);
  if (!target) {
    finish_unavailable(std::move(job));
    return;
  }
  Shard& shard = *shards_[*target];
  bool enqueued = false;
  bool shed = false;
  {
    common::MutexLock lock(shard.mutex);
    if (!shard.closed) {
      if (shard.queue.size() >=
          static_cast<std::size_t>(config_.queue_per_shard)) {
        shed = true;
      } else {
        shard.queue.push_back(std::move(job));
        shard.cv.notify_one();
        enqueued = true;
      }
    }
  }
  if (enqueued) {
    if (!job_was_failover) return;
    common::MutexLock lock(stats_mutex_);
    ++counters_.failovers;
    return;
  }
  if (shed) {
    {
      common::MutexLock lock(stats_mutex_);
      ++counters_.shed;
    }
    deliver_error(job.conn_id, job.wire.request_id,
                  net::RenderStatus::kOverloaded,
                  "router: shard " + db_.shard(*target).label() +
                      " at capacity",
                  true);
    return;
  }
  // The shard's channel closed under us (shutdown): no crew will ever pop
  // this job, so answer now.
  finish_unavailable(std::move(job));
}

void Router::finish_unavailable(Job job) {
  {
    common::MutexLock lock(stats_mutex_);
    ++counters_.fleet_unavailable;
  }
  deliver_error(job.conn_id, job.wire.request_id,
                net::RenderStatus::kFleetUnavailable,
                "fleet unavailable: no routable shard (of " +
                    std::to_string(db_.size()) + ") for scene '" +
                    job.wire.scene_key() + "'",
                true);
}

void Router::finish_deadline_exceeded(Job job, bool on_loop) {
  {
    common::MutexLock lock(stats_mutex_);
    ++counters_.deadline_exceeded;
  }
  deliver_error(job.conn_id, job.wire.request_id,
                net::RenderStatus::kDeadlineExceeded,
                "deadline expired at the router after " +
                    std::to_string(job.failures) + " failed forward(s)",
                on_loop);
}

std::optional<std::int64_t> Router::remaining_ms(const Job& job) {
  if (!job.deadline) return std::nullopt;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        *job.deadline - Clock::now())
                        .count();
  return std::max<std::int64_t>(left, 0);
}

void Router::deliver_error(std::uint64_t conn_id, std::uint64_t request_id,
                           net::RenderStatus status,
                           const std::string& message, bool on_loop) {
  net::RenderResponse resp;
  resp.request_id = request_id;
  resp.status = status;
  resp.message = message;
  auto frame = net::serialize(resp);
  if (on_loop) {
    front_.deliver(conn_id, std::move(frame));
  } else {
    front_.post_deliver(conn_id, std::move(frame));
  }
}

void Router::forwarder_main(Shard& shard) {
  std::unique_ptr<net::Client> client;
  for (;;) {
    Job job;
    {
      common::MutexLock lock(shard.mutex);
      while (shard.queue.empty() && !shard.closed) shard.cv.wait(lock);
      if (shard.queue.empty()) return;  // closed and drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    // A job can outwait its budget in the shard queue — shed it here
    // rather than burn a forward slot rendering for nobody.
    if (job.deadline && Clock::now() >= *job.deadline) {
      finish_deadline_exceeded(std::move(job), false);
      continue;
    }
    const std::optional<FailureKind> failed = forward(shard, client, job);
    if (!failed) continue;
    // Failed forward (health already reported): consult the retry budget.
    ++job.failures;
    job.tried.insert(shard.index);
    const RetryDecision decision = retry_policy_.on_failure(
        job.wire.request_id, job.failures, *failed);
    if (!decision.retry) {
      // Budget spent. kOverloaded never lands here undelivered (forward()
      // only withholds it when the budget remains), so the terminal answer
      // is the transport one.
      finish_unavailable(std::move(job));
      continue;
    }
    {
      common::MutexLock lock(stats_mutex_);
      ++counters_.retries;
    }
    if (decision.backoff_ms > 0) {
      // Backoff on the forwarder thread, clamped to the remaining budget —
      // a deadline must cut a backoff short, never the other way around.
      std::int64_t sleep_ms = decision.backoff_ms;
      if (const auto left = remaining_ms(job)) {
        sleep_ms = std::min<std::int64_t>(sleep_ms, *left);
      }
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    }
    // Hand the job back to the loop for the failover walk. The post lands
    // before shutdown's final sentinel, so a draining router still
    // answers it.
    front_.loop().post([this, job = std::move(job)]() mutable {
      route(std::move(job));
    });
  }
}

std::optional<FailureKind> Router::forward(
    Shard& shard, std::unique_ptr<net::Client>& client, Job& job) {
  const ShardId& id = db_.shard(shard.index);
  const Clock::time_point start = Clock::now();

  // Derate this hop to the remaining budget: the shard hears only what is
  // left of the deadline (so it can shed an expired job itself), and the
  // socket timeout shrinks to the budget plus response slack — a stalled
  // shard times this hop out roughly when the deadline passes instead of
  // holding the forwarder for the full forward_timeout_ms.
  int hop_timeout_ms = config_.forward_timeout_ms;
  if (const auto left = remaining_ms(job)) {
    job.wire.deadline_ms =
        static_cast<std::uint32_t>(std::max<std::int64_t>(*left, 1));
    hop_timeout_ms = static_cast<int>(std::max<std::int64_t>(
        1, std::min<std::int64_t>(hop_timeout_ms, *left + kDeadlineSlackMs)));
  }

  const bool pooled = client && client->is_alive();
  net::RenderResponse resp;
  FailureKind kind = FailureKind::kConnect;
  const auto attempt = [&](bool fresh_dial) {
    GAURAST_FAULT_POINT("cluster.forward");
    if (fresh_dial) {
      client = std::make_unique<net::Client>(id.host, id.port,
                                             config_.forward_timeout_ms,
                                             config_.connect_timeout_ms);
    }
    client->set_timeout_ms(hop_timeout_ms);
    resp = client->render(job.wire);
  };
  try {
    attempt(!pooled);
  } catch (const std::exception& first) {
    kind = classify_failure(first);
    // A pooled connection can go stale between is_alive() and the send
    // (e.g. the shard's idle sweep closed it); that is not evidence the
    // shard is down, so retry exactly once on a fresh dial. Timeouts are
    // excluded — a stale socket fails fast, a timeout already ate the
    // budget once.
    bool retried_ok = false;
    if (pooled && kind == FailureKind::kConnect) {
      try {
        attempt(true);
        retried_ok = true;
      } catch (const std::exception& second) {
        kind = classify_failure(second);
      }
    }
    if (!retried_ok) {
      client.reset();
      db_.report_failure(shard.index);
      return kind;
    }
  }

  db_.report_success(shard.index);

  // A shard's admission shed is retryable on another shard — but only
  // when the retry budget and an untried shard both remain. Otherwise the
  // shard's own kOverloaded response passes through untouched (the
  // single-shard contract predating the retry policy).
  if (resp.status == net::RenderStatus::kOverloaded) {
    const RetryDecision peek = retry_policy_.on_failure(
        job.wire.request_id, job.failures + 1, FailureKind::kOverloaded);
    if (peek.retry) {
      std::set<std::size_t> tried = job.tried;
      tried.insert(shard.index);
      if (db_.route(job.wire.scene_key(), tried)) {
        return FailureKind::kOverloaded;
      }
    }
  }

  const double round_trip_ms = ms_since(start);
  {
    common::MutexLock lock(stats_mutex_);
    switch (resp.status) {
      case net::RenderStatus::kOk:
        ++counters_.routed_ok;
        latency_ms_.push(ms_since(job.admitted));
        route_overhead_ms_.push(std::max(0.0, round_trip_ms - resp.latency_ms));
        break;
      case net::RenderStatus::kOverloaded:
        ++counters_.overloaded;
        break;
      case net::RenderStatus::kDeadlineExceeded:
        // The shard shed it against the derated budget we sent — the
        // same terminal answer the router itself would have given.
        ++counters_.deadline_exceeded;
        break;
      case net::RenderStatus::kServerError:
      case net::RenderStatus::kFleetUnavailable:
        ++counters_.server_errors;
        break;
    }
  }
  front_.post_deliver(job.conn_id, net::serialize(resp));
  return std::nullopt;
}

void Router::stats_main() {
  for (;;) {
    StatsJob job;
    {
      common::MutexLock lock(stats_queue_mutex_);
      while (stats_queue_.empty() && !stats_closed_) stats_cv_.wait(lock);
      if (stats_queue_.empty()) return;  // closed and drained
      job = stats_queue_.front();
      stats_queue_.pop_front();
    }
    const std::string json = fleet_stats_json();
    if (job.http) {
      front_.post_deliver_http(job.conn_id, "200 OK", json + "\n");
    } else {
      net::StatsResponse resp;
      resp.json = json;
      front_.post_deliver(job.conn_id, net::serialize(resp));
    }
  }
}

void Router::prober_main() {
  for (;;) {
    {
      common::MutexLock lock(prober_mutex_);
      if (prober_stop_) return;
      prober_cv_.wait_for(lock, config_.probe_interval_ms);
      if (prober_stop_) return;
    }
    // Probe every shard, dead ones included — a successful probe is the
    // recovery path back into the routing set.
    for (std::size_t i = 0; i < db_.size(); ++i) {
      const ShardId& id = db_.shard(i);
      try {
        net::Client probe(id.host, id.port, config_.probe_timeout_ms,
                          config_.probe_timeout_ms);
        const std::string response = probe.http_get("/healthz");
        if (response.rfind("HTTP/1.1 200", 0) == 0) {
          db_.report_success(i);
        } else {
          db_.report_failure(i);
        }
      } catch (const std::exception&) {
        db_.report_failure(i);
      }
    }
  }
}

std::string Router::fleet_stats_json() {
  std::vector<ShardStatsEntry> entries;
  const std::vector<ShardSnapshot> shards = db_.snapshot();
  entries.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardStatsEntry entry;
    entry.shard = shards[i];
    // Dead shards are not polled: recovery is the prober's job, and a
    // stats report must not stack up connect timeouts against a down
    // fleet.
    if (shards[i].state != ShardState::kDead) {
      try {
        net::Client client(shards[i].id.host, shards[i].id.port,
                           config_.stats_timeout_ms, config_.stats_timeout_ms);
        entry.stats_json = client.stats().json;
        db_.report_success(i);
      } catch (const std::exception&) {
        db_.report_failure(i);
        entry.shard = db_.snapshot()[i];  // reflect the demotion
      }
    }
    entries.push_back(std::move(entry));
  }
  return merge_fleet_stats(entries, stats_snapshot());
}

RouterStatsSnapshot Router::stats_snapshot() const {
  common::MutexLock lock(stats_mutex_);
  RouterStatsSnapshot snapshot = counters_;
  snapshot.latency_ms = latency_ms_.samples();
  snapshot.route_overhead_ms = route_overhead_ms_.samples();
  return snapshot;
}

}  // namespace gaurast::cluster
