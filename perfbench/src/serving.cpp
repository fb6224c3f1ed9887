// The two serving workloads: hot-wire (one loopback net::Server) and
// churn-fleet (a cluster::Router in front of two loopback shards). Both are
// closed loops of client connections, one on hot-wire and two on
// churn-fleet; every served frame is checked bit-for-bit against a
// reference render made in set-up.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/service.hpp"
#include "scene/store.hpp"

namespace perfbench {

using namespace gaurast;

namespace {

struct ServingSpec {
  int width = 0;
  int height = 0;
  std::vector<std::string> keys;  ///< scenes the clients request
  int views = 0;                  ///< orbit views per scene
  int shards = 1;                 ///< more than one: a Router in front
  /// First shard port when routed (shard s listens on base_port + s), so
  /// the router's rendezvous hashing places each scene the same way on
  /// every run; 0 = ephemeral.
  int base_port = 0;
  int workers = 1;                ///< per shard
  int clients = 1;                ///< closed-loop connections
  /// Per-shard scene-store budget (bytes); empty = unbounded.
  std::vector<std::size_t> shard_budgets;
  int setup_reps = 3;
  /// Requests per client in the scene-store probe's replayed stream.
  int probe_requests = 8;
  /// (scene, view) frames the hardware model renders and cross-checks.
  std::vector<std::pair<std::size_t, std::size_t>> model_frames;
  std::uint64_t seed = 0;
};

/// One client's deterministic request stream: hot-wire steps each viewer
/// round the seed's view order from its own starting point; churn-fleet
/// draws (scene, view) uniformly from the seeded stream.
class Stream {
 public:
  Stream(const ServingSpec& spec, int client)
      : spec_(&spec),
        rng_(spec.seed * 1000003u + static_cast<std::uint64_t>(client)),
        order_(view_order(spec.views, spec.seed)),
        step_(client * spec.views / spec.clients) {}

  std::pair<std::size_t, int> next() {
    if (spec_->keys.size() == 1) {
      const int v = order_[static_cast<std::size_t>(step_)];
      step_ = (step_ + 1) % spec_->views;
      return {0, v};
    }
    const auto key =
        static_cast<std::size_t>(rng_.next_u64() % spec_->keys.size());
    const auto view = static_cast<int>(
        rng_.next_u64() % static_cast<std::uint64_t>(spec_->views));
    return {key, view};
  }

 private:
  const ServingSpec* spec_;
  Pcg32 rng_;
  std::vector<int> order_;
  int step_ = 0;
};

/// Shard services + servers, and the router when the spec asks for one.
/// Members are declared so destruction runs router -> servers -> services.
class Fleet {
 public:
  explicit Fleet(const ServingSpec& spec) {
    std::vector<cluster::ShardId> ids;
    for (int s = 0; s < spec.shards; ++s) {
      runtime::ServiceConfig config;
      config.workers = spec.workers;
      config.backend = "sw";
      config.renderer.kernel = pipeline::RasterKernel::kFast;
      if (!spec.shard_budgets.empty()) {
        config.scene_budget_bytes =
            spec.shard_budgets[static_cast<std::size_t>(s)];
      }
      services_.push_back(std::make_unique<runtime::RenderService>(config));
      net::ServerConfig server;
      if (spec.base_port > 0) server.port = spec.base_port + s;
      servers_.push_back(
          std::make_unique<net::Server>(*services_.back(), server));
      servers_.back()->start();
      ids.push_back(cluster::ShardId{"127.0.0.1", servers_.back()->port()});
    }
    if (spec.shards > 1) {
      db_ = std::make_unique<cluster::HostDb>(ids);
      router_ =
          std::make_unique<cluster::Router>(*db_, cluster::RouterConfig{});
      router_->start();
    }
  }
  ~Fleet() {
    if (router_) router_->stop();
    for (auto& server : servers_) server->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int port() const { return router_ ? router_->port() : servers_[0]->port(); }
  const cluster::Router* router() const { return router_.get(); }
  std::vector<runtime::ServiceStats> service_stats() const {
    std::vector<runtime::ServiceStats> out;
    for (const auto& s : services_) out.push_back(s->stats());
    return out;
  }

 private:
  std::vector<std::unique_ptr<runtime::RenderService>> services_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<cluster::HostDb> db_;
  std::unique_ptr<cluster::Router> router_;
};

/// What one client observed over a window.
struct ClientLog {
  std::vector<double> round_trip_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  std::vector<double> overhead_ms;  ///< round trip - server latency_ms
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  net::RenderResponse sample;  ///< last good response (encode/decode replay)
};

/// A started fleet with its connected clients and their request streams.
struct Deployment {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<Stream> streams;
};

using References = std::vector<std::vector<std::uint64_t>>;  // [key][view]

/// Closed loop for one client: request, wait for the whole frame, verify,
/// repeat until `deadline`. A warm-up instead sends one request for the
/// warm-up view of the first scene, so set-up does the same work whatever
/// the seed.
void client_loop(const ServingSpec& spec, const References& refs,
                 const std::vector<View>& views, net::Client& conn,
                 Stream& stream, int client, Clock::time_point deadline,
                 bool warm_up, std::atomic<bool>& corrupt_pending,
                 Tracer& tracer, ClientLog& log) {
  for (int i = 0; (!warm_up || i < 1) && Clock::now() < deadline; ++i) {
    const auto [key, view] =
        warm_up ? std::pair<std::size_t, int>{0, spec.views} : stream.next();
    const std::uint64_t request_id =
        (static_cast<std::uint64_t>(client + 1) << 40) | tracer.next_id();
    const net::RenderRequest wire = wire_request(
        spec.keys[key], views[static_cast<std::size_t>(view)], spec.width,
        spec.height, request_id);
    const auto t0 = Clock::now();
    net::RenderResponse resp;
    try {
      resp = conn.render(wire);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "client %d: transport error: %s\n", client,
                   e.what());
      ++log.failed;
      try {
        conn.reconnect();
      } catch (const std::exception&) {
        return;  // the fleet is gone; the window's failures say so
      }
      continue;
    }
    const auto t1 = Clock::now();
    if (resp.has_image && !resp.pixels.empty() &&
        corrupt_pending.exchange(false)) {
      std::uint32_t word = 0;
      std::memcpy(&word, &resp.pixels[0], sizeof word);
      word ^= 1u;
      std::memcpy(&resp.pixels[0], &word, sizeof word);
    }
    const bool good =
        resp.status == net::RenderStatus::kOk && resp.has_image &&
        resp.request_id == request_id &&
        hash_pixels(resp.image_width, resp.image_height, resp.pixels) ==
            refs[key][static_cast<std::size_t>(view)];
    if (!good) {
      ++log.failed;
      continue;
    }
    ++log.ok;
    const double rt = ms_between(t0, t1);
    log.round_trip_ms.push_back(rt);
    log.queue_wait_ms.push_back(resp.queue_wait_ms);
    log.service_ms.push_back(resp.service_ms);
    log.overhead_ms.push_back(rt - resp.latency_ms);
    if (tracer.enabled()) {
      // The server reports its own latency split; its spans are placed
      // centred inside the client's round trip.
      const std::uint64_t root =
          tracer.record("client.request", t0, t1, 0, request_id);
      const std::int64_t start = tracer.to_ns(t0);
      const std::int64_t rt_ns = tracer.to_ns(t1) - start;
      const auto lat_ns = static_cast<std::int64_t>(resp.latency_ms * 1e6);
      const std::int64_t s0 =
          start + std::max<std::int64_t>(0, rt_ns - lat_ns) / 2;
      const std::uint64_t server = tracer.record_ns(
          "server.latency", s0, s0 + lat_ns, root, request_id);
      const auto qw_ns = static_cast<std::int64_t>(resp.queue_wait_ms * 1e6);
      const auto svc_ns = static_cast<std::int64_t>(resp.service_ms * 1e6);
      tracer.record_ns("runtime.queue_wait", s0, s0 + qw_ns, server,
                       request_id);
      tracer.record_ns("runtime.service", s0 + qw_ns, s0 + qw_ns + svc_ns,
                       server, request_id);
    }
    log.sample = std::move(resp);
  }
}

/// Runs every client's loop concurrently; returns the merged log and the
/// wall time from start until the last client finished.
struct WindowResult {
  ClientLog log;
  double elapsed_s = 0.0;
};

void append(WindowResult& to, WindowResult&& from) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(to.log.round_trip_ms, from.log.round_trip_ms);
  cat(to.log.queue_wait_ms, from.log.queue_wait_ms);
  cat(to.log.service_ms, from.log.service_ms);
  cat(to.log.overhead_ms, from.log.overhead_ms);
  to.log.ok += from.log.ok;
  to.log.failed += from.log.failed;
  if (from.log.sample.has_image) to.log.sample = std::move(from.log.sample);
  to.elapsed_s += from.elapsed_s;
}

WindowResult run_clients(const ServingSpec& spec, const References& refs,
                         const std::vector<View>& views, Deployment& deployment,
                         double seconds, std::atomic<bool>& corrupt_pending,
                         Tracer& tracer) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(spec.clients));
  const auto start = Clock::now();
  const auto deadline = deadline_after(start, seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    threads.emplace_back([&, c, i] {
      client_loop(spec, refs, views, *deployment.clients[i],
                  deployment.streams[i], c, deadline, false, corrupt_pending,
                  tracer, logs[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  WindowResult out;
  for (ClientLog& l : logs) append(out, WindowResult{std::move(l), 0.0});
  out.elapsed_s = ms_since(start) / 1000.0;
  return out;
}

void count_window(const WindowResult& w, Report& report) {
  report.attempted += w.log.ok + w.log.failed;
  report.failed += w.log.failed;
}

/// Set-up: fleet start, client connections, one warm frame per client.
std::unique_ptr<Deployment> start_deployment(const ServingSpec& spec,
                                             const References& refs,
                                             const std::vector<View>& views,
                                             Tracer& tracer, Report& report) {
  auto deployment = std::make_unique<Deployment>();
  deployment->fleet = std::make_unique<Fleet>(spec);
  for (int c = 0; c < spec.clients; ++c) {
    deployment->clients.push_back(
        std::make_unique<net::Client>("127.0.0.1", deployment->fleet->port()));
    deployment->streams.emplace_back(spec, c);
  }
  // The clients warm up in turn: clients at once racing for one scene on a
  // one-worker shard made set-up times fall into two clusters.
  std::atomic<bool> no_corruption{false};
  const bool was_tracing = tracer.enabled();
  tracer.set_enabled(false);
  ClientLog warm;
  for (int c = 0; c < spec.clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    client_loop(spec, refs, views, *deployment->clients[i],
                deployment->streams[i], c, Clock::time_point::max(), true,
                no_corruption, tracer, warm);
  }
  tracer.set_enabled(was_tracing);
  report.attempted += warm.ok + warm.failed;
  report.failed += warm.failed;
  return deployment;
}

/// Reference hashes of every (scene, view) the workload can request, made
/// with the sw reference kernel from the same scene-store working copies
/// the servers render. Also returns each scene's accounted store bytes.
References make_references(const ServingSpec& spec,
                           const std::vector<View>& views,
                           std::vector<std::size_t>& scene_bytes) {
  const auto reference = engine::create("sw");
  engine::FrameOptions options;
  options.pipeline.kernel = pipeline::RasterKernel::kReference;
  options.pipeline.num_threads = 4;  // bit-identical for any count
  const auto source = std::make_shared<const scene::SyntheticSource>();
  References refs;
  for (const std::string& key : spec.keys) {
    scene::SceneStore store(scene::SceneStoreConfig{0, 0, source});
    const auto scene = store.acquire(key);
    scene_bytes.push_back(store.stats().resident_bytes);
    std::vector<std::uint64_t> per_view;
    for (const View& v : views) {
      per_view.push_back(hash_image(
          reference
              ->render(*scene, camera_for(v, spec.width, spec.height), options)
              .frame.image));
    }
    refs.push_back(std::move(per_view));
  }
  return refs;
}

/// The GauRast hardware model on the spec's model frames, one thread per
/// frame: every image must match its reference, and the frames yield the
/// modelled metrics (their mean).
void model_sample(const ServingSpec& spec, const References& refs,
                  const std::vector<View>& views, Report& report) {
  const auto backend = engine::create("gaurast");
  scene::SceneStore store(scene::SceneStoreConfig{
      0, 0, std::make_shared<const scene::SyntheticSource>()});
  const auto& frames = spec.model_frames;
  std::vector<std::shared_ptr<const scene::GaussianScene>> scenes;
  for (const auto& [key, view] : frames) {
    scenes.push_back(store.acquire(spec.keys[key]));
  }
  std::vector<engine::FrameOutput> outs(frames.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    threads.emplace_back([&, i] {
      outs[i] = backend->render(
          *scenes[i], camera_for(views[frames[i].second], spec.width,
                                 spec.height),
          {});
    });
  }
  for (std::thread& t : threads) t.join();
  double raster_ms = 0.0, fps = 0.0, energy_mj = 0.0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const engine::FrameOutput& out = outs[i];
    report.count(out.hw.has_value() &&
                 hash_image(out.frame.image) ==
                     refs[frames[i].first][frames[i].second]);
    if (!out.hw) return;
    raster_ms += out.hw->raster_model_ms;
    fps += out.hw->pipelined_fps();
    energy_mj += out.hw->energy_soc_mj;
  }
  const double n = static_cast<double>(frames.size());
  report.set("model_raster_us", raster_ms * 1000.0 / n);
  report.set("model_fps", fps / n);
  report.set("model_energy_mj", energy_mj / n);
}

void run_serving(ServingSpec spec, const Options& options, Tracer& tracer,
                 Report& report) {
  // The seed's orbit, then the warm-up view (index spec.views).
  std::vector<View> views =
      orbit_views(spec.views, orbit_jitter(spec.seed));
  views.push_back(warm_view());
  std::vector<std::size_t> scene_bytes;
  const References refs = make_references(spec, views, scene_bytes);
  // The shard that serves each scene, as the router's hashing places it.
  std::vector<std::size_t> key_shard(spec.keys.size(), 0);
  if (spec.shards > 1) {
    // Each shard's budget is half of its share of the working set, the
    // share being the scenes the router's hashing places on it.
    std::vector<cluster::ShardId> ids;
    for (int s = 0; s < spec.shards; ++s) {
      ids.push_back(cluster::ShardId{"127.0.0.1", spec.base_port + s});
    }
    const cluster::HostDb placement(ids);
    spec.shard_budgets.assign(ids.size(), 0);
    for (std::size_t k = 0; k < spec.keys.size(); ++k) {
      key_shard[k] = *placement.route(spec.keys[k]);
      spec.shard_budgets[key_shard[k]] += scene_bytes[k] / 2;
    }
  }

  // Set-up, repeated; the last deployment serves the measured window. Both
  // run on one CPU; the reference renders before and the model frames
  // after use them all.
  std::optional<OneCpu> one_cpu;
  one_cpu.emplace();
  std::vector<double> setup_ms;
  std::unique_ptr<Deployment> deployment;
  const int reps = options.trace ? 1 : spec.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    deployment.reset();
    const auto t0 = Clock::now();
    deployment = start_deployment(spec, refs, views, tracer, report);
    setup_ms.push_back(ms_since(t0));
  }
  // The peak covers the live deployment from here on, not the memory the
  // torn-down set-up repetitions left free.
  reset_peak_rss();

  std::atomic<bool> corrupt_pending{options.corrupt_one};
  if (!options.trace) {
    const WindowResult w =
        run_clients(spec, refs, views, *deployment, options.seconds,
                    corrupt_pending, tracer);
    count_window(w, report);
    deployment.reset();
    one_cpu.reset();
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("setup_s", median(setup_ms) / 1000.0);
    report.set("throughput_fps", static_cast<double>(w.log.ok) / w.elapsed_s);
    report.set("latency_p50_ms", percentile(w.log.round_trip_ms, 50.0));
    report.set("latency_p95_ms", percentile(w.log.round_trip_ms, 95.0));
    model_sample(spec, refs, views, report);
    return;
  }

  // Traced run: the window in quarters on one fleet, untraced, traced,
  // traced, untraced, so both halves sit at the same mean time in the run.
  WindowResult plain, traced;
  for (const bool on : {false, true, true, false}) {
    tracer.set_enabled(on);
    append(on ? traced : plain,
           run_clients(spec, refs, views, *deployment, options.seconds / 4,
                       corrupt_pending, tracer));
  }
  tracer.set_enabled(true);
  count_window(plain, report);
  count_window(traced, report);
  const double plain_fps = static_cast<double>(plain.log.ok) / plain.elapsed_s;
  const double traced_fps =
      static_cast<double>(traced.log.ok) / traced.elapsed_s;
  report.set("trace.untraced_fps", plain_fps);
  report.set("trace.traced_fps", traced_fps);
  report.set("trace.overhead_pct", (plain_fps / traced_fps - 1.0) * 100.0);

  const std::vector<runtime::ServiceStats> shard_stats =
      deployment->fleet->service_stats();
  double utilization = 0.0, rejected = 0.0;
  double most = 0.0, least = 1e300;
  for (const runtime::ServiceStats& s : shard_stats) {
    utilization +=
        s.worker_utilization / static_cast<double>(shard_stats.size());
    rejected += static_cast<double>(s.rejected);
    most = std::max(most, static_cast<double>(s.completed));
    least = std::min(least, static_cast<double>(s.completed));
  }
  report.set("runtime.queue_wait_ms", median(traced.log.queue_wait_ms));
  report.set("runtime.service_ms", median(traced.log.service_ms));
  report.set("runtime.worker_utilization", utilization);
  report.set("runtime.rejected", rejected);
  report.set("net.overhead_ms", median(traced.log.overhead_ms));
  if (const cluster::Router* router = deployment->fleet->router()) {
    const cluster::RouterStatsSnapshot r = router->stats_snapshot();
    report.set("cluster.route_overhead_ms", median(r.route_overhead_ms));
    report.set("cluster.retries", static_cast<double>(r.retries));
    report.set("cluster.failovers", static_cast<double>(r.failovers));
    report.set("cluster.shed", static_cast<double>(r.shed));
    report.set("cluster.shard_skew", most / std::max(1.0, least));
  }
  deployment.reset();
  one_cpu.reset();

  // Wire encode/decode of one served response, replayed.
  const net::RenderResponse& sample = traced.log.sample;
  std::vector<double> encode_ms, decode_ms;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 10; ++i) {
    auto t0 = Clock::now();
    bytes = net::serialize(sample);
    auto t1 = Clock::now();
    tracer.record("net.encode", t0, t1);
    encode_ms.push_back(ms_between(t0, t1));
    t0 = Clock::now();
    const net::RenderResponse back = net::deserialize_render_response(
        bytes.data() + net::kHeaderBytes, bytes.size() - net::kHeaderBytes);
    t1 = Clock::now();
    tracer.record("net.decode", t0, t1);
    decode_ms.push_back(ms_between(t0, t1));
    if (back.pixels.size() != sample.pixels.size()) {
      report.invariants_ok = false;
    }
  }
  report.set("net.encode_ms", median(encode_ms));
  report.set("net.decode_ms", median(decode_ms));
  report.set("net.response_mb", static_cast<double>(bytes.size()) / 1e6);

  std::vector<ReplayItem> items;
  for (const std::string& key : spec.keys) {
    for (const View& v : views) items.push_back(ReplayItem{key, v});
  }
  replay_pipeline(items, spec.width, spec.height, tracer, report);

  std::vector<Stream> streams;
  for (int c = 0; c < spec.clients; ++c) streams.emplace_back(spec, c);
  std::vector<std::string> key_stream;
  std::vector<std::size_t> shard_stream;
  for (int i = 0; i < spec.probe_requests; ++i) {
    for (Stream& s : streams) {
      const std::size_t key = s.next().first;
      key_stream.push_back(spec.keys[key]);
      shard_stream.push_back(key_shard[key]);
    }
  }
  const std::vector<std::size_t> budgets =
      spec.shard_budgets.empty() ? std::vector<std::size_t>(1, 0)
                                 : spec.shard_budgets;
  probe_scene_store(key_stream, shard_stream, budgets,
                    static_cast<std::size_t>(spec.clients), tracer, report);
}

}  // namespace

void run_hot_wire(const Options& options, Tracer& tracer, Report& report) {
  ServingSpec spec;
  spec.width = options.tiny ? 80 : 320;
  spec.height = options.tiny ? 60 : 240;
  // A fixed scene: set-up time varied by a fifth with the scene's seed.
  // The seed jitters the orbit and orders the views.
  spec.keys = {scene::synthetic_scene_key(options.tiny ? 2000 : 20000, 1)};
  spec.views = 9;  // odd, for the reason given in run_hw_sim
  spec.model_frames = {{0, 0}, {0, 2}, {0, 4}, {0, 6}};
  spec.workers = 1;
  spec.clients = 1;
  spec.setup_reps = options.tiny ? 1 : 9;
  spec.seed = options.seed;
  run_serving(spec, options, tracer, report);
}

void run_churn_fleet(const Options& options, Tracer& tracer, Report& report) {
  ServingSpec spec;
  spec.width = options.tiny ? 40 : 160;
  spec.height = options.tiny ? 30 : 120;
  // A fixed 12-scene catalogue on fixed shard ports, so every run places
  // the scenes on the shards the same way; the seed draws the request
  // stream and jitters the orbit.
  const std::vector<std::uint64_t> sizes = {2000, 4000, 8000,
                                            12000, 16000, 20000};
  for (const std::uint64_t scene_seed : {1, 2}) {
    for (const std::uint64_t size : sizes) {
      spec.keys.push_back(scene::synthetic_scene_key(
          options.tiny ? size / 10 : size, scene_seed));
    }
  }
  spec.views = 4;
  // The largest scene of each seed, at every view.
  for (const std::size_t key : {sizes.size() - 1, 2 * sizes.size() - 1}) {
    for (std::size_t view = 0; view < 4; ++view) {
      spec.model_frames.emplace_back(key, view);
    }
  }
  spec.shards = 2;
  spec.base_port = 27350;
  spec.workers = 1;
  spec.clients = 2;
  spec.setup_reps = options.tiny ? 1 : 31;
  spec.probe_requests = options.tiny ? 8 : 32;
  spec.seed = options.seed;
  run_serving(spec, options, tracer, report);
}

}  // namespace perfbench
