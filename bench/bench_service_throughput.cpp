// Render-service throughput benchmark: one interleaved A/B harness and one
// short function per comparison, picked with --compare.
//
//   workers  (default) the closed-loop generated workload through
//            RenderService at a sweep of worker counts: frames/sec, tail
//            latency and worker utilization per point, plus the speedup
//            over the 1-worker baseline. This is the serving-side
//            counterpart of the paper's per-frame FPS tables.
//   wire     what the wire costs: the same request list submitted
//            in-process (client threads calling RenderService::submit) and
//            over a real loopback TCP socket through net::Server /
//            net::Client (full frames, image payloads included), at equal
//            worker and client counts; reports the wire/in-process
//            throughput ratio.
//   fleet    what the router costs: the same request list sent direct
//            (each client dials the scene's owner shard itself, using the
//            router's rendezvous hash) and routed (every frame through the
//            cluster::Router front-end), over identical fleets of
//            kFleetShards loopback shards; reports the routed/direct ratio
//            and the router's per-frame route overhead.
//   faults   what failures cost: the same request list, every request
//            carrying a --deadline-ms budget, over a clean routed fleet and
//            one with --fault-plan armed at the router's forwarding seam
//            (cluster.forward); reports both passes' tails and outcome
//            counts (ok / deadline-exceeded / unavailable), the
//            faulted/clean ratio and the faulted deadline hit rate. The plan
//            is seeded, so injections are reproducible.
//   scenes   what a scene-store byte budget costs: a widened mix of scene
//            classes against an unbounded store and against a budget of
//            half the catalogue's accounted bytes (what an unbounded store
//            holds once prewarmed), so the budgeted pass pays real LRU
//            evictions and re-admissions; reports both passes' throughput
//            and tails plus the budgeted pass's hit rate, evictions and
//            resident/peak bytes.
//
// --scene-size pins every request to one scene class (e.g. the canonical
// 20000-Gaussian scene) so a measurement isolates serving, not scene mix.
//
// Every side of a comparison runs `--warmup` unmeasured passes and
// `--repeat` measured ones, interleaved pass by pass with the other side so
// slow machine drift (frequency scaling, page cache) lands on both sides of
// the ratio. Every pass gets fresh services with the whole scene catalogue
// prewarmed, so pass timing measures serving, not scene generation or stale
// queue state. Throughput is the mean over measured passes; latency columns
// come from the best-throughput pass. The wire, fleet and faults sides
// (in-process included) are client-driven: they count kOk frames over the
// client wall clock and time each kOk round trip at the client; a
// kOverloaded reply is resent after 1 ms. The workers and scenes sides run
// runtime::run_workload and report the service's own stats.
//
// `--json` emits the machine-readable report tools/bench_pipeline.sh
// aggregates. Every report starts with the config header
// {"schema":...,"backend":...,"kernel":...,"jobs":...,"width":...,
//  "height":...,"seed":...,"warmup":...,"repeat":..., then:
//
//   workers: "points":[{"workers":N,"throughput_mean_fps":...,
//                       "throughput_best_fps":...,"speedup":...,
//                       "stats":{...}}]}
//            schema gaurast-bench-service/v1
//   wire:    "workers":W,"clients":C,
//            "modes":[{"mode":"inproc",<fps>,"stats":{...}},
//                     {"mode":"wire",<fps>,<tails>}],
//            "derived":{"wire_relative_throughput":...}}
//            schema gaurast-bench-service-wire/v1
//   fleet:   "shards":2,"workers":W,"clients":C,
//            "modes":[{"mode":"direct",<fps>,<tails>},
//                     {"mode":"routed",<fps>,<tails>,
//                      "route_overhead_mean_ms":...,
//                      "route_overhead_p95_ms":...}],
//            "derived":{"routed_relative_throughput":...}}
//            schema gaurast-bench-service-fleet/v1
//   faults:  "shards":2,"workers":W,"clients":C,"deadline_ms":D,
//            "fault_plan":"...",
//            "modes":[{"mode":"clean",<fps>,<tails>,"ok":...,
//                      "deadline_exceeded":...,"unavailable":...,
//                      "deadline_hit_rate":...,"retries":...,
//                      "failovers":...},{"mode":"faulted",...}],
//            "derived":{"faulted_relative_throughput":...,
//                       "faulted_deadline_hit_rate":...,
//                       "faulted_p99_ms":...}}
//            schema gaurast-bench-service-faults/v1
//   scenes:  "workers":W,"scene_classes":N,"budget_bytes":B,
//            "modes":[{"mode":"unbounded",<fps>,"stats":{...}},
//                     {"mode":"budgeted",<fps>,"stats":{...}}],
//            "derived":{"budgeted_relative_throughput":...,
//                       "budgeted_hit_rate":...,"budgeted_evictions":...,
//                       "budgeted_peak_resident_bytes":...,
//                       "budgeted_resident_bytes":...,
//                       "budgeted_resident_under_budget":true|false}}
//            schema gaurast-bench-service-scenes/v1
//
// where <fps> is "throughput_mean_fps":...,"throughput_best_fps":... and
// <tails> is "latency_p50_ms":...,"latency_p95_ms":...,"latency_p99_ms":...
//
// Peak resident bytes may transiently exceed the budget: eviction never
// frees a scene that queued or in-flight renders still pin. The enforced
// number is the post-drain residency (budgeted_resident_under_budget).
//
//   bench_service_throughput [--compare workers|wire|fleet|faults|scenes]
//                            [--jobs N] [--backend NAME]
//                            [--kernel reference|fast]
//                            [--warmup N] [--repeat N]
//                            [--width W] [--height H] [--seed S]
//                            [--scene-size G] [--queue Q]
//                            [--workers W] [--clients C]
//                            [--deadline-ms D] [--fault-plan SPEC]
//                            [--json out.json]
//
// --backend takes any name in the engine registry (`gaurast_cli backends`);
// --kernel selects the Step-3 software kernel on backends whose
// capabilities support kernel selection.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/table.hpp"
#include "engine/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "pipeline/rasterize.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "scene/generator.hpp"
#include "scene/store.hpp"

namespace {

using namespace gaurast;

/// Loopback shards behind the fleet and faults comparisons.
constexpr int kFleetShards = 2;

/// Linearly interpolated percentile (p in [0, 1]); sorts in place.
double percentile_ms(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything every comparison shares: the parsed options, the workload and
/// its scene catalogue, generated once so passes never pay for synthesis.
struct Bench {
  std::string backend;
  pipeline::RasterKernel kernel = pipeline::RasterKernel::kReference;
  runtime::WorkloadConfig workload;
  int warmup = 0;
  int repeat = 1;
  int workers = 1;
  int clients = 1;
  std::size_t queue = 64;
  std::map<std::string, scene::GaussianScene> catalogue;
  std::shared_ptr<const scene::SceneSource> source;

  runtime::ServiceConfig service_config(int service_workers) const {
    runtime::ServiceConfig config;
    config.workers = service_workers;
    config.backend = backend;
    config.renderer.kernel = kernel;
    config.queue_capacity = queue;
    config.scene_source = source;
    return config;
  }

  /// A fresh service with the whole catalogue resident (as far as its
  /// store budget allows): a miss copies the pregenerated scene.
  std::unique_ptr<runtime::RenderService> prewarmed(
      const runtime::ServiceConfig& config) const {
    auto service = std::make_unique<runtime::RenderService>(config);
    for (const auto& entry : catalogue) service->scene(entry.first);
    return service;
  }

  /// The wire-side request list: the workload's scenes at the default
  /// camera, image payloads requested so every client-driven side pays the
  /// full serving cost, response encoding and socket bandwidth included.
  std::vector<net::RenderRequest> requests(std::uint32_t deadline_ms) const {
    std::vector<net::RenderRequest> list;
    for (const runtime::WorkloadRequest& req :
         runtime::generate_workload(workload)) {
      net::RenderRequest wire = net::default_render_request(
          req.gaussian_count, req.scene_seed, workload.width, workload.height);
      wire.request_id = static_cast<std::uint64_t>(list.size()) + 1;
      wire.flags = net::kWantImage;
      wire.deadline_ms = deadline_ms;
      list.push_back(std::move(wire));
    }
    return list;
  }

  std::string banner(const std::string& title,
                     const std::string& detail) const {
    return title + ", backend " + backend + ", kernel " +
           pipeline::to_string(kernel) + ", " + std::to_string(workload.jobs) +
           " jobs x " + std::to_string(repeat) + " passes, " + detail;
  }

  /// The config fields every report starts with; the object is left open.
  std::string config_json(const std::string& schema) const {
    return "{\"schema\":\"" + schema + "\",\"backend\":\"" + backend +
           "\",\"kernel\":\"" + pipeline::to_string(kernel) +
           "\",\"jobs\":" + std::to_string(workload.jobs) +
           ",\"width\":" + std::to_string(workload.width) +
           ",\"height\":" + std::to_string(workload.height) +
           ",\"seed\":" + std::to_string(workload.seed) +
           ",\"warmup\":" + std::to_string(warmup) +
           ",\"repeat\":" + std::to_string(repeat);
  }
};

struct Tails {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One workload pass of one side.
struct Pass {
  double fps = 0.0;
  Tails tails;
  std::uint64_t ok = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t unavailable = 0;  ///< every other non-kOk outcome
  runtime::ServiceStats service;         ///< service-side passes only
  cluster::RouterStatsSnapshot router;   ///< routed passes only

  double deadline_hit_rate() const {
    return ratio(static_cast<double>(deadline_exceeded),
                 static_cast<double>(ok + deadline_exceeded + unavailable));
  }
};

/// One side of a comparison over its measured passes: mean and best
/// throughput, and the best pass kept whole for the latency columns.
struct Side {
  double fps_mean = 0.0;
  double fps_best = 0.0;
  Pass best;
};

/// The one pass loop: every round runs each side once, in order, so the
/// sides interleave; warmup rounds are discarded.
std::vector<Side> interleave(const Bench& bench,
                             const std::vector<std::function<Pass()>>& sides) {
  std::vector<Side> measured(sides.size());
  for (int round = -bench.warmup; round < bench.repeat; ++round) {
    for (std::size_t s = 0; s < sides.size(); ++s) {
      Pass pass = sides[s]();
      if (round < 0) continue;
      measured[s].fps_mean += pass.fps / static_cast<double>(bench.repeat);
      if (pass.fps >= measured[s].fps_best) {
        measured[s].fps_best = pass.fps;
        measured[s].best = std::move(pass);
      }
    }
  }
  return measured;
}

/// A pass of the generated workload through runtime::run_workload on a fresh
/// prewarmed service; throughput and tails come from the service's stats.
Pass workload_pass(const Bench& bench, const runtime::ServiceConfig& config) {
  const auto service = bench.prewarmed(config);
  Pass pass;
  pass.service = run_workload(*service, bench.workload).stats;
  pass.fps = pass.service.throughput_fps;
  pass.tails = {pass.service.latency_p50_ms, pass.service.latency_p95_ms,
                pass.service.latency_p99_ms};
  pass.ok = pass.service.completed;
  return pass;
}

/// The closed-loop client driver: `bench.clients` threads split the request
/// list round-robin; each builds its own sender with `make_sender()` (a
/// callable taking a request and returning its RenderStatus) and sends its
/// share one at a time. kOverloaded is the documented shed signal, so a
/// client backs off 1 ms and resends.
template <typename MakeSender>
Pass drive_clients(const Bench& bench,
                   const std::vector<net::RenderRequest>& requests,
                   const MakeSender& make_sender) {
  const auto clients = static_cast<std::size_t>(bench.clients);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<Pass> counts(clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto send = make_sender();
      for (std::size_t i = t; i < requests.size(); i += clients) {
        const auto start = std::chrono::steady_clock::now();
        net::RenderStatus status = send(requests[i]);
        while (status == net::RenderStatus::kOverloaded) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          status = send(requests[i]);
        }
        switch (status) {
          case net::RenderStatus::kOk:
            ++counts[t].ok;
            latencies[t].push_back(std::chrono::duration<double, std::milli>(
                                       std::chrono::steady_clock::now() - start)
                                       .count());
            break;
          case net::RenderStatus::kDeadlineExceeded:
            ++counts[t].deadline_exceeded;
            break;
          default:
            ++counts[t].unavailable;
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  Pass pass;
  std::vector<double> all;
  for (std::size_t t = 0; t < clients; ++t) {
    pass.ok += counts[t].ok;
    pass.deadline_exceeded += counts[t].deadline_exceeded;
    pass.unavailable += counts[t].unavailable;
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
  }
  pass.fps = ratio(static_cast<double>(pass.ok), wall_s);
  pass.tails = {percentile_ms(all, 0.50), percentile_ms(all, 0.95),
                percentile_ms(all, 0.99)};
  return pass;
}

/// Comparisons that measure serving cost rather than failure handling
/// refuse a pass with any frame not served kOk.
Pass require_all_ok(Pass pass, const std::string& side) {
  const std::uint64_t failed = pass.deadline_exceeded + pass.unavailable;
  if (failed > 0) {
    throw Error(side + " pass: " + std::to_string(failed) +
                " request(s) not served kOk");
  }
  return pass;
}

/// A fresh fleet of prewarmed loopback shards, optionally behind a
/// cluster::Router. Members tear down in reverse order: router, then
/// servers, then services.
class Fleet {
 public:
  Fleet(const Bench& bench, int shards, bool routed, std::size_t requests) {
    const runtime::ServiceConfig config = bench.service_config(bench.workers);
    std::vector<cluster::ShardId> ids;
    for (int s = 0; s < shards; ++s) {
      services_.push_back(bench.prewarmed(config));
      servers_.push_back(std::make_unique<net::Server>(*services_.back(),
                                                       net::ServerConfig{}));
      servers_.back()->start();
      ids.push_back(cluster::ShardId{"127.0.0.1", servers_.back()->port()});
    }
    db_ = std::make_unique<cluster::HostDb>(ids);
    if (routed) {
      cluster::RouterConfig router_config;
      // Capacity sized so the router never sheds: a pass measures
      // forwarding and failure handling, not admission control.
      router_config.inflight_per_shard = bench.clients;
      router_config.queue_per_shard = static_cast<int>(requests);
      router_ = std::make_unique<cluster::Router>(*db_, router_config);
      router_->start();
    }
  }

  /// Per-client sender: routed, one connection to the front-end; direct,
  /// one lazily dialed connection per shard, picked by the rendezvous hash.
  /// Both reuse their connections across the pass.
  auto sender() const {
    const std::size_t slots = router_ ? 1 : servers_.size();
    return [this, conns = std::vector<std::unique_ptr<net::Client>>(slots)](
               const net::RenderRequest& req) mutable {
      std::size_t slot = 0;
      int port = 0;
      if (router_) {
        port = router_->port();
      } else {
        slot = *db_->route(req.scene_key());
        port = servers_[slot]->port();
      }
      if (!conns[slot]) {
        conns[slot] = std::make_unique<net::Client>("127.0.0.1", port);
      }
      return conns[slot]->render(req).status;
    };
  }

  cluster::RouterStatsSnapshot router_stats() const {
    return router_ ? router_->stats_snapshot()
                   : cluster::RouterStatsSnapshot{};
  }

 private:
  std::vector<std::unique_ptr<runtime::RenderService>> services_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<cluster::HostDb> db_;
  std::unique_ptr<cluster::Router> router_;
};

/// One pass of `requests` over a fresh fleet. A non-empty `fault_plan` is
/// armed for the client run only, so the seeded injection sequence repeats
/// pass to pass and never touches fleet setup.
Pass fleet_pass(const Bench& bench,
                const std::vector<net::RenderRequest>& requests, int shards,
                bool routed, const std::string& fault_plan = "") {
  Fleet fleet(bench, shards, routed, requests.size());
  if (!fault_plan.empty()) fault::arm(fault_plan);
  Pass pass = drive_clients(bench, requests, [&] { return fleet.sender(); });
  fault::disarm();
  pass.router = fleet.router_stats();
  return pass;
}

// Table and JSON pieces shared by every comparison.

std::string fps_json(const Side& side) {
  return "\"throughput_mean_fps\":" + format_fixed(side.fps_mean, 4) +
         ",\"throughput_best_fps\":" + format_fixed(side.fps_best, 4);
}

/// `{"mode":"<name>",<fps>` — left open for the mode's own fields.
std::string mode_json(const std::string& name, const Side& side) {
  return "{\"mode\":\"" + name + "\"," + fps_json(side);
}

std::string tails_json(const Tails& tails) {
  return ",\"latency_p50_ms\":" + format_fixed(tails.p50, 4) +
         ",\"latency_p95_ms\":" + format_fixed(tails.p95, 4) +
         ",\"latency_p99_ms\":" + format_fixed(tails.p99, 4);
}

std::string stats_json(const Side& side) {
  return ",\"stats\":" + runtime::service_stats_json(side.best.service);
}

/// A table whose rows start with name, mean throughput and the best pass's
/// p50/p95/p99, followed by the comparison's own columns.
struct ModeTable {
  TablePrinter table;

  explicit ModeTable(const std::vector<std::string>& extra_columns)
      : table(columns(extra_columns)) {}

  static std::vector<std::string> columns(std::vector<std::string> extra) {
    std::vector<std::string> all = {"Mode", "Throughput", "p50", "p95",
                                    "p99"};
    all.insert(all.end(), extra.begin(), extra.end());
    return all;
  }

  void add(const std::string& name, const Side& side,
           const std::vector<std::string>& extra = {}) {
    std::vector<std::string> row = {
        name, format_fixed(side.fps_mean, 1) + " fps",
        format_time_ms(side.best.tails.p50),
        format_time_ms(side.best.tails.p95),
        format_time_ms(side.best.tails.p99)};
    row.insert(row.end(), extra.begin(), extra.end());
    table.add_row(row);
  }
};

// The comparisons. Each prints its table and returns its JSON report.

std::string compare_workers(const Bench& bench) {
  print_banner(std::cout, bench.banner("Service throughput", "per point"));
  const int max_workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> sweep;
  for (int w = 1; w < max_workers; w *= 2) sweep.push_back(w);
  sweep.push_back(max_workers);

  ModeTable table({"Speedup", "Utilization"});
  std::string points;
  double baseline_fps = 0.0;
  for (const int workers : sweep) {
    const runtime::ServiceConfig config = bench.service_config(workers);
    const Side point =
        interleave(bench, {[&] { return workload_pass(bench, config); }})[0];
    if (workers == 1) baseline_fps = point.fps_mean;
    const double speedup = ratio(point.fps_mean, baseline_fps);
    table.add(std::to_string(workers) + " workers", point,
              {format_ratio(speedup, 2),
               format_percent(point.best.service.worker_utilization)});
    points += std::string(points.empty() ? "" : ",") +
              "{\"workers\":" + std::to_string(workers) + "," +
              fps_json(point) + ",\"speedup\":" + format_fixed(speedup, 4) +
              stats_json(point) + "}";
  }
  table.table.print(std::cout);
  return bench.config_json("gaurast-bench-service/v1") + ",\"points\":[" +
         points + "]}";
}

std::string compare_wire(const Bench& bench) {
  print_banner(std::cout, bench.banner("Wire vs in-process serving",
                                       std::to_string(bench.workers) +
                                           " workers, " +
                                           std::to_string(bench.clients) +
                                           " clients"));
  const std::vector<net::RenderRequest> requests = bench.requests(0);
  const auto inproc = [&] {
    const auto service = bench.prewarmed(bench.service_config(bench.workers));
    Pass pass = drive_clients(bench, requests, [&] {
      return [&](const net::RenderRequest& req) {
        service->submit({service->scene(req.scene_key()), req.camera()}).get();
        return net::RenderStatus::kOk;
      };
    });
    pass.service = service->stats();
    return pass;
  };
  // The wire side is a one-shard fleet the clients dial directly.
  const auto wire = [&] {
    return require_all_ok(fleet_pass(bench, requests, 1, false), "wire");
  };
  const std::vector<Side> sides = interleave(bench, {inproc, wire});
  const double relative = ratio(sides[1].fps_mean, sides[0].fps_mean);

  ModeTable table({});
  table.add("inproc", sides[0]);
  table.add("wire", sides[1]);
  table.table.print(std::cout);
  std::cout << "Wire/in-process throughput: " << format_ratio(relative, 3)
            << '\n';
  return bench.config_json("gaurast-bench-service-wire/v1") +
         ",\"workers\":" + std::to_string(bench.workers) +
         ",\"clients\":" + std::to_string(bench.clients) + ",\"modes\":[" +
         mode_json("inproc", sides[0]) + stats_json(sides[0]) + "}," +
         mode_json("wire", sides[1]) + tails_json(sides[1].best.tails) +
         "}],\"derived\":{\"wire_relative_throughput\":" +
         format_fixed(relative, 4) + "}}";
}

std::string compare_fleet(const Bench& bench) {
  print_banner(std::cout,
               bench.banner("Direct vs routed fleet serving",
                            std::to_string(kFleetShards) + " shards x " +
                                std::to_string(bench.workers) + " workers, " +
                                std::to_string(bench.clients) + " clients"));
  const std::vector<net::RenderRequest> requests = bench.requests(0);
  const auto side = [&](bool routed) {
    return [&bench, &requests, routed] {
      return require_all_ok(
          fleet_pass(bench, requests, kFleetShards, routed), "fleet");
    };
  };
  const std::vector<Side> sides = interleave(bench, {side(false), side(true)});
  const double relative = ratio(sides[1].fps_mean, sides[0].fps_mean);
  std::vector<double> overhead = sides[1].best.router.route_overhead_ms;
  const double overhead_mean =
      ratio(std::accumulate(overhead.begin(), overhead.end(), 0.0),
            static_cast<double>(overhead.size()));
  const double overhead_p95 = percentile_ms(overhead, 0.95);

  ModeTable table({});
  table.add("direct", sides[0]);
  table.add("routed", sides[1]);
  table.table.print(std::cout);
  std::cout << "Routed/direct throughput: " << format_ratio(relative, 3)
            << "\nRoute overhead: " << format_time_ms(overhead_mean)
            << " mean, " << format_time_ms(overhead_p95) << " p95\n";
  return bench.config_json("gaurast-bench-service-fleet/v1") +
         ",\"shards\":" + std::to_string(kFleetShards) +
         ",\"workers\":" + std::to_string(bench.workers) +
         ",\"clients\":" + std::to_string(bench.clients) + ",\"modes\":[" +
         mode_json("direct", sides[0]) + tails_json(sides[0].best.tails) +
         "}," + mode_json("routed", sides[1]) +
         tails_json(sides[1].best.tails) + ",\"route_overhead_mean_ms\":" +
         format_fixed(overhead_mean, 4) + ",\"route_overhead_p95_ms\":" +
         format_fixed(overhead_p95, 4) +
         "}],\"derived\":{\"routed_relative_throughput\":" +
         format_fixed(relative, 4) + "}}";
}

std::string compare_faults(const Bench& bench, int deadline_ms,
                           const std::string& fault_plan) {
  print_banner(std::cout,
               bench.banner("Clean vs fault-injected routed serving",
                            std::to_string(kFleetShards) + " shards x " +
                                std::to_string(bench.workers) + " workers, " +
                                std::to_string(bench.clients) +
                                " clients, deadline " +
                                std::to_string(deadline_ms) + " ms"));
  const std::vector<net::RenderRequest> requests =
      bench.requests(static_cast<std::uint32_t>(deadline_ms));
  const auto side = [&](const std::string& plan) {
    return [&bench, &requests, plan] {
      return fleet_pass(bench, requests, kFleetShards, true, plan);
    };
  };
  const std::vector<Side> sides =
      interleave(bench, {side(""), side(fault_plan)});
  const double relative = ratio(sides[1].fps_mean, sides[0].fps_mean);
  const Pass& worst = sides[1].best;

  ModeTable table({"Deadline", "Retries"});
  const auto outcomes_json = [](const Pass& pass) {
    return ",\"ok\":" + std::to_string(pass.ok) + ",\"deadline_exceeded\":" +
           std::to_string(pass.deadline_exceeded) + ",\"unavailable\":" +
           std::to_string(pass.unavailable) + ",\"deadline_hit_rate\":" +
           format_fixed(pass.deadline_hit_rate(), 6) + ",\"retries\":" +
           std::to_string(pass.router.retries) + ",\"failovers\":" +
           std::to_string(pass.router.failovers) + "}";
  };
  std::string modes;
  const char* names[] = {"clean", "faulted"};
  for (std::size_t s = 0; s < sides.size(); ++s) {
    const Pass& best = sides[s].best;
    table.add(names[s], sides[s],
              {format_percent(best.deadline_hit_rate()),
               std::to_string(best.router.retries)});
    modes += std::string(s ? "," : "") + mode_json(names[s], sides[s]) +
             tails_json(best.tails) + outcomes_json(best);
  }
  table.table.print(std::cout);
  std::cout << "Faulted/clean throughput: " << format_ratio(relative, 3)
            << "\nFaulted pass outcomes: " << worst.ok << " ok, "
            << worst.deadline_exceeded << " deadline-exceeded, "
            << worst.unavailable << " unavailable (" << worst.router.retries
            << " retries, " << worst.router.failovers << " failovers)\n";
  return bench.config_json("gaurast-bench-service-faults/v1") +
         ",\"shards\":" + std::to_string(kFleetShards) +
         ",\"workers\":" + std::to_string(bench.workers) +
         ",\"clients\":" + std::to_string(bench.clients) +
         ",\"deadline_ms\":" + std::to_string(deadline_ms) +
         ",\"fault_plan\":\"" + fault_plan + "\",\"modes\":[" + modes +
         "],\"derived\":{\"faulted_relative_throughput\":" +
         format_fixed(relative, 4) + ",\"faulted_deadline_hit_rate\":" +
         format_fixed(worst.deadline_hit_rate(), 6) +
         ",\"faulted_p99_ms\":" + format_fixed(worst.tails.p99, 4) + "}}";
}

std::string compare_scenes(const Bench& bench) {
  print_banner(std::cout,
               bench.banner("Scene-store budget",
                            std::to_string(bench.workload.scene_sizes.size()) +
                                " scene classes, " +
                                std::to_string(bench.workers) + " workers"));
  const runtime::ServiceConfig unbounded = bench.service_config(bench.workers);
  // Half the catalogue's accounted bytes, which is what an unbounded store
  // holds once prewarmed: roughly half the working set must be evicted at
  // any moment.
  const std::uint64_t budget_bytes =
      bench.prewarmed(unbounded)->stats().scene_resident_bytes / 2;
  runtime::ServiceConfig budgeted = unbounded;
  budgeted.scene_budget_bytes = static_cast<std::size_t>(budget_bytes);
  const std::vector<Side> sides =
      interleave(bench, {[&] { return workload_pass(bench, unbounded); },
                         [&] { return workload_pass(bench, budgeted); }});
  const runtime::ServiceStats& squeezed = sides[1].best.service;
  const double relative = ratio(sides[1].fps_mean, sides[0].fps_mean);
  const auto hit_rate = [](const runtime::ServiceStats& stats) {
    return ratio(static_cast<double>(stats.scene_cache_hits),
                 static_cast<double>(stats.scene_cache_hits +
                                     stats.scene_cache_misses));
  };
  // Peak residency may overshoot while every scene is pinned by queued
  // renders; the enforced number is the post-drain residency.
  const bool under_budget = squeezed.scene_resident_bytes <= budget_bytes;

  ModeTable table({"Hit rate", "Evictions", "Peak resident", "End resident"});
  const char* names[] = {"unbounded", "budgeted"};
  std::string modes;
  for (std::size_t s = 0; s < sides.size(); ++s) {
    const runtime::ServiceStats& stats = sides[s].best.service;
    table.add(names[s], sides[s],
              {format_percent(hit_rate(stats)),
               std::to_string(stats.scene_evictions),
               std::to_string(stats.scene_peak_resident_bytes) + " B",
               std::to_string(stats.scene_resident_bytes) + " B"});
    modes += std::string(s ? "," : "") + mode_json(names[s], sides[s]) +
             stats_json(sides[s]) + "}";
  }
  table.table.print(std::cout);
  std::cout << "Budget: " << budget_bytes
            << " B (half the catalogue); budgeted/unbounded throughput: "
            << format_ratio(relative, 3) << "; post-drain residency "
            << (under_budget ? "held under" : "EXCEEDED") << " the budget\n";
  return bench.config_json("gaurast-bench-service-scenes/v1") +
         ",\"workers\":" + std::to_string(bench.workers) +
         ",\"scene_classes\":" +
         std::to_string(bench.workload.scene_sizes.size()) +
         ",\"budget_bytes\":" + std::to_string(budget_bytes) + ",\"modes\":[" +
         modes + "],\"derived\":{\"budgeted_relative_throughput\":" +
         format_fixed(relative, 4) + ",\"budgeted_hit_rate\":" +
         format_fixed(hit_rate(squeezed), 6) + ",\"budgeted_evictions\":" +
         std::to_string(squeezed.scene_evictions) +
         ",\"budgeted_peak_resident_bytes\":" +
         std::to_string(squeezed.scene_peak_resident_bytes) +
         ",\"budgeted_resident_bytes\":" +
         std::to_string(squeezed.scene_resident_bytes) +
         ",\"budgeted_resident_under_budget\":" +
         (under_budget ? "true" : "false") + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_service_throughput");
  cli.add_flag("compare", "workers",
               "comparison to run: workers (worker-count sweep) | wire "
               "(in-process vs loopback TCP) | fleet (direct vs routed over "
               "2 shards) | faults (clean vs --fault-plan, routed) | scenes "
               "(unbounded vs half-catalogue scene-store budget)");
  cli.add_flag("jobs", "24", "frame requests per workload pass");
  cli.add_flag("backend", "sw",
               "Step-3 executor: " + engine::join_names(engine::names(), "|"));
  cli.add_flag("kernel", "reference",
               "Step-3 software kernel (reference|fast) on backends that "
               "support kernel selection");
  cli.add_flag("warmup", "1", "unmeasured passes per side");
  cli.add_flag("repeat", "3", "measured passes per side");
  cli.add_flag("width", "128", "render width");
  cli.add_flag("height", "96", "render height");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("scene-size", "0",
               "pin every request to one scene class of this many Gaussians "
               "(0 = default mixed sizes)");
  cli.add_flag("queue", "64", "service request-queue capacity");
  cli.add_flag("clients", "4",
               "client threads driving each pass (wire, fleet, faults)");
  cli.add_flag("workers", "2",
               "service worker count (wire, scenes; per shard for fleet, "
               "faults)");
  cli.add_flag("deadline-ms", "250", "per-request deadline budget (faults)");
  cli.add_flag("fault-plan",
               "seed=11;cluster.forward:error:p=0.01;"
               "cluster.forward:delay=10:p=0.05",
               "GAURAST_FAULT_PLAN spec armed during the faulted pass; keep "
               "it to router-internal points like cluster.forward or the "
               "bench's own clients misbehave");
  cli.add_flag("json", "", "write machine-readable results to this path");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string compare = cli.get_string("compare");
    if (compare != "workers" && compare != "wire" && compare != "fleet" &&
        compare != "faults" && compare != "scenes") {
      throw CliParseError("--compare must be one of workers|wire|fleet|"
                          "faults|scenes, got '" + compare + "'");
    }
    Bench bench;
    // Resolve --backend against the registry up front so a typo fails with
    // the enumerating diagnostic before any scene generation.
    bench.backend = cli.get_string("backend");
    const engine::BackendInfo backend_info =
        engine::registry().info(bench.backend);
    bench.kernel =
        pipeline::raster_kernel_from_string(cli.get_string("kernel"));
    if (bench.kernel != pipeline::RasterKernel::kReference &&
        !backend_info.capabilities.supports_kernel_select) {
      // Same shape as gaurast_cli's capability diagnostics: name the
      // offending backend and enumerate the backends that do accept it.
      const std::vector<std::string> accepting = engine::registry().names_where(
          [](const engine::Capabilities& c) { return c.supports_kernel_select; });
      throw CliParseError("--kernel does not apply to --backend " +
                          bench.backend +
                          " (its Step 3 does not run the software raster "
                          "kernels); backends that accept it: " +
                          engine::join_names(accepting));
    }
    bench.warmup = cli.get_int("warmup");
    if (bench.warmup < 0) throw CliParseError("--warmup must be >= 0");
    bench.repeat = cli.get_positive_int("repeat");
    bench.workers = cli.get_positive_int("workers");
    bench.clients = cli.get_positive_int("clients");
    bench.queue = static_cast<std::size_t>(cli.get_positive_int("queue"));
    const int scene_size = cli.get_int("scene-size");
    if (scene_size < 0) throw CliParseError("--scene-size must be >= 0");
    int deadline_ms = 0;
    std::string fault_plan;
    if (compare == "faults") {
      deadline_ms = cli.get_positive_int("deadline-ms");
      fault_plan = cli.get_string("fault-plan");
      fault::parse_plan(fault_plan);  // reject a typo'd plan before any pass
    }

    runtime::WorkloadConfig& workload = bench.workload;
    workload.seed = cli.get_uint64("seed");
    workload.jobs = cli.get_positive_int("jobs");
    workload.width = cli.get_positive_int("width");
    workload.height = cli.get_positive_int("height");
    workload.arrival = runtime::ArrivalModel::kClosedLoop;
    if (scene_size > 0) {
      workload.scene_sizes = {static_cast<std::uint64_t>(scene_size)};
    } else if (compare == "scenes") {
      // Widen the class mix so the budgeted pass genuinely cannot hold
      // every scene at once and must evict.
      workload.scene_sizes = {2000, 4000, 8000, 12000, 16000, 20000};
    }
    for (const runtime::WorkloadRequest& req :
         runtime::generate_workload(workload)) {
      if (bench.catalogue.count(req.scene_key)) continue;
      scene::GeneratorParams params;
      params.gaussian_count = req.gaussian_count;
      params.seed = req.scene_seed;
      bench.catalogue.emplace(req.scene_key, scene::generate_scene(params));
    }
    bench.source = std::make_shared<const scene::FunctionSource>(
        [&catalogue = bench.catalogue](const std::string& key) {
          return catalogue.at(key);
        });

    const std::string json =
        compare == "wire"     ? compare_wire(bench)
        : compare == "fleet"  ? compare_fleet(bench)
        : compare == "faults" ? compare_faults(bench, deadline_ms, fault_plan)
        : compare == "scenes" ? compare_scenes(bench)
                              : compare_workers(bench);

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      std::ofstream os(json_path, std::ios::trunc);
      if (!os.good()) {
        throw CliParseError("cannot write --json file '" + json_path + "'");
      }
      os << json << '\n';
      std::cout << "Wrote " << json_path << '\n';
    }
    return 0;
  } catch (const CliParseError& e) {
    std::cerr << "bench_service_throughput: " << e.what() << '\n';
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
