// Shared pieces of the repository benchmark: options, the result report,
// the in-memory span tracer, host calibration, frame hashing and the fixed
// orbit views every workload renders.
//
// The benchmark drives the system only through its public entry points
// (net::Client/Server, cluster::Router, runtime::RenderService,
// engine::RenderBackend, the pipeline step functions, core::GauRastDevice
// via the gaurast backend, scene::SceneStore). Every layer number is either
// timed around one of those calls here or read from a field the program
// already returns.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gsmath/image.hpp"
#include "net/protocol.hpp"
#include "scene/camera.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);
double ms_between(Clock::time_point start, Clock::time_point end);
Clock::time_point deadline_after(Clock::time_point start, double seconds);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload (scene sizes, resolution, setup repeats) so the
  /// smoke test can exercise all metrics in a few seconds.
  bool tiny = false;
  /// Flips one bit of one served frame before verification; the run must
  /// then report exactly that frame as failed (verification self-test).
  bool corrupt_one = false;
  /// Where the traced run writes its spans (JSON); empty = do not write.
  std::string trace_out;
};

/// A metric the benchmark reports: its name and unit. The catalogue of
/// these (main.cpp) is the one place units are written down.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The run's result: operation counts plus named metric values.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Non-frame invariants (e.g. modelled metrics repeating exactly).
  bool invariants_ok = true;
  std::map<std::string, double> values;

  void set(const std::string& name, double value);
  /// One operation's outcome.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// The single-line result object the benchmark prints last, holding
  /// exactly the metrics in `defs` (in that order).
  std::string json(const std::vector<MetricDef>& defs) const;
};

// ---------------------------------------------------------------- tracing

/// One recorded span: a named interval at a layer boundary, its parent span
/// (0 = root) and the request it belongs to (0 = none).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// Per-layer aggregate of a trace: span count, total and self time.
struct LayerTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Keeps spans in memory (thread-safe) and writes them out once, at the
/// end of the run. When disabled every call is a no-op and returns id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::int64_t to_ns(Clock::time_point t) const;
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Records [start, end] under `parent`; returns the span id (0 when off).
  std::uint64_t record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0);
  /// Records a span whose bounds are already in tracer nanoseconds (spans
  /// synthesized from durations the server reports).
  std::uint64_t record_ns(const std::string& name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent,
                          std::uint64_t request);

  std::size_t size() const;
  /// Self time per span name: a span's duration minus the part of its
  /// interval its children cover.
  std::vector<LayerTime> layer_times() const;
  /// Writes every span as one JSON document; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  const Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ calibration

/// Informational host stamp: single-core spin time and the effective
/// parallelism a 4-thread spin probe achieved (4 = four real cores).
struct Calibration {
  double spin_ms = 0.0;
  double probe_ms = 0.0;
  double effective_cores = 0.0;
  std::string json() const;
};
Calibration calibrate_host();

/// While alive, keeps the thread that made it, and every thread that
/// thread starts meanwhile, on one CPU: the last one it may use (interrupt
/// handling tends to land on the first). Destruction gives the thread its
/// CPUs back. Set-up and the measured window run under one. On a shared VM
/// a thread woken on an idle vCPU waits for the hypervisor to schedule that
/// vCPU, and across runs that wait moved serving throughput and latency by
/// a fifth. On one CPU each hand-over stays on a busy vCPU, so a run
/// measures the CPU cost of the work, the load generator's included.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Returns freed heap memory to the kernel and restarts the process's
/// peak-resident-set high-water mark at the current resident set, so the
/// peak measures the system under test from here on rather than the
/// benchmark's own reference renders and set-up repetitions.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss() (MiB).
double peak_rss_mb();

// ----------------------------------------------------------------- frames

/// Hash of a frame's exact float bits (dimensions included), so "matches
/// the reference" means bit-identical.
std::uint64_t hash_image(const gaurast::Image& image);
std::uint64_t hash_pixels(int width, int height, const std::vector<float>& rgb);

/// One fixed viewpoint of a workload's orbit.
struct View {
  float eye[3] = {0, 0, 0};
  float target[3] = {0, 0, 0};
};
/// `count` views evenly spaced on the generator's default orbit (2.2x the
/// scene radius, slightly elevated, looking at the cluster), turned by
/// `phase` of one view step.
std::vector<View> orbit_views(int count, double phase = 0.0);
/// The orbit turn a seed draws: under a tenth of a view step. Each seed
/// renders frames of its own, while the views, and so the work per orbit
/// lap, stay all but the same (a full step's turn moved frame cost by a
/// tenth between seeds).
double orbit_jitter(std::uint64_t seed);
/// The view every set-up warm frame renders: a tenth of a turn along the
/// orbit, which lies on none of the workloads' 4-, 5- or 9-view orbits,
/// however jittered.
View warm_view();
/// The order, drawn from `seed`, in which a workload visits `count` orbit
/// views. The seed changes the order, never the set of views, so every run
/// does the same work per orbit lap.
std::vector<int> view_order(int count, std::uint64_t seed);
gaurast::scene::Camera camera_for(const View& view, int width, int height);
/// A wire request for `view` of `scene_key`, asking for the image back.
gaurast::net::RenderRequest wire_request(const std::string& scene_key,
                                         const View& view, int width,
                                         int height, std::uint64_t request_id);

// ------------------------------------------------------------------ stats

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

// -------------------------------------------------------------- workloads

void run_hot_wire(const Options& options, Tracer& tracer, Report& report);
void run_churn_fleet(const Options& options, Tracer& tracer, Report& report);
void run_hw_sim(const Options& options, Tracer& tracer, Report& report);

/// Scene-store probe shared by every workload's traced run. `stream` is the
/// workload's scene-key request stream and `shard_of[i]` the shard that
/// serves request i; shard s has a store of its own under a budget of
/// `budgets[s]` bytes (0 = unbounded), as in the fleet. The replay pins the
/// `window` most recent acquires (the closed loop's outstanding requests).
/// Reports every scene.* metric: counts summed over the shards, peak
/// residency added up.
void probe_scene_store(const std::vector<std::string>& stream,
                       const std::vector<std::size_t>& shard_of,
                       const std::vector<std::size_t>& budgets,
                       std::size_t window, Tracer& tracer, Report& report);

/// Replays each (scene, view) through preprocess -> sort -> rasterize with
/// the served kernel and reports every pipeline.* metric.
struct ReplayItem {
  std::string scene_key;
  View view;
};
void replay_pipeline(const std::vector<ReplayItem>& items, int width,
                     int height, Tracer& tracer, Report& report);

}  // namespace perfbench
