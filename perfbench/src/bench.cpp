#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/prng.hpp"
#include "pipeline/preprocess.hpp"
#include "pipeline/rasterize.hpp"
#include "pipeline/sort.hpp"
#include "scene/store.hpp"

namespace perfbench {

using namespace gaurast;

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

Clock::time_point deadline_after(Clock::time_point start, double seconds) {
  return start + std::chrono::microseconds(
                     static_cast<std::int64_t>(seconds * 1e6));
}

// ----------------------------------------------------------------- report

namespace {

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    // A non-finite measurement is a broken run, never a number to report.
    invariants_ok = false;
    value = 0.0;
  }
  values[name] = value;
}

std::string Report::json(const std::vector<MetricDef>& defs) const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 && invariants_ok ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (i > 0) out << ", ";
    out << json_string(defs[i].name) << ": {\"value\": "
        << json_number(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": " << json_string(defs[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- tracing

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint64_t Tracer::record(const std::string& name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled()) return 0;
  return record_ns(name, to_ns(start), to_ns(end), parent, request);
}

std::uint64_t Tracer::record_ns(const std::string& name, std::int64_t start_ns,
                                std::int64_t end_ns, std::uint64_t parent,
                                std::uint64_t request) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children are recorded before their parent finishes, so a parent's
  // covered time is the sum of its children's durations clipped to its own
  // interval (siblings never overlap: each layer call is sequential within
  // one request).
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t, std::int64_t> covered;
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[p.id] += hi - lo;
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& s : spans_) {
    LayerTime& layer = layers[s.name];
    layer.name = s.name;
    const std::int64_t dur = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    const auto it = covered.find(s.id);
    const std::int64_t self =
        std::max<std::int64_t>(0, dur - (it == covered.end() ? 0 : it->second));
    ++layer.count;
    layer.total_ms += static_cast<double>(dur) / 1e6;
    layer.self_ms += static_cast<double>(self) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : layers) out.push_back(layer);
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << json_string(s.name) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

// ------------------------------------------------------------ calibration

namespace {

/// A dependent integer chain the compiler cannot shorten.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1u;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  return x;
}

}  // namespace

std::string Calibration::json() const {
  return "{\"calibration\": {\"spin_ms\": " + json_number(spin_ms) +
         ", \"probe_4thread_ms\": " + json_number(probe_ms) +
         ", \"effective_cores\": " + json_number(effective_cores) + "}}";
}

Calibration calibrate_host() {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  // Best of three readings each: the least-disturbed one. The first 4-thread
  // probe also wakes idle vCPUs, which on a VM can take longer than the
  // probe itself.
  Calibration cal;
  cal.spin_ms = 1e300;
  cal.probe_ms = 1e300;
  for (int r = 0; r < 3; ++r) {
    auto t0 = Clock::now();
    sink += spin(kIterations, static_cast<std::uint64_t>(r));
    cal.spin_ms = std::min(cal.spin_ms, ms_since(t0));
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&sink, t] {
        sink += spin(kIterations, static_cast<std::uint64_t>(t) + 7u);
      });
    }
    for (std::thread& t : threads) t.join();
    cal.probe_ms = std::min(cal.probe_ms, ms_since(t0));
  }
  cal.effective_cores = 4.0 * cal.spin_ms / cal.probe_ms;
  return cal;
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) last = cpu;
  }
  if (last < 0) throw std::runtime_error("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

OneCpu::~OneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

void reset_peak_rss() {
  // Hand memory the benchmark has already freed back to the kernel first,
  // so the mark starts at what the process still holds.
  malloc_trim(0);
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  if (!out) throw std::runtime_error("cannot reset the peak RSS mark");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ----------------------------------------------------------------- frames

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t mix(std::uint64_t h, std::uint32_t word) {
  return (h ^ word) * kFnvPrime;
}

inline std::uint32_t bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

}  // namespace

std::uint64_t hash_image(const Image& image) {
  std::uint64_t h =
      mix(mix(kFnvOffset, static_cast<std::uint32_t>(image.width())),
          static_cast<std::uint32_t>(image.height()));
  for (const Vec3f& px : image.pixels()) {
    h = mix(mix(mix(h, bits(px.x)), bits(px.y)), bits(px.z));
  }
  return h;
}

std::uint64_t hash_pixels(int width, int height,
                          const std::vector<float>& rgb) {
  std::uint64_t h = mix(mix(kFnvOffset, static_cast<std::uint32_t>(width)),
                        static_cast<std::uint32_t>(height));
  for (const float f : rgb) h = mix(h, bits(f));
  return h;
}

std::vector<int> view_order(int count, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) order[static_cast<std::size_t>(i)] = i;
  SplitMix64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }
  return order;
}

double orbit_jitter(std::uint64_t seed) {
  SplitMix64 rng(seed);
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * 0.1;
}

View warm_view() { return orbit_views(10)[1]; }

std::vector<View> orbit_views(int count, double phase) {
  // GeneratorParams' default scene radius is 4; scene::default_camera sits
  // at 2.2x that, 0.6x up, looking at 0.3x up.
  constexpr float kRadius = 4.0f;
  constexpr float kPi = 3.14159265358979323846f;
  std::vector<View> views;
  for (int i = 0; i < count; ++i) {
    const float angle = 2.0f * kPi *
                        static_cast<float>(static_cast<double>(i) + phase) /
                        static_cast<float>(count);
    View v;
    v.eye[0] = 2.2f * kRadius * std::cos(angle);
    v.eye[1] = 0.6f * kRadius;
    v.eye[2] = 2.2f * kRadius * std::sin(angle);
    v.target[1] = 0.3f * kRadius;
    views.push_back(v);
  }
  return views;
}

scene::Camera camera_for(const View& view, int width, int height) {
  return scene::Camera(width, height, 0.9f,
                       Vec3f{view.eye[0], view.eye[1], view.eye[2]},
                       Vec3f{view.target[0], view.target[1], view.target[2]});
}

net::RenderRequest wire_request(const std::string& scene_key, const View& view,
                                int width, int height,
                                std::uint64_t request_id) {
  net::RenderRequest req;
  req.request_id = request_id;
  req.scene = scene_key;
  req.width = width;
  req.height = height;
  req.fov_y = 0.9f;
  for (int i = 0; i < 3; ++i) {
    req.eye[i] = view.eye[i];
    req.target[i] = view.target[i];
  }
  req.flags = net::kWantImage;
  req.backend = "sw";
  req.kernel = "fast";
  return req;
}

// ------------------------------------------------------------------ stats

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------ scene-store probe

void probe_scene_store(const std::vector<std::string>& stream,
                       const std::vector<std::size_t>& shard_of,
                       const std::vector<std::size_t>& budgets,
                       std::size_t window, Tracer& tracer, Report& report) {
  const auto source = std::make_shared<const scene::SyntheticSource>();

  // Counts: a deterministic single-threaded replay of the request stream,
  // each request acquired from its shard's store, holding the pins of the
  // `window` most recent requests like the closed loop's outstanding frames
  // do.
  std::vector<std::unique_ptr<scene::SceneStore>> stores;
  for (const std::size_t budget : budgets) {
    stores.push_back(std::make_unique<scene::SceneStore>(
        scene::SceneStoreConfig{budget, 0, source}));
  }
  std::deque<std::shared_ptr<const scene::GaussianScene>> pins;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto t0 = Clock::now();
    pins.push_back(stores.at(shard_of.at(i))->acquire(stream[i]));
    tracer.record("scene.acquire", t0, Clock::now());
    while (pins.size() > window) pins.pop_front();
  }
  pins.clear();
  std::size_t misses = 0, evictions = 0, peak_bytes = 0;
  for (const auto& store : stores) {
    const scene::SceneStoreStats counts = store->stats();
    misses += counts.misses;
    evictions += counts.evictions;
    peak_bytes += counts.peak_resident_bytes;
  }
  report.set("scene.miss_ratio",
             static_cast<double>(misses) /
                 static_cast<double>(std::max<std::size_t>(1, stream.size())));
  report.set("scene.evictions", static_cast<double>(evictions));
  report.set("scene.peak_resident_mb", static_cast<double>(peak_bytes) / 1e6);

  // Timings, per distinct key on a fresh unbounded store: a miss (source
  // load + quantize + working copy), a cold acquire after every pin dropped
  // (re-inflate from the quantized rest state, which the store counts as a
  // hit), and hot acquires while a pin is held.
  const std::set<std::string> keys(stream.begin(), stream.end());
  std::vector<double> miss_ms, cold_ms, hot_ms;
  for (const std::string& key : keys) {
    for (int rep = 0; rep < 2; ++rep) {
      scene::SceneStore fresh(scene::SceneStoreConfig{0, 0, source});
      auto t0 = Clock::now();
      auto pin = fresh.acquire(key);
      auto t1 = Clock::now();
      tracer.record("scene.load_miss", t0, t1);
      miss_ms.push_back(ms_between(t0, t1));
      pin.reset();
      t0 = Clock::now();
      pin = fresh.acquire(key);
      t1 = Clock::now();
      tracer.record("scene.acquire_cold", t0, t1);
      cold_ms.push_back(ms_between(t0, t1));
      for (int i = 0; i < 20; ++i) {
        t0 = Clock::now();
        const auto again = fresh.acquire(key);
        t1 = Clock::now();
        hot_ms.push_back(ms_between(t0, t1));
      }
      tracer.record("scene.acquire_hot", t0, t1);
    }
  }
  report.set("scene.load_miss_ms", median(miss_ms));
  report.set("scene.acquire_cold_ms", median(cold_ms));
  report.set("scene.acquire_hot_ms", median(hot_ms));
}

// -------------------------------------------------------- pipeline replay

void replay_pipeline(const std::vector<ReplayItem>& items, int width,
                     int height, Tracer& tracer, Report& report) {
  const auto source = std::make_shared<const scene::SyntheticSource>();
  scene::SceneStore store(scene::SceneStoreConfig{0, 0, source});
  std::map<std::string, std::shared_ptr<const scene::GaussianScene>> scenes;
  const pipeline::BlendParams blend;
  const pipeline::TileGrid grid{16, width, height};

  std::vector<double> pre_ms, sort_ms, raster_ms, dup, ppp;
  std::uint64_t evaluated = 0, blended = 0;
  constexpr int kReps = 3;
  for (const ReplayItem& item : items) {
    auto& pinned = scenes[item.scene_key];
    if (!pinned) pinned = store.acquire(item.scene_key);
    const scene::Camera camera = camera_for(item.view, width, height);
    std::vector<double> p, s, r;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t request = tracer.next_id();
      pipeline::SortStats sstats;
      pipeline::RasterStats rstats;
      const auto t0 = Clock::now();
      const auto splats = pipeline::preprocess(*pinned, camera);
      const auto t1 = Clock::now();
      const auto work = pipeline::sort_splats(splats, grid, &sstats);
      const auto t2 = Clock::now();
      pipeline::rasterize(splats, work, blend, &rstats, 1,
                          pipeline::RasterKernel::kFast);
      const auto t3 = Clock::now();
      const std::uint64_t frame =
          tracer.record("replay.frame", t0, t3, 0, request);
      tracer.record("pipeline.preprocess", t0, t1, frame, request);
      tracer.record("pipeline.sort", t1, t2, frame, request);
      tracer.record("pipeline.raster", t2, t3, frame, request);
      p.push_back(ms_between(t0, t1));
      s.push_back(ms_between(t1, t2));
      r.push_back(ms_between(t2, t3));
      if (rep == 0) {
        dup.push_back(sstats.instances_per_splat);
        ppp.push_back(rstats.mean_pairs_per_pixel(
            static_cast<std::uint64_t>(width) *
            static_cast<std::uint64_t>(height)));
        evaluated += rstats.pairs_evaluated;
        blended += rstats.pairs_blended;
      }
    }
    pre_ms.push_back(median(p));
    sort_ms.push_back(median(s));
    raster_ms.push_back(median(r));
  }
  report.set("pipeline.preprocess_ms", mean(pre_ms));
  report.set("pipeline.sort_ms", mean(sort_ms));
  report.set("pipeline.raster_ms", mean(raster_ms));
  report.set("pipeline.instances_per_splat", mean(dup));
  report.set("pipeline.pairs_per_pixel", mean(ppp));
  report.set("pipeline.blend_ratio",
             evaluated == 0 ? 0.0
                            : static_cast<double>(blended) /
                                  static_cast<double>(evaluated));
}

}  // namespace perfbench
