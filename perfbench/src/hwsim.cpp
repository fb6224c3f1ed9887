// hw-sim: the gaurast engine backend (the FP32 300-PE GauRast model)
// renders a fixed orbit in process, one frame after another on one thread.
// Host time here is almost all the core functional rasterizer model; the
// modelled (simulated) metrics come back with every frame.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/profile_sim.hpp"
#include "core/scheduler.hpp"
#include "engine/registry.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"
#include "scene/profile.hpp"
#include "scene/store.hpp"

namespace perfbench {

using namespace gaurast;

namespace {

/// The modelled metrics of one frame; a deterministic model repeats them
/// exactly for the same (scene, view).
struct ModelSample {
  double raster_ms = 0.0;
  double fps = 0.0;
  double energy_mj = 0.0;
  double utilization = 0.0;
  bool operator==(const ModelSample&) const = default;
};

/// The paper-validation line: the full-scale NeRF-360 profile averages the
/// CLI `report` command prints, with their error against the paper.
void print_paper_validation() {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const core::ProfileSimulator sim(core::RasterizerConfig::scaled300());
  double raster = 0.0, fps = 0.0, e2e = 0.0;
  const auto profiles = scene::nerf360_profiles();
  for (const auto& p : profiles) {
    const core::EndToEndResult r =
        core::schedule_frame(cuda.frame_times(p), sim.simulate(p).runtime_ms());
    raster += r.raster_speedup();
    fps += r.pipelined_fps();
    e2e += r.end_to_end_speedup();
  }
  const double n = static_cast<double>(profiles.size());
  const auto err = [](double got, double paper) {
    return (got - paper) / paper * 100.0;
  };
  std::printf(
      "{\"paper_validation\": {\"raster_speedup\": %.3f, \"paper_raster\": 23, "
      "\"raster_err_pct\": %.2f, \"fps\": %.3f, \"paper_fps\": 24, "
      "\"fps_err_pct\": %.2f, \"e2e_speedup\": %.3f, \"paper_e2e\": 6, "
      "\"e2e_err_pct\": %.2f}}\n",
      raster / n, err(raster / n, 23.0), fps / n, err(fps / n, 24.0), e2e / n,
      err(e2e / n, 6.0));
}

}  // namespace

void run_hw_sim(const Options& options, Tracer& tracer, Report& report) {
  print_paper_validation();
  const int width = options.tiny ? 64 : 320;
  const int height = options.tiny ? 48 : 240;
  // A fixed scene, so set-up does the same work on every run; the seed
  // jitters the orbit and orders the views. An odd view count keeps the
  // median frame inside one view's cost band (with an even one it sat on
  // the boundary of two, and a single frame more of either moved it).
  const std::string key =
      scene::synthetic_scene_key(options.tiny ? 500 : 8000, 1);
  const std::vector<View> views = orbit_views(5, orbit_jitter(options.seed));
  const std::vector<int> order =
      view_order(static_cast<int>(views.size()), options.seed);
  const auto source = std::make_shared<const scene::SyntheticSource>();

  std::vector<std::uint64_t> refs;  // per view, made after set-up
  std::unique_ptr<engine::RenderBackend> backend;
  std::unique_ptr<scene::SceneStore> store;
  std::shared_ptr<const scene::GaussianScene> scene;
  const engine::FrameOptions frame_options;
  std::map<int, ModelSample> model;  // per view
  bool corrupt_pending = options.corrupt_one;
  std::vector<double> frame_ms, raster_ms;
  std::uint64_t pairs = 0;
  double raster_s = 0.0;

  // One frame through the backend's three stages (render() is exactly this
  // composition), so traced and untraced frames run the same calls and only
  // the span records differ. Returns its host milliseconds and whether it
  // passed verification.
  const auto render_view = [&](int v) {
    const scene::Camera camera =
        camera_for(views[static_cast<std::size_t>(v)], width, height);
    const auto t0 = Clock::now();
    pipeline::FrameResult frame =
        backend->stage_preprocess(*scene, camera, frame_options);
    const auto t1 = Clock::now();
    backend->stage_sort(frame, frame_options);
    const auto t2 = Clock::now();
    engine::FrameOutput out = backend->stage_raster(std::move(frame),
                                                    frame_options);
    const auto t3 = Clock::now();
    if (tracer.enabled()) {
      const std::uint64_t request = tracer.next_id();
      const std::uint64_t root =
          tracer.record("engine.render", t0, t3, 0, request);
      tracer.record("engine.stage_preprocess", t0, t1, root, request);
      tracer.record("engine.stage_sort", t1, t2, root, request);
      tracer.record("core.raster_prepared", t2, t3, root, request);
      raster_ms.push_back(ms_between(t2, t3));
      raster_s += ms_between(t2, t3) / 1000.0;
      pairs += out.frame.raster_stats.pairs_evaluated;
    }
    const double ms = ms_between(t0, t3);
    Image& image = out.frame.image;
    if (corrupt_pending && image.pixel_count() > 0) {
      corrupt_pending = false;
      image.pixels()[0].x = std::nextafter(image.pixels()[0].x, 2.0f);
    }
    const bool ok = out.hw.has_value() &&
                    hash_image(image) == refs[static_cast<std::size_t>(v)];
    report.count(ok);
    if (out.hw) {
      const ModelSample sample{out.hw->raster_model_ms, out.hw->pipelined_fps(),
                               out.hw->energy_soc_mj, out.hw->utilization};
      const auto [it, first] = model.emplace(v, sample);
      if (!first && !(it->second == sample)) report.invariants_ok = false;
    }
    return std::pair<double, bool>{ms, ok};
  };

  // Set-up, repeated: backend creation, the scene load and a first frame
  // of the warm-up view, outside the orbit, so set-up does the same work
  // on every run and measures the time to the first frame. The scene load
  // alone (~20 ms) varied by a quarter from process to process.
  const View warm = warm_view();
  std::vector<double> setup_ms;
  std::vector<std::uint64_t> warm_hashes;
  const int reps = options.trace || options.tiny ? 1 : 5;
  for (int rep = 0; rep < reps; ++rep) {
    const OneCpu one_cpu;
    scene.reset();
    store.reset();
    backend.reset();
    const auto t0 = Clock::now();
    backend = engine::create("gaurast");
    store = std::make_unique<scene::SceneStore>(
        scene::SceneStoreConfig{0, 0, source});
    scene = store->acquire(key);
    const engine::FrameOutput first = backend->render(
        *scene, camera_for(warm, width, height), frame_options);
    setup_ms.push_back(ms_since(t0));
    warm_hashes.push_back(first.hw ? hash_image(first.frame.image) : 0);
  }

  // References: the sw reference kernel on the same working copy. They
  // are made after set-up so set-up starts from the same heap whatever
  // the references leave behind.
  {
    scene::SceneStore ref_store(scene::SceneStoreConfig{0, 0, source});
    const auto ref_scene = ref_store.acquire(key);
    const auto reference = engine::create("sw");
    engine::FrameOptions ref_options;
    ref_options.pipeline.num_threads = 4;  // bit-identical for any count
    const auto ref_hash = [&](const View& v) {
      return hash_image(
          reference->render(*ref_scene, camera_for(v, width, height),
                            ref_options)
              .frame.image);
    };
    for (const View& v : views) refs.push_back(ref_hash(v));
    const std::uint64_t warm_ref = ref_hash(warm);
    for (const std::uint64_t h : warm_hashes) report.count(h == warm_ref);
  }

  reset_peak_rss();  // the peak covers the window, as on the serving side

  // Renders frames until `seconds` pass; adds to the (verified frames,
  // seconds) tally.
  std::size_t step = 0;  // position in the seed's view order
  const auto run_window = [&](double seconds, std::pair<int, double>& tally) {
    const OneCpu one_cpu;
    const auto start = Clock::now();
    const auto deadline = deadline_after(start, seconds);
    while (Clock::now() < deadline) {
      const auto [ms, ok] = render_view(order[step]);
      frame_ms.push_back(ms);
      step = (step + 1) % order.size();
      if (ok) ++tally.first;
    }
    tally.second += ms_since(start) / 1000.0;
  };
  const auto fps = [](const std::pair<int, double>& tally) {
    return static_cast<double>(tally.first) / tally.second;
  };

  if (!options.trace) {
    std::pair<int, double> window{0, 0.0};
    run_window(options.seconds, window);
    report.set("setup_s", median(setup_ms) / 1000.0);
    report.set("throughput_fps", fps(window));
    report.set("latency_p50_ms", percentile(frame_ms, 50.0));
    report.set("latency_p95_ms", percentile(frame_ms, 95.0));
    report.set("peak_rss_mb", peak_rss_mb());
  } else {
    // Quarters: untraced, traced, traced, untraced (as in serving).
    std::pair<int, double> plain{0, 0.0}, traced{0, 0.0};
    for (const bool on : {false, true, true, false}) {
      tracer.set_enabled(on);
      run_window(options.seconds / 4, on ? traced : plain);
    }
    tracer.set_enabled(true);
    report.set("trace.untraced_fps", fps(plain));
    report.set("trace.traced_fps", fps(traced));
    report.set("trace.overhead_pct",
               (fps(plain) / fps(traced) - 1.0) * 100.0);
    report.set("core.hw_raster_ms", median(raster_ms));
    report.set("core.sim_pairs_per_s",
               raster_s > 0.0 ? static_cast<double>(pairs) / raster_s : 0.0);
  }

  // Modelled metrics are a mean over the whole orbit, so views the window
  // did not reach are rendered (and verified) now, outside the timing.
  const bool was_tracing = tracer.enabled();
  tracer.set_enabled(false);
  for (int v = 0; v < static_cast<int>(views.size()); ++v) {
    if (model.count(v) == 0) render_view(v);
  }
  tracer.set_enabled(was_tracing);
  ModelSample sum;
  for (const auto& [v, s] : model) {
    sum.raster_ms += s.raster_ms;
    sum.fps += s.fps;
    sum.energy_mj += s.energy_mj;
    sum.utilization += s.utilization;
  }
  const double n = static_cast<double>(model.size());
  report.set("model_raster_us", sum.raster_ms * 1000.0 / n);
  report.set("model_fps", sum.fps / n);
  report.set("model_energy_mj", sum.energy_mj / n);
  report.set("core.pe_utilization", sum.utilization / n);

  if (options.trace) {
    std::vector<ReplayItem> items;
    for (const View& v : views) items.push_back(ReplayItem{key, v});
    replay_pipeline(items, width, height, tracer, report);
    probe_scene_store(std::vector<std::string>(8, key),
                      std::vector<std::size_t>(8, 0), {0}, 1, tracer, report);
  }
}

}  // namespace perfbench
