// Tests for the concurrent render-service runtime (src/runtime): thread-pool
// semantics (bounded queue, backpressure, graceful shutdown), service-level
// determinism (images must be bit-identical for any worker count), per-scene
// caching, drain/shutdown completing every accepted job,
// load-generator reproducibility, and the engine seam — every
// service job runs over a registry-created (or injected)
// engine::RenderBackend.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/backends.hpp"
#include "engine/registry.hpp"
#include "runtime/service.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workload.hpp"
#include "scene/generator.hpp"

namespace {

using namespace gaurast;
using namespace gaurast::runtime;

scene::GaussianScene small_scene(std::uint64_t count = 600,
                                 std::uint64_t seed = 7) {
  scene::GeneratorParams params;
  params.gaussian_count = count;
  params.seed = seed;
  return scene::generate_scene(params);
}

std::vector<scene::Camera> test_cameras(int count, int width = 64,
                                        int height = 48) {
  return scene::orbit_path(width, height, 0.9f, {0.0f, 1.2f, 0.0f}, 8.8f,
                           2.4f, count);
}

/// Injects a key->scene callable as the service's SceneSource — the
/// test-double path every scene() call resolves through.
ServiceConfig with_scenes(ServiceConfig config,
                          scene::FunctionSource::Fn fn) {
  config.scene_source =
      std::make_shared<const scene::FunctionSource>(std::move(fn));
  return config;
}

/// Backend whose render blocks on a caller-controlled gate: holds a worker
/// busy for exactly as long as a test needs, however fast frames render.
class GatedBackend : public engine::RenderBackend {
 public:
  explicit GatedBackend(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}
  std::string name() const override { return "gated"; }
  std::string describe() const override { return "test double"; }
  engine::Capabilities capabilities() const override {
    return engine::SoftwareBackend{}.capabilities();
  }
  engine::FrameOutput render(const scene::GaussianScene& scene,
                             const scene::Camera& camera,
                             const engine::FrameOptions& options)
      const override {
    entered_.fetch_add(1, std::memory_order_release);
    gate_.wait();
    return engine::SoftwareBackend{}.render(scene, camera, options);
  }

  /// Blocks until `count` render() calls have started, i.e. that many
  /// workers have dequeued a job and parked on the gate.
  void wait_until_rendering(int count) const {
    while (entered_.load(std::memory_order_acquire) < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::shared_future<void> gate_;
  mutable std::atomic<int> entered_{0};
};

/// Renders `cameras` through a fresh service and returns the images in
/// submission order (futures keep the request association regardless of
/// completion order).
std::vector<Image> render_all(const ServiceConfig& config,
                              const std::vector<scene::Camera>& cameras) {
  RenderService service(
      with_scenes(config, [](const std::string&) { return small_scene(); }));
  const ScenePtr scene = service.scene("test");
  std::vector<std::future<JobResult>> futures;
  futures.reserve(cameras.size());
  for (const scene::Camera& camera : cameras) {
    futures.push_back(service.submit({scene, camera}));
  }
  std::vector<Image> images;
  images.reserve(futures.size());
  for (std::future<JobResult>& f : futures) {
    images.push_back(f.get().frame.image);
  }
  return images;
}

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool pool({2, 8});
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_EQ(pool.tasks_executed(), 20u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, TrySubmitRejectsWhenQueueFull) {
  ThreadPool pool({1, 1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  // Occupy the single worker, then fill the single queue slot.
  pool.submit([opened] { opened.wait(); });
  pool.submit([opened] { opened.wait(); });
  EXPECT_FALSE(pool.try_submit([] {}));  // bounded queue refuses
  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_executed(), 2u);
}

TEST(ThreadPool, SubmitBlocksUntilSpaceFrees) {
  ThreadPool pool({1, 1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit([opened] { opened.wait(); });  // occupies the worker
  pool.submit([opened] { opened.wait(); });  // fills the queue
  std::atomic<bool> third_accepted{false};
  std::thread producer([&] {
    pool.submit([] {});  // must block: queue is at capacity
    third_accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load()) << "submit returned on a full queue";
  gate.set_value();  // worker drains, space frees, producer unblocks
  producer.join();
  EXPECT_TRUE(third_accepted.load());
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_executed(), 3u);
}

TEST(ThreadPool, ThrowingTaskDoesNotKillTheWorker) {
  ThreadPool pool({1, 4});
  pool.submit([] { throw Error("task failure"); });
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1) << "worker died with the throwing task";
  EXPECT_EQ(pool.tasks_failed(), 1u);
  EXPECT_EQ(pool.tasks_executed(), 2u);
}

TEST(ThreadPool, ShutdownDrainsAcceptedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool({2, 16});
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    pool.submit([opened] { opened.wait(); });
    pool.submit([opened] { opened.wait(); });
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { ++counter; });
    }
    gate.set_value();
    pool.shutdown();  // must run all 10 queued increments before joining
    EXPECT_EQ(counter.load(), 10);
    EXPECT_EQ(pool.tasks_executed(), 12u);
    EXPECT_THROW(pool.submit([] {}), Error);
    EXPECT_FALSE(pool.try_submit([] {}));
    pool.shutdown();  // idempotent
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(RenderService, ImagesBitIdenticalAcrossWorkerCounts) {
  const std::vector<scene::Camera> cameras = test_cameras(6);
  ServiceConfig one;
  one.workers = 1;
  one.backend = "sw";
  ServiceConfig four = one;
  four.workers = 4;
  const std::vector<Image> serial = render_all(one, cameras);
  const std::vector<Image> parallel = render_all(four, cameras);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].max_abs_diff(parallel[i]), 0.0f)
        << "frame " << i << " differs between 1 and 4 workers";
    EXPECT_GT(serial[i].mean_luminance(), 0.0);
  }
}

TEST(RenderService, ImagesBitIdenticalAcrossRasterThreadCounts) {
  const std::vector<scene::Camera> cameras = test_cameras(3);
  ServiceConfig one_thread;
  one_thread.workers = 2;
  one_thread.backend = "sw";
  one_thread.renderer.num_threads = 1;
  ServiceConfig four_threads = one_thread;
  four_threads.renderer.num_threads = 4;
  const std::vector<Image> a = render_all(one_thread, cameras);
  const std::vector<Image> b = render_all(four_threads, cameras);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].max_abs_diff(b[i]), 0.0f)
        << "frame " << i << " differs between num_threads 1 and 4";
  }
}

TEST(RenderService, FastKernelServesBitIdenticalFrames) {
  // The serving configuration of the fast kernel: pool workers render job
  // after job reusing their thread-local scratch arenas; every frame must
  // stay bit-identical to the reference kernel, for any worker count.
  const std::vector<scene::Camera> cameras = test_cameras(4);
  ServiceConfig reference;
  reference.workers = 2;
  reference.backend = "sw";
  ServiceConfig fast = reference;
  fast.renderer.kernel = pipeline::RasterKernel::kFast;
  const std::vector<Image> a = render_all(reference, cameras);
  const std::vector<Image> b = render_all(fast, cameras);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].max_abs_diff(b[i]), 0.0f)
        << "fast-kernel frame " << i << " deviates from reference";
  }
}

TEST(RenderService, GauRastBackendMatchesSoftwareBitExactly) {
  const std::vector<scene::Camera> cameras = test_cameras(2);
  ServiceConfig sw;
  sw.workers = 2;
  sw.backend = "sw";
  ServiceConfig hw = sw;
  hw.backend = "gaurast";
  const std::vector<Image> sw_images = render_all(sw, cameras);
  const std::vector<Image> hw_images = render_all(hw, cameras);
  ASSERT_EQ(sw_images.size(), hw_images.size());
  for (std::size_t i = 0; i < sw_images.size(); ++i) {
    EXPECT_EQ(sw_images[i].max_abs_diff(hw_images[i]), 0.0f)
        << "hardware-model frame " << i << " deviates from software";
  }
}

TEST(RenderService, GScoreBackendServesFrames) {
  ServiceConfig config;
  config.workers = 1;
  config.backend = "gscore";
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(300); }));
  const ScenePtr scene = service.scene("s");
  const JobResult result =
      service.submit({scene, test_cameras(1)[0]}).get();
  EXPECT_GT(result.frame.image.mean_luminance(), 0.0);
  EXPECT_GT(result.raster_model_ms, 0.0);
}

TEST(RenderService, SceneCacheLoadsEachKeyOnce) {
  ServiceConfig config;
  config.workers = 1;
  config.backend = "sw";
  std::atomic<int> loads{0};
  RenderService service(
      with_scenes(config, [&loads](const std::string&) {
        ++loads;
        return small_scene(200);
      }));
  const ScenePtr a1 = service.scene("a");
  const ScenePtr a2 = service.scene("a");
  const ScenePtr b = service.scene("b");
  EXPECT_EQ(loads.load(), 2);
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_NE(a1.get(), b.get());
  EXPECT_EQ(service.cached_scene_count(), 2u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.scene_cache_hits, 1u);
  EXPECT_EQ(stats.scene_cache_misses, 2u);
}

TEST(RenderService, TrySubmitShedsLoadOnFullQueue) {
  std::promise<void> gate;
  const auto gated = std::make_shared<GatedBackend>(gate.get_future().share());
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.backend_instance = gated;
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(); }));
  // The first frame parks the worker on the gate, so the follow-up
  // submissions observe worker-busy + queue-full however fast it renders.
  const ScenePtr scene = service.scene("s");
  const std::vector<scene::Camera> cams = test_cameras(1);
  std::vector<std::future<JobResult>> futures;
  futures.push_back(service.submit({scene, cams[0]}));
  gated->wait_until_rendering(1);
  // The first request is on the worker; with capacity 1, at most one more
  // immediate submission can be accepted before the bounded queue must
  // reject.
  bool saw_rejection = false;
  for (int i = 0; i < 4 && !saw_rejection; ++i) {
    auto attempt = service.try_submit({scene, cams[0]});
    if (!attempt) {
      saw_rejection = true;
    } else {
      futures.push_back(std::move(*attempt));
    }
  }
  EXPECT_TRUE(saw_rejection) << "bounded queue never rejected";
  gate.set_value();
  for (auto& f : futures) f.get();
  EXPECT_GE(service.stats().rejected, 1u);
}

TEST(RenderService, StatsAreConsistent) {
  ServiceConfig config;
  config.workers = 2;
  config.backend = "sw";
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(400); }));
  const ScenePtr scene = service.scene("s");
  std::vector<std::future<JobResult>> futures;
  for (const scene::Camera& camera : test_cameras(5)) {
    futures.push_back(service.submit({scene, camera}));
  }
  for (auto& f : futures) {
    const JobResult r = f.get();
    EXPECT_GE(r.latency_ms, r.service_ms);
    EXPECT_GE(r.queue_wait_ms, 0.0);
    EXPECT_GT(r.job_id, 0u);
  }
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_GT(stats.throughput_fps, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
  EXPECT_LE(stats.latency_p99_ms, stats.latency_max_ms + 1e-9);
  EXPECT_GT(stats.worker_utilization, 0.0);
  EXPECT_LE(stats.worker_utilization, 1.0);
  const std::string json = service_stats_json(stats);
  EXPECT_NE(json.find("\"completed\":5"), std::string::npos);
  EXPECT_NE(json.find("\"latency_p99_ms\":"), std::string::npos);
}

TEST(RenderService, StatsJsonHasNoStageBreakdown) {
  // serve-stats v3 dropped the per-stage array along with the only
  // executor that filled it; the document is flat scalars.
  ServiceConfig config;
  config.workers = 1;
  config.backend = "sw";
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(200); }));
  const ScenePtr scene = service.scene("s");
  service.submit({scene, test_cameras(1)[0]}).get();
  const std::string json = service_stats_json(service.stats());
  EXPECT_EQ(json.find("stages"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}') << json;
}

TEST(RenderService, DrainWaitsForEveryAcceptedJob) {
  ServiceConfig config;
  config.workers = 3;
  config.backend = "sw";
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(400); }));
  const ScenePtr scene = service.scene("s");
  for (const scene::Camera& camera : test_cameras(6)) {
    service.submit({scene, camera});  // futures dropped: drain must wait
  }
  service.drain();
  EXPECT_EQ(service.stats().completed, 6u);
}

TEST(RenderService, ShutdownWhileQueueFullDrainsEveryAcceptedJob) {
  // Park the only worker on a closed gate with the queue full behind it,
  // call shutdown() while all of it is in flight, and require that
  // shutdown completes every accepted job (values, not broken promises)
  // before returning.
  std::promise<void> gate;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.backend_instance =
      std::make_shared<const GatedBackend>(gate.get_future().share());
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(150); }));
  const ScenePtr scene = service.scene("s");
  const scene::Camera camera = test_cameras(1)[0];

  constexpr int kJobs = 3;  // one on the gated worker, two queued
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(service.submit({scene, camera}));
  }

  std::atomic<bool> shutdown_returned{false};
  std::thread closer([&] {
    service.shutdown();
    shutdown_returned = true;
  });
  // Give shutdown a moment to park against the gated worker: it must wait
  // for the drain, not give up.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shutdown_returned.load())
      << "shutdown returned while accepted jobs were still gated";

  gate.set_value();
  closer.join();
  EXPECT_TRUE(shutdown_returned.load());
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get()) << "accepted job dropped during shutdown";
  }
  EXPECT_EQ(service.stats().completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_THROW(service.submit({scene, camera}), Error)
      << "intake stayed open after shutdown";
}

TEST(RenderService, ServesOverAnyRegistryCreatedBackend) {
  // The service resolves its backend through the engine registry, so every
  // registered operating point — including the non-default ones — serves
  // without any runtime-side dispatch code.
  for (const char* name : {"edge-fp16", "orin-agx"}) {
    ServiceConfig config;
    config.workers = 1;
    config.backend = name;
    RenderService service(with_scenes(
        config, [](const std::string&) { return small_scene(300); }));
    EXPECT_EQ(service.backend().name(), name);
    const ScenePtr scene = service.scene("s");
    const JobResult result =
        service.submit({scene, test_cameras(1)[0]}).get();
    EXPECT_GT(result.frame.image.mean_luminance(), 0.0) << name;
    EXPECT_GT(result.raster_model_ms, 0.0)
        << name << " is a hardware model; jobs must carry modeled metrics";
  }
}

TEST(RenderService, UnknownBackendNameFailsAtConstruction) {
  ServiceConfig config;
  config.backend = "gsocre";
  try {
    RenderService service(config);
    FAIL() << "service constructed over an unknown backend";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown backend 'gsocre'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("gscore"), std::string::npos)
        << "diagnostic does not enumerate registered names: " << message;
  }
}

TEST(RenderService, InjectedBackendInstanceIsUsed) {
  // A caller-constructed backend (here a counting wrapper over the software
  // path) bypasses the registry entirely — the extension seam for tests and
  // embedders.
  class CountingBackend : public engine::RenderBackend {
   public:
    explicit CountingBackend(std::atomic<int>& calls) : calls_(&calls) {}
    std::string name() const override { return "counting"; }
    std::string describe() const override { return "test double"; }
    engine::Capabilities capabilities() const override {
      return engine::SoftwareBackend{}.capabilities();
    }
    engine::FrameOutput render(const scene::GaussianScene& scene,
                               const scene::Camera& camera,
                               const engine::FrameOptions& options)
        const override {
      ++*calls_;
      return engine::SoftwareBackend{}.render(scene, camera, options);
    }

   private:
    std::atomic<int>* calls_;
  };

  std::atomic<int> calls{0};
  ServiceConfig config;
  config.workers = 2;
  config.backend_instance = std::make_shared<const CountingBackend>(calls);
  RenderService service(with_scenes(
      config, [](const std::string&) { return small_scene(200); }));
  EXPECT_EQ(service.backend().name(), "counting");
  const ScenePtr scene = service.scene("s");
  std::vector<std::future<JobResult>> futures;
  for (const scene::Camera& camera : test_cameras(3)) {
    futures.push_back(service.submit({scene, camera}));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(calls.load(), 3);
}

TEST(Workload, GenerationIsDeterministicInSeed) {
  WorkloadConfig config;
  config.jobs = 16;
  const std::vector<WorkloadRequest> a = generate_workload(config);
  const std::vector<WorkloadRequest> b = generate_workload(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scene_key, b[i].scene_key);
    EXPECT_EQ(a[i].camera.eye().x, b[i].camera.eye().x);
    EXPECT_EQ(a[i].camera.eye().z, b[i].camera.eye().z);
    EXPECT_EQ(a[i].arrival_offset_ms, b[i].arrival_offset_ms);
  }
  WorkloadConfig other = config;
  other.seed = 43;
  const std::vector<WorkloadRequest> c = generate_workload(other);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = a[i].scene_key != c[i].scene_key ||
                     a[i].camera.eye().x != c[i].camera.eye().x;
  }
  EXPECT_TRUE(any_difference) << "seed had no effect on the workload";
}

TEST(Workload, ArrivalDisciplinesShapeOffsets) {
  WorkloadConfig closed;
  closed.jobs = 8;
  for (const WorkloadRequest& r : generate_workload(closed)) {
    EXPECT_EQ(r.arrival_offset_ms, 0.0);
  }
  WorkloadConfig poisson = closed;
  poisson.arrival = ArrivalModel::kPoisson;
  poisson.rate_hz = 1000.0;
  double last = 0.0;
  for (const WorkloadRequest& r : generate_workload(poisson)) {
    EXPECT_GE(r.arrival_offset_ms, last);
    last = r.arrival_offset_ms;
  }
  EXPECT_GT(last, 0.0);
}

TEST(Workload, MixedScenesExerciseTheCache) {
  WorkloadConfig config;
  config.jobs = 24;
  std::size_t distinct = 0;
  {
    std::vector<std::string> keys;
    for (const WorkloadRequest& r : generate_workload(config)) {
      if (std::find(keys.begin(), keys.end(), r.scene_key) == keys.end()) {
        keys.push_back(r.scene_key);
      }
    }
    distinct = keys.size();
  }
  EXPECT_GT(distinct, 1u);
  EXPECT_LE(distinct, config.scene_sizes.size());
}

TEST(Workload, RunAccountsForEveryRequest) {
  ServiceConfig service_config;
  service_config.workers = 2;
  service_config.backend = "sw";
  RenderService service(service_config);
  WorkloadConfig config;
  config.jobs = 6;
  config.width = 48;
  config.height = 36;
  config.scene_sizes = {300, 900};
  const WorkloadRunResult run = run_workload(service, config);
  EXPECT_EQ(run.accepted, 6u);
  EXPECT_EQ(run.rejected, 0u);
  EXPECT_EQ(run.stats.completed, 6u);
  EXPECT_GT(run.stats.throughput_fps, 0.0);
  // One miss per distinct scene class drawn; every other acquire is a
  // hit. The driver warms each request's scene before the arrival clock
  // starts and then resolves it again per request, so each of the 6
  // requests contributes two acquires.
  EXPECT_GE(run.stats.scene_cache_misses, 1u);
  EXPECT_LE(run.stats.scene_cache_misses, 2u);
  EXPECT_EQ(run.stats.scene_cache_hits + run.stats.scene_cache_misses, 12u);
}

}  // namespace
