// perfbench — the repository benchmark.
//
//   perfbench --workload <hot-wire|churn-fleet|hw-sim> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--corrupt-one]
//             [--trace-out <file>]
//
// Prints a host calibration line, then (traced runs) a per-layer self-time
// line, and last the one-line result object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. Exits 1 without a result on any error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::MetricDef;

// The metric catalogue: every name and unit the benchmark reports. A layer
// a workload does not exercise reads 0.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_fps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"model_raster_us", "us"},
    {"model_fps", "1/s"},
    {"model_energy_mj", "mJ"},
};

const std::vector<MetricDef> kPerLayer = {
    {"pipeline.raster_ms", "ms"},
    {"pipeline.preprocess_ms", "ms"},
    {"pipeline.sort_ms", "ms"},
    {"pipeline.instances_per_splat", "ratio"},
    {"pipeline.pairs_per_pixel", "pairs/px"},
    {"pipeline.blend_ratio", "ratio"},
    {"core.hw_raster_ms", "ms"},
    {"core.sim_pairs_per_s", "pairs/s"},
    {"core.pe_utilization", "ratio"},
    {"scene.load_miss_ms", "ms"},
    {"scene.acquire_cold_ms", "ms"},
    {"scene.acquire_hot_ms", "ms"},
    {"scene.miss_ratio", "ratio"},
    {"scene.evictions", "count"},
    {"scene.peak_resident_mb", "MB"},
    {"runtime.queue_wait_ms", "ms"},
    {"runtime.service_ms", "ms"},
    {"runtime.worker_utilization", "ratio"},
    {"runtime.rejected", "count"},
    {"net.overhead_ms", "ms"},
    {"net.encode_ms", "ms"},
    {"net.decode_ms", "ms"},
    {"net.response_mb", "MB"},
    {"cluster.route_overhead_ms", "ms"},
    {"cluster.retries", "count"},
    {"cluster.failovers", "count"},
    {"cluster.shed", "count"},
    {"cluster.shard_skew", "ratio"},
    {"trace.untraced_fps", "1/s"},
    {"trace.traced_fps", "1/s"},
    {"trace.overhead_pct", "%"},
    {"verify.failed_frac", "ratio"},
    {"host.spin_ms", "ms"},
    {"host.effective_cores", "cores"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <hot-wire|churn-fleet|hw-sim> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--corrupt-one] [--trace-out <file>]\n";
  std::exit(1);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        o.workload = value();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        o.trace_out = value();
      } else if (flag == "--tiny") {
        o.tiny = true;
      } else if (flag == "--corrupt-one") {
        o.corrupt_one = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_trace) usage("--trace is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    const perfbench::Calibration cal = perfbench::calibrate_host();
    std::printf("%s\n", cal.json().c_str());
    std::fflush(stdout);

    perfbench::Tracer tracer(options.trace);
    perfbench::Report report;
    if (options.workload == "hot-wire") {
      perfbench::run_hot_wire(options, tracer, report);
    } else if (options.workload == "churn-fleet") {
      perfbench::run_churn_fleet(options, tracer, report);
    } else if (options.workload == "hw-sim") {
      perfbench::run_hw_sim(options, tracer, report);
    } else {
      usage("unknown workload " + options.workload);
    }
    report.set("verify.failed_frac",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted));
    report.set("host.spin_ms", cal.spin_ms);
    report.set("host.effective_cores", cal.effective_cores);
    if (report.attempted == 0) report.invariants_ok = false;

    if (options.trace) {
      std::string layers = "{\"trace\": {\"spans\": " +
                           std::to_string(tracer.size()) + ", \"layers\": {";
      bool first = true;
      for (const perfbench::LayerTime& l : tracer.layer_times()) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                      "\"self_ms\": %.3f}",
                      first ? "" : ", ", l.name.c_str(),
                      static_cast<unsigned long long>(l.count), l.total_ms,
                      l.self_ms);
        layers += buf;
        first = false;
      }
      std::printf("%s}}}\n", layers.c_str());
      if (!options.trace_out.empty()) tracer.write(options.trace_out);
    } else {
      for (const MetricDef& def : kEndToEnd) {
        const auto it = report.values.find(def.name);
        if (it == report.values.end() || it->second <= 0.0) {
          // End-to-end metrics are never 0 on a working run.
          std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n",
                       def.name);
          report.invariants_ok = false;
        }
      }
    }
    std::printf("%s\n",
                report.json(options.trace ? kPerLayer : kEndToEnd).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
