// Benchmark binary for the I-BGP route-reflection reproduction.
//
//   perfbench --workload <converge-scale|churn-campaign|daemon-ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload single-threaded, checks its outputs, and prints a
// human-readable report followed by one JSON result line.  With --trace 0
// the result carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run (see bench.hpp for the timing rules).
// Exit status: 0 when every check passed, 1 on a failed check or error,
// 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <string>

#include "bench.hpp"
#include "core/instance.hpp"
#include "netsim/shortest_paths.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string out_dir() {
  const std::string dir = ".bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

namespace {

// Prints the self-time table of one traced repetition and records one
// per-layer metric per row ("self_ms.<layer>", 0 for idle layers).
void report_self_times(const Tracer& tracer, int root, Report& report) {
  const auto self = tracer.self_times(root);
  const double total = tracer.duration(root);
  double sum = 0;
  std::printf("self time per layer, traced repetition (%.3f ms):\n", total * 1e3);
  auto row = [&](const std::string& layer) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0 : it->second;
    sum += s;
    std::printf("  %-14s %10.3f ms %6.1f%%\n", layer.c_str(), s * 1e3,
                total > 0 ? 100 * s / total : 0);
    report.metric("self_ms." + layer, s * 1e3, "ms");
  };
  for (const auto& layer : layers()) row(layer);
  row("unattributed");
  std::printf("  %-14s %10.3f ms (parent span %.3f ms)\n", "sum", sum * 1e3, total * 1e3);
}

}  // namespace

Timings repeat(Workload& workload, const Options& options, double reps_per_second,
               Ledger& ledger) {
  Timings timings;
  timings.k = warm_reps(reps_per_second, options.seconds);
  double best_traced = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep <= timings.k; ++rep) {
    const bool traced = options.trace && rep > 0 && rep % 2 == 0;
    Tracer* t = traced ? &timings.tracer : nullptr;
    RepResult result;
    int root_id = -1;
    {
      const Scope root(t, "rep", "", static_cast<std::int64_t>(rep));
      root_id = root.id();
      result = workload.run(rep, t);
    }
    workload.check(ledger, result);
    if (rep == 0) continue;  // cold repetition
    timings.setup.push_back(result.setup_s);
    timings.generate.push_back(result.generate_s);
    fold_min(traced ? timings.traced_items : timings.items, result.items);
    for (const auto& [name, part] : result.parts) fold_min(timings.parts[name], part);
    if (traced && sum(result.items) < best_traced) {
      best_traced = sum(result.items);
      timings.best_root = root_id;
      timings.layers = std::move(result.layers);
    }
  }
  return timings;
}

void report_end_to_end(const Timings& timings, double deliveries, Report& report) {
  report.metric("setup_s", median(timings.setup), "s");
  report.metric("run_s", timings.run_s(), "s");
  report.metric("deliveries_per_s", deliveries / timings.run_s(), "1/s");
}

bool report_traced(const Timings& timings, const std::string& workload, Report& report) {
  report.metric("topo.generate_s", fastest(timings.generate), "s");
  report.append(timings.layers);
  report.metric("obs.trace_overhead_share", sum(timings.traced_items) / timings.run_s() - 1,
                "share");
  report_self_times(timings.tracer, timings.best_root, report);
  return timings.tracer.dump(out_dir() + "/spans-" + workload + ".jsonl");
}

double time_spf_all_pairs(const std::vector<const ibgp::core::Instance*>& instances,
                          Ledger& ledger) {
  std::vector<double> spf;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    for (const auto* inst : instances) {
      const ibgp::netsim::ShortestPaths paths(inst->physical());
      ledger.check(paths.fingerprint() == inst->igp().fingerprint(), "all-pairs SPF differs");
    }
    spf.push_back(now_s() - t0);
  }
  return fastest(spf);
}

void report_registry_layers(const ibgp::obs::MetricsRegistry& registry, Report& report,
                            bool engine_profile) {
  std::map<std::string, ibgp::obs::MetricSample> by_name;
  for (auto& sample : registry.snapshot()) by_name.emplace(sample.name, std::move(sample));
  auto q = [&](const char* name, double quant) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.total == 0) return 0.0;
    return ibgp::obs::histogram_quantile(it->second.bounds, it->second.counts, quant);
  };
  auto sum = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.sum);
  };
  if (const auto it = by_name.find("engine.queue_depth_max"); it != by_name.end()) {
    report.metric("engine.queue_depth_max", static_cast<double>(it->second.gauge_value), "count");
  }
  report.metric("netsim.spf_recompute_us_p50", q("spf.recompute_ns", 0.5) / 1e3, "us");
  report.metric("netsim.spf_recompute_us_p99", q("spf.recompute_ns", 0.99) / 1e3, "us");
  if (!engine_profile) return;
  report.metric("bgp.decision_ns_p50", q("engine.span.decision_ns", 0.5), "ns");
  report.metric("engine.delivery_ns_p50", q("engine.span.delivery_ns", 0.5), "ns");
  report.metric("engine.delivery_ns_p99", q("engine.span.delivery_ns", 0.99), "ns");
  report.metric("engine.transfer_ns_p50", q("engine.span.transfer_ns", 0.5), "ns");
  // Decision and transfer spans nest inside the sampled delivery span; the
  // rest of the delivery's time is not covered by any program span.
  const double delivery = sum("engine.span.delivery_ns");
  const double covered = sum("engine.span.decision_ns") + sum("engine.span.transfer_ns");
  report.metric("engine.unattributed_share", delivery > 0 ? 1 - covered / delivery : 0, "share");
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <converge-scale|churn-campaign|daemon-ingest> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        options.trace = value == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  using Runner = int (*)(const perfbench::Options&, perfbench::Report&, perfbench::Ledger&);
  const std::map<std::string, Runner> runners = {
      {"converge-scale", perfbench::run_converge_scale},
      {"churn-campaign", perfbench::run_churn_campaign},
      {"daemon-ingest", perfbench::run_daemon_ingest},
  };
  const auto runner = runners.find(options.workload);
  if (runner == runners.end() || !(options.seconds > 0 && options.seconds <= 120)) return usage();

  std::printf("workload %s, seed %llu, %g s, trace %d (inputs are fixed per workload: "
              "perfbench/README.md)\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  perfbench::Report report;
  perfbench::Ledger ledger;
  try {
    const int rc = runner->second(options, report, ledger);
    if (rc != 0) return rc;
    if (options.trace) {
      report.metric("failed_share",
                    static_cast<double>(ledger.failed()) /
                        static_cast<double>(std::max<std::size_t>(1, ledger.attempted())),
                    "share");
      report.finalize(perfbench::per_layer_metrics());
    } else {
      report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
      report.finalize(perfbench::end_to_end_metrics());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("metrics:\n");
  report.print_table();
  report.print_result(ledger);
  std::fflush(stdout);
  return ledger.failed() == 0 && ledger.attempted() > 0 ? 0 : 1;
}
