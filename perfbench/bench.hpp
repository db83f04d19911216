#pragma once
// Shared machinery of the benchmark binary: options, clocks, order
// statistics, the correctness ledger, the metric report, the span recorder
// used by traced runs, and the repetition driver every workload runs under.
//
// Timing discipline.  A run makes one cold repetition, which is discarded,
// and k warm ones; k is fixed per workload and run length.  Every
// repetition rebuilds its state outside the timed section and does
// identical work.  A timed unit is made of items (one convergence, 21
// campaigns, ~1,400 wire lines); each item's time is the fastest of its k
// observations, run_s is the sum of those, and item percentiles are taken
// over items.  The host's speed for memory-heavy code swings in phases of
// about 0.5 s to several seconds, and the fastest of k short observations is
// what stays put across runs.  setup_s is the median of the k set-up times.
// No single call shorter than a microsecond is ever timed on its own: cheap
// calls are timed in batches and divided.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ibgp::core {
class Instance;
}
namespace ibgp::obs {
class MetricsRegistry;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Warm repetitions for a run of `seconds`, given how many warm
/// repetitions one second of the workload holds on the reference host.
/// Fixed per workload, so equal arguments always do equal work.
inline std::size_t warm_reps(double per_second, double seconds) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(per_second * seconds + 0.5));
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

inline double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

/// Per-item fastest-of-k: folds one repetition's per-item timings into the
/// running minimum of each item.
inline void fold_min(std::vector<double>& best, const std::vector<double>& rep) {
  if (best.empty()) best.assign(rep.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < rep.size() && i < best.size(); ++i) {
    best[i] = std::min(best[i], rep[i]);
  }
}

/// Counts checked operations and failed checks; a failed check prints why.
class Ledger {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records one check; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }
  /// Pins a value that must repeat exactly across repetitions.
  void same(const std::string& key, std::uint64_t value) {
    const auto [it, inserted] = pinned_.emplace(key, value);
    if (!inserted) {
      check(it->second == value, key + " changed: " + std::to_string(it->second) + " -> " +
                                     std::to_string(value));
    }
  }
  [[nodiscard]] std::uint64_t pinned(const std::string& key) const {
    const auto it = pinned_.find(key);
    return it == pinned_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::uint64_t> pinned_;
};

/// The layers a span can be charged to, in report order.  Names follow the
/// src/ modules the spanned call enters.
inline const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "topo", "netsim", "core", "engine", "fault", "analysis", "ckpt", "daemon", "daemon.wal"};
  return names;
}

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics a run with --trace 0 reports, on every workload.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"run_s", "s"}, {"deliveries_per_s", "1/s"}, {"peak_rss_mb", "MB"}};
  return specs;
}

/// The metrics a run with --trace 1 reports, on every workload; a layer the
/// workload leaves idle reports 0.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"topo.generate_s", "s"},
        {"netsim.spf_all_pairs_s", "s"},
        {"netsim.spf_epochs", "count"},
        {"netsim.spf_recompute_us_p50", "us"},
        {"netsim.spf_recompute_us_p99", "us"},
        {"core.predict_fixed_point_s", "s"},
        {"bgp.decisions", "count"},
        {"bgp.flip_ratio", "ratio"},
        {"bgp.decision_ns_p50", "ns"},
        {"engine.deliveries", "count"},
        {"engine.updates_sent", "count"},
        {"engine.ns_per_delivery", "ns"},
        {"engine.updates_per_delivery", "ratio"},
        {"engine.queue_depth_max", "count"},
        {"engine.delivery_ns_p50", "ns"},
        {"engine.delivery_ns_p99", "ns"},
        {"engine.transfer_ns_p50", "ns"},
        {"engine.unattributed_share", "share"},
        {"fault.campaigns", "count"},
        {"fault.truncated", "count"},
        {"fault.faults_applied", "count"},
        {"fault.deliveries_voided", "count"},
        {"fault.campaign_ms_p50", "ms"},
        {"fault.campaign_ms_p99", "ms"},
        {"analysis.invariants_us_p50", "us"},
        {"analysis.continuity_us_p50", "us"},
        {"ckpt.count", "count"},
        {"ckpt.write_ms_p50", "ms"},
        {"ckpt.write_ms_p99", "ms"},
        {"daemon.parse_ns_per_line", "ns"},
        {"daemon.wal_sync_us_p50", "us"},
        {"daemon.wal_sync_us_p99", "us"},
        {"daemon.query_us_p50.best", "us"},
        {"daemon.query_us_p50.path", "us"},
        {"daemon.query_us_p50.status", "us"},
        {"daemon.query_us_p50.stats", "us"},
        {"daemon.query_us_p50.whatif", "us"},
        {"daemon.engine_deliveries", "count"},
        {"daemon.state_records", "count"},
        {"daemon.queries", "count"},
        {"client.lines_per_s", "1/s"},
        {"client.ack_p50_us", "us"},
        {"client.ack_p99_us", "us"},
        {"client.ack_samples", "count"},
        {"client.query_p50_us", "us"},
        {"client.query_p99_us", "us"},
        {"client.query_samples", "count"},
        {"obs.trace_overhead_share", "share"},
        {"failed_share", "share"},
    };
    for (const auto& layer : layers()) v.push_back({"self_ms." + layer, "ms"});
    v.push_back({"self_ms.unattributed", "ms"});
    return v;
  }();
  return specs;
}

/// Ordered metric list for the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void append(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(), other.metrics_.end());
  }
  /// Orders the metrics as `specs` lists them and reports every listed
  /// metric the workload left idle as 0.  A recorded metric that `specs`
  /// does not list, or one recorded with another unit, is a bug here.
  void finalize(const std::vector<MetricSpec>& specs) {
    std::vector<Metric> ordered;
    for (const auto& spec : specs) {
      const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                   [&](const Metric& m) { return m.name == spec.name; });
      if (it != metrics_.end() && it->unit != spec.unit) {
        throw std::logic_error("metric " + it->name + " recorded in " + it->unit);
      }
      ordered.push_back(it == metrics_.end() ? Metric{spec.name, 0.0, spec.unit} : *it);
    }
    for (const auto& m : metrics_) {
      if (std::none_of(specs.begin(), specs.end(),
                       [&](const MetricSpec& s) { return m.name == s.name; })) {
        throw std::logic_error("metric " + m.name + " is not declared");
      }
    }
    metrics_ = std::move(ordered);
  }
  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  void print_result(const Ledger& ledger) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                ledger.failed() == 0 ? "true" : "false", ledger.attempted(), ledger.failed());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// In-memory span recorder for traced repetitions.  Spans nest by scope;
/// each carries the repetition (or wire line) id it belongs to.  Nothing is
/// written until dump().
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;  ///< "" for the repetition root
    double start = 0;
    double end = 0;
    int parent = -1;
    std::int64_t item = -1;  ///< repetition id, or wire line / campaign index
  };

  int open(std::string name, std::string layer, std::int64_t item) {
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.item = item;
    s.start = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end = now_s();
    stack_.pop_back();
  }
  /// Adds a measured sub-interval that the program timed itself (a
  /// histogram sum) as a child of `parent`, placed at the parent's start.
  /// Empty intervals are not recorded.
  void attach(int parent, std::string name, std::string layer, double seconds) {
    if (seconds <= 0) return;
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.parent = parent;
    s.start = spans_[parent].start;
    s.end = s.start + seconds;
    s.item = spans_[parent].item;
    spans_.push_back(std::move(s));
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int id) const { return spans_[id].end - spans_[id].start; }

  /// Self time per layer under root `root`: each span's duration minus its
  /// children's, summed by layer; the root's own remainder is returned as
  /// "unattributed".  Rows plus unattributed equal the root's duration.
  [[nodiscard]] std::map<std::string, double> self_times(int root) const {
    std::vector<double> child_sum(spans_.size(), 0);
    std::vector<bool> under(spans_.size(), false);
    under[root] = true;
    for (std::size_t i = root + 1; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0 && under[p]) {
        under[i] = true;
        child_sum[p] += spans_[i].end - spans_[i].start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = root; i < spans_.size(); ++i) {
      if (!under[i]) continue;
      const double own = (spans_[i].end - spans_[i].start) - child_sum[i];
      self[static_cast<int>(i) == root ? "unattributed" : spans_[i].layer] += own;
    }
    return self;
  }

  /// Writes every span as one JSON object per line.
  bool dump(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %d, \"item\": %lld, \"name\": \"%s\", "
                   "\"layer\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                   i, s.parent, static_cast<long long>(s.item), s.name.c_str(), s.layer.c_str(),
                   s.start, s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing and never reads the clock.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, const char* layer, std::int64_t item = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, layer, item) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// What one repetition measured.  `items` time the parts of the timed unit
/// in a fixed order (the one convergence, each campaign, each wire line);
/// the repetition's run time is their sum.
struct RepResult {
  double setup_s = 0;
  double generate_s = 0;
  std::vector<double> items;
  /// Named per-item sub-timings (traced repetitions), folded like items.
  std::map<std::string, std::vector<double>> parts;
  /// Registry layer metrics, filled by check(); kept from the fastest
  /// traced repetition.
  Report layers;
};

/// A workload as the repetition driver sees it.  State lives in the
/// workload object from one run() to the check() that follows it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fresh state (set-up) and runs the timed unit once, inside the
  /// repetition's root span.  `t` is null in untraced repetitions.
  virtual RepResult run(std::size_t rep, Tracer* t) = 0;
  /// Checks the repetition just run, outside any span, and drops its state.
  /// A traced repetition fills `result.layers` here.
  virtual void check(Ledger& ledger, RepResult& result) = 0;
};

/// The warm repetitions of one run, folded per item to fastest-of-k.
struct Timings {
  std::size_t k = 0;
  std::vector<double> setup;     ///< per warm repetition
  std::vector<double> generate;  ///< per warm repetition
  std::vector<double> items;         ///< per item, fastest untraced observation
  std::vector<double> traced_items;  ///< per item, fastest traced observation
  std::map<std::string, std::vector<double>> parts;
  Tracer tracer;
  int best_root = -1;  ///< root span of the fastest traced repetition
  Report layers;       ///< registry layers of that repetition

  [[nodiscard]] double run_s() const { return sum(items); }
};

/// Runs one cold repetition (checked, then discarded) and k warm ones,
/// k = warm_reps(reps_per_second, options.seconds).  In a traced run, warm
/// repetitions alternate traced and untraced, so both halves see the same
/// host phases; end-to-end numbers come from the untraced half only.
Timings repeat(Workload& workload, const Options& options, double reps_per_second,
               Ledger& ledger);

/// setup_s (median of the warm set-ups), run_s, and deliveries over run_s.
void report_end_to_end(const Timings& timings, double deliveries, Report& report);

/// The per-layer metrics every workload reports from its traced run:
/// topo.generate_s, the fastest traced repetition's registry layers and
/// self-time table, and obs.trace_overhead_share.  Writes the spans to
/// <out_dir>/spans-<workload>.jsonl; returns false if that fails.
bool report_traced(const Timings& timings, const std::string& workload, Report& report);

/// Fastest of five all-pairs SPF computations over the physical graphs of
/// `instances`, each checked against the instance's own IGP fingerprint.
double time_spf_all_pairs(const std::vector<const ibgp::core::Instance*>& instances,
                          Ledger& ledger);

/// Reports the layer metrics a registry holds after a traced repetition:
/// engine.queue_depth_max and the SPF recompute percentiles always, and with
/// `engine_profile` the sampled engine spans (set_profile) as well.
void report_registry_layers(const ibgp::obs::MetricsRegistry& registry, Report& report,
                            bool engine_profile);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Directory (inside the working directory) for run artifacts: span dumps
/// and the daemon's state directories.
std::string out_dir();

int run_converge_scale(const Options& options, Report& report, Ledger& ledger);
int run_churn_campaign(const Options& options, Report& report, Ledger& ledger);
int run_daemon_ingest(const Options& options, Report& report, Ledger& ledger);

}  // namespace perfbench
