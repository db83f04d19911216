// daemon-ingest: one closed-loop client feeds a daemon::generate_stream
// session (about 1,000 state records plus interleaved queries) through
// daemon::Daemon::handle_line, synchronously, on a 111-router instance.
// Persistence is on: every state record is journaled and fsync'd before its
// ack, and a checkpoint is written every 64 records.
//
// Repetition: build the instance, the stream and a fresh Daemon over an
// empty state directory (set-up), then send every line once (timed), then
// check that no reply is an error and that the reply-stream hash and the
// daemon's counters repeat.  State records are timed one call at a time
// (each journals and fsyncs, so none takes under a microsecond).  Queries
// are pure reads; each is timed as a batch of identical calls sized by kind
// and divided, and its replies must all agree.  run_s is the sum over lines
// of each line's fastest latency across the k repetitions.  In a traced
// repetition each line's span gets children for the time the daemon's own
// histograms saw inside it: WAL append+fsync, checkpoint writes and SPF
// recomputes.  The state directory lives under the working directory; its
// filesystem type is printed, since fsync cost depends on it.

#include <sys/vfs.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <variant>

#include "bench.hpp"
#include "daemon/daemon.hpp"
#include "daemon/stream.hpp"
#include "daemon/wire.hpp"
#include "obs/span.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

using ibgp::daemon::QueryKind;

constexpr std::uint64_t kInstanceSeed = 7;
constexpr std::uint64_t kStreamSeed = 7;
constexpr double kRepsPerSecond = 1.95;
constexpr ibgp::core::ProtocolKind kProtocol = ibgp::core::ProtocolKind::kModified;

ibgp::topo::RandomConfig instance_config() {
  ibgp::topo::RandomConfig config;
  config.clusters = 20;
  config.min_clients = 3;
  config.max_clients = 6;
  config.exits = 40;
  config.neighbor_ases = 4;
  config.extra_link_prob = 0.02;
  return config;
}

ibgp::daemon::StreamOptions stream_options() {
  ibgp::daemon::StreamOptions options;
  options.seed = kStreamSeed;
  options.state_records = 1000;
  return options;  // default query rate 0.4, fault rate 0.3
}

// Identical calls per timed batch, by query kind: enough that every batch
// lasts well over a microsecond.  What-if runs a sandboxed engine to
// quiescence and is timed alone.
std::size_t batch_size(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBest:
    case QueryKind::kStatus:
      return 64;
    case QueryKind::kPath:
      return 16;
    case QueryKind::kStats:
      return 4;
    default:
      return 1;
  }
}

const char* query_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBest: return "best";
    case QueryKind::kPath: return "path";
    case QueryKind::kStatus: return "status";
    case QueryKind::kStats: return "stats";
    case QueryKind::kWhatIf: return "whatif";
    default: return "other";
  }
}

enum class LineKind { kState, kQuery, kOther };

struct Line {
  LineKind kind = LineKind::kOther;
  QueryKind query = QueryKind::kStatus;
};

// The state directory's filesystem: its statfs magic in hex, named when it
// is tmpfs, since fsync cost depends on it.
std::string fs_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return info.f_type == 0x01021994 ? std::string("tmpfs (") + hex + ")" : std::string(hex);
}

class DaemonIngest final : public Workload {
 public:
  DaemonIngest() : state_root_(out_dir() + "/state") {
    std::filesystem::remove_all(state_root_);
    // Every error reply starts with its "ev" field; render the prefix rather
    // than spell out the codec's spacing.
    error_prefix_ = ibgp::daemon::render_reply({{"ev", "error"}});
    error_prefix_.pop_back();  // the closing brace
  }
  ~DaemonIngest() override { std::filesystem::remove_all(state_root_); }
  DaemonIngest(const DaemonIngest&) = delete;
  DaemonIngest& operator=(const DaemonIngest&) = delete;

  RepResult run(std::size_t rep, Tracer* t) override {
    RepResult out;
    traced_ = t != nullptr;
    state_dir_ = state_root_ + "/rep-" + std::to_string(rep);
    reply_hash_ = 0;
    errors_ = 0;
    impure_ = 0;
    const double t0 = now_s();
    {
      const Scope s(t, "topo.random_instance", "topo");
      inst_ = std::make_shared<ibgp::core::Instance>(
          ibgp::topo::random_instance(instance_config(), kInstanceSeed));
    }
    out.generate_s = now_s() - t0;
    {
      const Scope s(t, "daemon.generate_stream", "daemon");
      lines_ = ibgp::daemon::generate_stream(*inst_, kProtocol, stream_options());
    }
    {
      const Scope s(t, "daemon.construct", "daemon");
      ibgp::daemon::DaemonOptions daemon_options;
      daemon_options.state_dir = state_dir_;
      daemon_options.ckpt_every = 64;
      daemon_ = std::make_unique<ibgp::daemon::Daemon>(inst_, kProtocol, daemon_options);
    }
    out.setup_s = now_s() - t0;
    if (kinds_.empty()) classify();

    auto& wal = ibgp::obs::span_histogram(daemon_->metrics(), "daemon.span.wal_fsync_ns");
    auto& ckpt = ibgp::obs::span_histogram(daemon_->metrics(), "daemon.span.ckpt_write_ns");
    auto& spf = ibgp::obs::span_histogram(daemon_->metrics(), "spf.recompute_ns");
    std::string first;
    std::string again;
    for (std::size_t i = 0; i < lines_.size() && i < kinds_.size(); ++i) {
      const Line l = kinds_[i];
      const std::size_t batch = l.kind == LineKind::kQuery ? batch_size(l.query) : 1;
      const auto wal_before = wal.sum();
      const auto ckpt_before = ckpt.sum();
      const auto spf_before = spf.sum();
      const Scope s(t, l.kind == LineKind::kQuery ? "daemon.query" : "daemon.handle_line",
                    "daemon", static_cast<std::int64_t>(i));
      const double c0 = now_s();
      first = daemon_->handle_line(lines_[i]);
      for (std::size_t b = 1; b < batch; ++b) again = daemon_->handle_line(lines_[i]);
      out.items.push_back((now_s() - c0) / static_cast<double>(batch));
      if (t != nullptr) {
        t->attach(s.id(), "daemon.wal_fsync", "daemon.wal",
                  static_cast<double>(wal.sum() - wal_before) / 1e9);
        t->attach(s.id(), "ckpt.write", "ckpt",
                  static_cast<double>(ckpt.sum() - ckpt_before) / 1e9);
        t->attach(s.id(), "netsim.spf_recompute", "netsim",
                  static_cast<double>(spf.sum() - spf_before) / 1e9);
      }
      if (batch > 1 && again != first) ++impure_;
      if (first.rfind(error_prefix_, 0) == 0) ++errors_;
      reply_hash_ = ibgp::util::hash_combine(reply_hash_, ibgp::util::fnv1a(first));
    }
    return out;
  }

  void check(Ledger& ledger, RepResult& out) override {
    auto& metrics = daemon_->metrics();
    std::uint64_t stream_hash = 0;
    for (const auto& line : lines_) {
      stream_hash = ibgp::util::hash_combine(stream_hash, ibgp::util::fnv1a(line));
    }
    ledger.attempt(lines_.size());
    ledger.check(errors_ == 0, "daemon-ingest: " + std::to_string(errors_) + " error replies");
    ledger.check(impure_ == 0, "daemon-ingest: " + std::to_string(impure_) +
                                   " queries answered differently when repeated");
    ledger.check(daemon_->drained(), "daemon-ingest: stream did not drain");
    ledger.same("stream_hash", stream_hash);
    ledger.same("reply_hash", reply_hash_);
    ledger.same("engine_deliveries", metrics.counter_value("engine.deliveries"));
    ledger.same("updates_sent", metrics.counter_value("engine.updates_sent"));
    ledger.same("decisions", metrics.counter_value("engine.decisions"));
    ledger.same("best_flips", metrics.counter_value("engine.best_flips"));
    ledger.same("state_records", metrics.counter_value("daemon.state_records"));
    ledger.same("checkpoints", metrics.counter_value("daemon.checkpoints"));
    ledger.same("spf_epochs", inst_->igp_epoch_count());
    if (traced_) {
      report_registry_layers(metrics, out.layers, false);
      auto q = [&](const char* name, double quant) {
        const auto& h = ibgp::obs::span_histogram(metrics, name);
        return h.total() == 0 ? 0.0 : ibgp::obs::histogram_quantile(h, quant);
      };
      out.layers.metric("ckpt.write_ms_p50", q("daemon.span.ckpt_write_ns", 0.5) / 1e6, "ms");
      out.layers.metric("ckpt.write_ms_p99", q("daemon.span.ckpt_write_ns", 0.99) / 1e6, "ms");
      out.layers.metric("daemon.wal_sync_us_p50", q("daemon.span.wal_fsync_ns", 0.5) / 1e3, "us");
      out.layers.metric("daemon.wal_sync_us_p99", q("daemon.span.wal_fsync_ns", 0.99) / 1e3, "us");
    }
    daemon_.reset();
    std::filesystem::remove_all(state_dir_);
  }

  [[nodiscard]] const std::vector<Line>& kinds() const { return kinds_; }
  [[nodiscard]] const std::string& filesystem() const { return filesystem_; }

 private:
  // Classification is the benchmark's, made once and untimed; the stream is
  // pinned by hash, so it holds for every repetition.
  void classify() {
    for (const auto& line : lines_) {
      Line l;
      const auto parsed = ibgp::daemon::parse_record(line);
      if (const auto* rec = std::get_if<ibgp::daemon::WireRecord>(&parsed)) {
        using ibgp::daemon::RecordKind;
        if (rec->kind == RecordKind::kAnnounce || rec->kind == RecordKind::kWithdraw ||
            rec->kind == RecordKind::kFault) {
          l.kind = LineKind::kState;
        } else if (rec->kind == RecordKind::kQuery) {
          l.kind = LineKind::kQuery;
          l.query = rec->query;
        }
      }
      kinds_.push_back(l);
    }
    filesystem_ = fs_type(state_dir_);
  }

  const std::string state_root_;
  std::string error_prefix_;
  std::vector<Line> kinds_;
  std::string filesystem_;
  std::string state_dir_;
  std::shared_ptr<ibgp::core::Instance> inst_;
  std::vector<std::string> lines_;
  std::unique_ptr<ibgp::daemon::Daemon> daemon_;
  std::uint64_t reply_hash_ = 0;
  std::size_t errors_ = 0;
  std::size_t impure_ = 0;
  bool traced_ = false;
};

}  // namespace

int run_daemon_ingest(const Options& options, Report& report, Ledger& ledger) {
  DaemonIngest workload;
  const Timings timings = repeat(workload, options, kRepsPerSecond, ledger);
  // Per line, fastest of k.  A line's latency mixes CPU work with fsync on
  // whatever device holds the state directory; taking each line's fastest
  // observation keeps one slow sync from moving the whole stream's time.
  const auto& kinds = workload.kinds();
  std::vector<double> ack_s, query_s;
  std::map<QueryKind, std::vector<double>> by_kind;
  for (std::size_t i = 0; i < timings.items.size() && i < kinds.size(); ++i) {
    if (kinds[i].kind == LineKind::kState) ack_s.push_back(timings.items[i]);
    if (kinds[i].kind == LineKind::kQuery) {
      query_s.push_back(timings.items[i]);
      by_kind[kinds[i].query].push_back(timings.items[i]);
    }
  }
  const double run_s = timings.run_s();
  const auto deliveries = static_cast<double>(ledger.pinned("engine_deliveries"));
  const double lines_per_s = static_cast<double>(timings.items.size()) / run_s;
  const double ack_p50 = quantile(ack_s, 0.5) * 1e6;
  const double ack_p99 = quantile(ack_s, 0.99) * 1e6;
  const double query_p50 = quantile(query_s, 0.5) * 1e6;
  const double query_p99 = quantile(query_s, 0.99) * 1e6;
  std::printf("daemon-ingest: %zu lines (%zu state records, %zu queries), %.0f engine "
              "deliveries; state dir on %s; k=%zu warm repetitions (+1 cold)\n",
              timings.items.size(), ack_s.size(), query_s.size(), deliveries,
              workload.filesystem().c_str(), timings.k);
  std::printf("closed loop, 1 client: %.0f lines/s; ack p50 %.2f us p99 %.2f us (n=%zu); "
              "query p50 %.2f us p99 %.2f us (n=%zu); per-line fastest of k\n",
              lines_per_s, ack_p50, ack_p99, ack_s.size(), query_p50, query_p99,
              query_s.size());
  std::printf("run_s %.6f s = state records %.6f + queries %.6f + hello/drain %.6f\n", run_s,
              sum(ack_s), sum(query_s), run_s - sum(ack_s) - sum(query_s));

  if (!options.trace) {
    report_end_to_end(timings, deliveries, report);
    return 0;
  }

  // Layer numbers measured from outside, fastest of five.
  const auto inst = ibgp::topo::random_instance(instance_config(), kInstanceSeed);
  const auto lines = ibgp::daemon::generate_stream(inst, kProtocol, stream_options());
  std::vector<double> parse;
  for (int i = 0; i < 5; ++i) {
    std::size_t parsed = 0;
    const double t0 = now_s();
    for (const auto& l : lines) {
      parsed += std::holds_alternative<ibgp::daemon::WireRecord>(ibgp::daemon::parse_record(l));
    }
    parse.push_back((now_s() - t0) / static_cast<double>(lines.size()));
    ledger.check(parsed == lines.size(), "daemon-ingest: unparseable stream line");
  }
  const double decisions = static_cast<double>(ledger.pinned("decisions"));
  report.metric("netsim.spf_all_pairs_s", time_spf_all_pairs({&inst}, ledger), "s");
  report.metric("netsim.spf_epochs", static_cast<double>(ledger.pinned("spf_epochs")), "count");
  report.metric("bgp.decisions", decisions, "count");
  report.metric("bgp.flip_ratio", static_cast<double>(ledger.pinned("best_flips")) / decisions,
                "ratio");
  report.metric("engine.deliveries", deliveries, "count");
  report.metric("engine.updates_sent", static_cast<double>(ledger.pinned("updates_sent")),
                "count");
  report.metric("ckpt.count", static_cast<double>(ledger.pinned("checkpoints")), "count");
  report.metric("daemon.parse_ns_per_line", fastest(parse) * 1e9, "ns");
  for (const auto kind : {QueryKind::kBest, QueryKind::kPath, QueryKind::kStatus,
                          QueryKind::kStats, QueryKind::kWhatIf}) {
    report.metric(std::string("daemon.query_us_p50.") + query_name(kind),
                  quantile(by_kind[kind], 0.5) * 1e6, "us");
  }
  report.metric("daemon.engine_deliveries", deliveries, "count");
  report.metric("daemon.state_records", static_cast<double>(ledger.pinned("state_records")),
                "count");
  report.metric("daemon.queries", static_cast<double>(query_s.size()), "count");
  report.metric("client.lines_per_s", lines_per_s, "1/s");
  report.metric("client.ack_p50_us", ack_p50, "us");
  report.metric("client.ack_p99_us", ack_p99, "us");
  report.metric("client.ack_samples", static_cast<double>(ack_s.size()), "count");
  report.metric("client.query_p50_us", query_p50, "us");
  report.metric("client.query_p99_us", query_p99, "us");
  report.metric("client.query_samples", static_cast<double>(query_s.size()), "count");
  return report_traced(timings, "daemon-ingest", report) ? 0 : 1;
}

}  // namespace perfbench
