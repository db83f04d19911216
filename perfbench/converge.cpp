// converge-scale: the modified protocol (Section 7) runs to quiescence on a
// 339-router random instance whose reflectors carry about 65 sessions each.
//
// Repetition: build the instance and a fresh EventEngine with every exit
// injected (set-up), run the engine to quiescence (timed), then check every
// node's final best route against core::predict_fixed_point and pin the
// delivery, update, decision and flip counts.  The prediction is made once
// in the cold repetition and again, under a core span, in every traced one.
// Faults, checkpoints and the daemon stay idle.

#include <optional>

#include "bench.hpp"
#include "core/fixed_point.hpp"
#include "engine/event_engine.hpp"
#include "obs/metrics.hpp"
#include "topo/random.hpp"

namespace perfbench {

namespace {

using ibgp::engine::EventEngine;

// Instance shape and generator seed; seed 7 yields 339 routers.  Fixed so
// that every run does identical work (random instances of this shape differ
// by up to 1.4x in deliveries from seed to seed).
constexpr std::uint64_t kInstanceSeed = 7;
constexpr double kRepsPerSecond = 7.5;
constexpr std::size_t kBudget = 2'000'000;

ibgp::topo::RandomConfig instance_config() {
  ibgp::topo::RandomConfig config;
  config.clusters = 60;
  config.min_clients = 3;
  config.max_clients = 6;
  config.exits = 120;
  config.neighbor_ases = 4;
  config.extra_link_prob = 0.02;
  return config;
}

std::vector<ibgp::PathId> predict(const ibgp::core::Instance& inst) {
  std::vector<ibgp::PathId> best;
  for (const auto& b : ibgp::core::predict_fixed_point(inst).best) {
    best.push_back(b ? b->path : ibgp::kNoPath);
  }
  return best;
}

class ConvergeScale final : public Workload {
 public:
  RepResult run(std::size_t /*rep*/, Tracer* t) override {
    RepResult out;
    const double t0 = now_s();
    {
      const Scope s(t, "topo.random_instance", "topo");
      inst_.emplace(ibgp::topo::random_instance(instance_config(), kInstanceSeed));
    }
    out.generate_s = now_s() - t0;
    registry_.emplace();
    {
      const Scope s(t, "engine.construct", "engine");
      engine_.emplace(*inst_, ibgp::core::ProtocolKind::kModified);
      if (t != nullptr) {
        ibgp::engine::register_event_engine_metrics(*registry_);
        inst_->spf_cache().attach_metrics(&*registry_);
        engine_->set_metrics(&*registry_);
        engine_->set_profile(true);
      }
      engine_->inject_all_exits(0);
    }
    const double t1 = now_s();
    out.setup_s = t1 - t0;
    {
      const Scope s(t, "engine.run", "engine");
      result_ = engine_->run(kBudget);
    }
    out.items.push_back(now_s() - t1);
    predicted_.clear();
    if (expected_.empty() || t != nullptr) {
      const Scope s(t, "core.predict_fixed_point", "core");
      const double p0 = now_s();
      predicted_ = predict(*inst_);
      out.parts["core.predict_fixed_point"].push_back(now_s() - p0);
      if (expected_.empty()) expected_ = predicted_;
    }
    traced_ = t != nullptr;
    inst_->spf_cache().attach_metrics(nullptr);
    return out;
  }

  void check(Ledger& ledger, RepResult& out) override {
    ledger.attempt();
    ledger.check(result_.converged && !result_.budget_exhausted, "converge-scale: not quiescent");
    std::size_t wrong = 0;
    for (std::size_t v = 0; v < result_.final_best.size(); ++v) {
      if (v >= expected_.size() || result_.final_best[v] != expected_[v]) ++wrong;
    }
    ledger.check(wrong == 0 && result_.final_best.size() == expected_.size(),
                 "converge-scale: " + std::to_string(wrong) + " nodes off the fixed point");
    ledger.check(predicted_.empty() || predicted_ == expected_,
                 "converge-scale: predict_fixed_point changed");
    ledger.same("routers", inst_->node_count());
    ledger.same("igp_fingerprint", inst_->igp().fingerprint());
    ledger.same("deliveries", result_.deliveries);
    ledger.same("updates_sent", result_.updates_sent);
    ledger.same("decisions", result_.decisions_total);
    ledger.same("best_flips", result_.best_flips);
    if (traced_) report_registry_layers(*registry_, out.layers, true);
    engine_.reset();
    registry_.reset();
    inst_.reset();
  }

  [[nodiscard]] const EventEngine::Result& result() const { return result_; }

 private:
  std::vector<ibgp::PathId> expected_;   // predicted fixed point, per node
  std::vector<ibgp::PathId> predicted_;  // this repetition's prediction, if made
  std::optional<ibgp::core::Instance> inst_;
  std::optional<ibgp::obs::MetricsRegistry> registry_;
  std::optional<EventEngine> engine_;
  EventEngine::Result result_;
  bool traced_ = false;
};

}  // namespace

int run_converge_scale(const Options& options, Report& report, Ledger& ledger) {
  ConvergeScale workload;
  const Timings timings = repeat(workload, options, kRepsPerSecond, ledger);
  const auto& last = workload.result();
  const auto deliveries = static_cast<double>(last.deliveries);
  std::printf("converge-scale: %llu routers, %zu deliveries, %zu updates, %llu decisions; "
              "k=%zu warm repetitions (+1 cold)\n",
              static_cast<unsigned long long>(ledger.pinned("routers")), last.deliveries,
              last.updates_sent, static_cast<unsigned long long>(last.decisions_total),
              timings.k);

  if (!options.trace) {
    report_end_to_end(timings, deliveries, report);
    return 0;
  }

  const auto inst = ibgp::topo::random_instance(instance_config(), kInstanceSeed);
  report.metric("netsim.spf_all_pairs_s", time_spf_all_pairs({&inst}, ledger), "s");
  report.metric("netsim.spf_epochs", static_cast<double>(inst.igp_epoch_count()), "count");
  report.metric("core.predict_fixed_point_s",
                fastest(timings.parts.at("core.predict_fixed_point")), "s");
  report.metric("bgp.decisions", static_cast<double>(last.decisions_total), "count");
  report.metric("bgp.flip_ratio",
                static_cast<double>(last.best_flips) / static_cast<double>(last.decisions_total),
                "ratio");
  report.metric("engine.deliveries", deliveries, "count");
  report.metric("engine.updates_sent", static_cast<double>(last.updates_sent), "count");
  report.metric("engine.ns_per_delivery", timings.run_s() * 1e9 / deliveries, "ns");
  report.metric("engine.updates_per_delivery",
                static_cast<double>(last.updates_sent) / deliveries, "ratio");
  return report_traced(timings, "converge-scale", report) ? 0 : 1;
}

}  // namespace perfbench
