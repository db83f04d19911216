// churn-campaign: fault::run_campaign over mixed-churn scripts (link-cost
// changes, link downs, session flaps, one graceful restart) on every
// protocol, over six ~66-router random instances plus fig1a, where the
// standard protocol oscillates until its delivery budget runs out.
//
// Repetition: build the instances and scripts fresh (set-up, so SPF
// recomputes start from a cold SpfCache), run the 21 campaigns (timed), then
// check that every modified-protocol campaign reconverged healthy and that
// every campaign's trace hash and counts repeat.  run_s is the sum over
// campaigns of each campaign's fastest time across the k repetitions.  A
// traced repetition runs each campaign through the same public calls
// run_campaign makes, spanned one by one (engine run, check_invariants,
// check_continuity, trace_hash), and the pinned trace hash asserts it equals
// run_campaign's.  The daemon and checkpoints stay idle.

#include <optional>
#include <string>

#include "analysis/continuity.hpp"
#include "analysis/invariants.hpp"
#include "bench.hpp"
#include "engine/event_engine.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"

namespace perfbench {

namespace {

using ibgp::core::ProtocolKind;
using ibgp::engine::EventEngine;

constexpr std::uint64_t kInstanceSeeds[] = {101, 102, 103, 104, 105, 106};
constexpr ProtocolKind kProtocols[] = {ProtocolKind::kStandard, ProtocolKind::kWalton,
                                       ProtocolKind::kModified};
constexpr std::size_t kBudget = 20'000;
constexpr double kRepsPerSecond = 7.5;

ibgp::topo::RandomConfig instance_config() {
  ibgp::topo::RandomConfig config;
  config.clusters = 12;
  config.min_clients = 3;
  config.max_clients = 6;
  config.exits = 24;
  config.neighbor_ases = 3;
  config.extra_link_prob = 0.05;
  return config;
}

ibgp::fault::FaultScriptConfig script_config(std::uint64_t seed) {
  ibgp::fault::FaultScriptConfig config;
  config.seed = seed;
  config.window_end = 300;
  config.link_cost_changes = 3;
  config.link_downs = 2;
  config.session_flaps = 3;
  config.graceful_restarts = 1;
  return config;
}

struct Inputs {
  std::vector<ibgp::core::Instance> instances;  // random ones first, fig1a last
  std::vector<ibgp::fault::FaultScript> scripts;
  double generate_s = 0;
};

struct Outcome {
  EventEngine::Result run;
  std::uint64_t hash = 0;
  bool healthy = false;
  double invariants_s = 0;  // traced only
  double continuity_s = 0;  // traced only
};

Inputs make_inputs(Tracer* t) {
  Inputs in;
  const double t0 = now_s();
  {
    const Scope s(t, "topo.random_instance", "topo");
    for (const auto seed : kInstanceSeeds) {
      in.instances.push_back(ibgp::topo::random_instance(instance_config(), seed));
    }
    in.instances.push_back(ibgp::topo::fig1a());
  }
  in.generate_s = now_s() - t0;
  const Scope s(t, "fault.make_fault_script", "fault");
  for (std::size_t i = 0; i < in.instances.size(); ++i) {
    in.scripts.push_back(ibgp::fault::make_fault_script(in.instances[i], script_config(1000 + i)));
  }
  return in;
}

Outcome plain_campaign(const ibgp::core::Instance& inst, ProtocolKind protocol,
                       const ibgp::fault::FaultScript& script) {
  ibgp::fault::CampaignOptions options;
  options.max_deliveries = kBudget;
  auto result = ibgp::fault::run_campaign(inst, protocol, script, options);
  return {std::move(result.run), result.trace_hash, result.healthy()};
}

// run_campaign's pipeline spelled out through the same public calls, with a
// span around each layer's part.
Outcome traced_campaign(const ibgp::core::Instance& inst, ProtocolKind protocol,
                        const ibgp::fault::FaultScript& script,
                        ibgp::obs::MetricsRegistry& registry, Tracer& t, std::int64_t item) {
  const Scope campaign(&t, "fault.campaign", "fault", item);
  std::optional<EventEngine> engine;
  ibgp::fault::ScriptInjector injector(script);
  {
    const Scope s(&t, "engine.setup", "engine", item);
    engine.emplace(inst, protocol);
    if (script.stale_timer > 0) engine->set_stale_timer(script.stale_timer);
    engine->set_metrics(&registry);
    engine->set_profile(true);
    engine->set_fault_injector(&injector);
    engine->inject_all_exits(0);
    ibgp::fault::apply_script(script, *engine);
  }
  Outcome out;
  {
    // SPF recomputes on link faults happen inside the run; the cache's own
    // histogram times them, and they are charged to netsim.
    auto& spf = ibgp::obs::span_histogram(registry, "spf.recompute_ns");
    const auto spf_before = spf.sum();
    const Scope s(&t, "engine.run", "engine", item);
    out.run = engine->run(kBudget);
    t.attach(s.id(), "netsim.spf_recompute", "netsim",
             static_cast<double>(spf.sum() - spf_before) / 1e9);
  }
  int span = -1;
  {
    const Scope s(&t, "analysis.check_invariants", "analysis", item);
    span = s.id();
    out.healthy = out.run.converged && ibgp::analysis::check_invariants(*engine).clean();
  }
  out.invariants_s = t.duration(span);
  {
    const Scope s(&t, "analysis.check_continuity", "analysis", item);
    span = s.id();
    (void)ibgp::analysis::check_continuity(*engine, out.run.end_time);
  }
  out.continuity_s = t.duration(span);
  {
    const Scope s(&t, "fault.trace_hash", "fault", item);
    out.hash = ibgp::fault::trace_hash(*engine, out.run);
  }
  return out;
}

class ChurnCampaign final : public Workload {
 public:
  RepResult run(std::size_t /*rep*/, Tracer* t) override {
    RepResult out;
    traced_ = t != nullptr;
    registry_.emplace();
    outcomes_.clear();
    const double t0 = now_s();
    in_ = make_inputs(t);
    if (traced_) {
      ibgp::fault::register_campaign_metrics(*registry_);
      for (auto& inst : in_.instances) inst.spf_cache().attach_metrics(&*registry_);
    }
    out.setup_s = now_s() - t0;
    out.generate_s = in_.generate_s;
    for (std::size_t i = 0; i < in_.instances.size(); ++i) {
      for (const auto protocol : kProtocols) {
        const double c0 = now_s();
        const auto item = static_cast<std::int64_t>(outcomes_.size());
        outcomes_.push_back(traced_ ? traced_campaign(in_.instances[i], protocol, in_.scripts[i],
                                                      *registry_, *t, item)
                                    : plain_campaign(in_.instances[i], protocol, in_.scripts[i]));
        out.items.push_back(now_s() - c0);
        if (traced_) {
          out.parts["analysis.invariants"].push_back(outcomes_.back().invariants_s);
          out.parts["analysis.continuity"].push_back(outcomes_.back().continuity_s);
        }
      }
    }
    for (auto& inst : in_.instances) inst.spf_cache().attach_metrics(nullptr);
    return out;
  }

  void check(Ledger& ledger, RepResult& out) override {
    totals_ = Totals();
    for (std::size_t j = 0; j < outcomes_.size(); ++j) {
      const auto& o = outcomes_[j];
      const std::string key = "campaign." + std::to_string(j) + ".";
      const ProtocolKind protocol = kProtocols[j % std::size(kProtocols)];
      ledger.attempt();
      if (protocol == ProtocolKind::kModified) {
        ledger.check(o.healthy, "churn-campaign: modified campaign " + std::to_string(j) +
                                    " did not reconverge healthy");
      }
      ledger.same(key + "trace_hash", o.hash);
      ledger.same(key + "deliveries", o.run.deliveries);
      ledger.same(key + "decisions", o.run.decisions_total);
      totals_.deliveries += o.run.deliveries;
      totals_.updates += o.run.updates_sent;
      totals_.decisions += o.run.decisions_total;
      totals_.flips += o.run.best_flips;
      totals_.truncated += o.run.converged ? 0 : 1;
      totals_.faults += o.run.faults_applied;
      totals_.voided += o.run.deliveries_voided;
    }
    for (const auto& inst : in_.instances) totals_.epochs += inst.igp_epoch_count();
    totals_.campaigns = outcomes_.size();
    ledger.same("updates_sent", totals_.updates);
    ledger.same("best_flips", totals_.flips);
    ledger.same("spf_epochs", totals_.epochs);
    if (traced_) report_registry_layers(*registry_, out.layers, true);
    outcomes_.clear();
    in_ = Inputs();
    registry_.reset();
  }

  struct Totals {
    std::uint64_t deliveries = 0, updates = 0, decisions = 0, flips = 0;
    std::uint64_t truncated = 0, faults = 0, voided = 0, epochs = 0;
    std::size_t campaigns = 0;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

 private:
  Inputs in_;
  std::optional<ibgp::obs::MetricsRegistry> registry_;
  std::vector<Outcome> outcomes_;
  Totals totals_;
  bool traced_ = false;
};

}  // namespace

int run_churn_campaign(const Options& options, Report& report, Ledger& ledger) {
  ChurnCampaign workload;
  const Timings timings = repeat(workload, options, kRepsPerSecond, ledger);
  const auto& n = workload.totals();
  // Per campaign, fastest of k; run_s sums them.
  const auto& campaign_s = timings.items;
  std::printf("churn-campaign: %zu campaigns (%llu truncated), %llu deliveries, %llu faults, "
              "%llu SPF epochs; k=%zu warm repetitions (+1 cold)\n",
              n.campaigns, static_cast<unsigned long long>(n.truncated),
              static_cast<unsigned long long>(n.deliveries),
              static_cast<unsigned long long>(n.faults), static_cast<unsigned long long>(n.epochs),
              timings.k);
  std::printf("campaign ms (fastest of k, over %zu campaigns): p50 %.3f p99 %.3f\n",
              campaign_s.size(), quantile(campaign_s, 0.5) * 1e3,
              quantile(campaign_s, 0.99) * 1e3);

  const auto d = static_cast<double>(n.deliveries);
  if (!options.trace) {
    report_end_to_end(timings, d, report);
    return 0;
  }

  const Inputs in = make_inputs(nullptr);
  std::vector<const ibgp::core::Instance*> instances;
  for (const auto& inst : in.instances) instances.push_back(&inst);
  report.metric("netsim.spf_all_pairs_s", time_spf_all_pairs(instances, ledger), "s");
  report.metric("netsim.spf_epochs", static_cast<double>(n.epochs), "count");
  report.metric("bgp.decisions", static_cast<double>(n.decisions), "count");
  report.metric("bgp.flip_ratio", static_cast<double>(n.flips) / static_cast<double>(n.decisions),
                "ratio");
  report.metric("engine.deliveries", d, "count");
  report.metric("engine.updates_sent", static_cast<double>(n.updates), "count");
  report.metric("engine.ns_per_delivery", timings.run_s() * 1e9 / d, "ns");
  report.metric("engine.updates_per_delivery", static_cast<double>(n.updates) / d, "ratio");
  report.metric("fault.campaigns", static_cast<double>(n.campaigns), "count");
  report.metric("fault.truncated", static_cast<double>(n.truncated), "count");
  report.metric("fault.faults_applied", static_cast<double>(n.faults), "count");
  report.metric("fault.deliveries_voided", static_cast<double>(n.voided), "count");
  report.metric("fault.campaign_ms_p50", quantile(campaign_s, 0.5) * 1e3, "ms");
  report.metric("fault.campaign_ms_p99", quantile(campaign_s, 0.99) * 1e3, "ms");
  report.metric("analysis.invariants_us_p50",
                quantile(timings.parts.at("analysis.invariants"), 0.5) * 1e6, "us");
  report.metric("analysis.continuity_us_p50",
                quantile(timings.parts.at("analysis.continuity"), 0.5) * 1e6, "us");
  return report_traced(timings, "churn-campaign", report) ? 0 : 1;
}

}  // namespace perfbench
