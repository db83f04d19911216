// Experiment E8 — the Section 7 theorems as ensemble statistics.
//
// The paper proves the modified protocol converges on EVERY configuration;
// classic I-BGP and the Walton variant provably do not.  This bench samples
// random route-reflection ensembles and reports, per protocol: how many
// instances provably oscillate (cycle detected), how many converge, mean
// steps to converge, and forwarding-loop counts at the reached fixed points.
// The expected shape: modified = 0 oscillations, 0 loops, always; the others
// oscillate at a topology-dependent rate that rises with MED density.
//
// Every sampled instance is an independent cell (its own topology from
// seed_base + i, its own engine), so the ensemble fans out over --jobs
// worker threads; per-instance verdicts land in an index-keyed vector and
// the statistics fold in index order, making --jobs N identical to a
// serial run.  --json writes the machine-readable ensemble table.

#include "bench_common.hpp"

#include <vector>

#include "analysis/forwarding.hpp"
#include "topo/random.hpp"

namespace {

using namespace ibgp;

struct EnsembleStats {
  std::size_t oscillated = 0;
  std::size_t converged = 0;
  std::size_t undecided = 0;
  std::size_t loops = 0;        // instances whose fixed point has a forwarding loop
  double mean_steps = 0.0;
};

EnsembleStats sweep(const topo::RandomConfig& config, core::ProtocolKind kind,
                    std::uint64_t seed_base, std::size_t count) {
  struct InstanceVerdict {
    engine::RunStatus status = engine::RunStatus::kStepLimit;
    std::size_t steps = 0;
    bool loop = false;
  };
  std::vector<InstanceVerdict> verdicts(count);
  util::parallel_for(count, util::resolve_jobs(bench::config().jobs), [&](std::size_t i) {
    const auto inst = topo::random_instance(config, seed_base + i);
    auto rr = engine::make_round_robin(inst.node_count());
    engine::RunLimits limits;
    limits.max_steps = 6000;
    const auto outcome = engine::run_protocol(inst, kind, *rr, limits);
    InstanceVerdict& verdict = verdicts[i];
    verdict.status = outcome.status;
    if (outcome.status == engine::RunStatus::kConverged) {
      verdict.steps = outcome.quiescent_since;
      const auto fwd = analysis::analyze_forwarding(inst, outcome.final_best);
      verdict.loop = !fwd.loop_free();
    }
  });

  EnsembleStats stats;
  std::size_t steps_total = 0;
  for (const auto& verdict : verdicts) {
    switch (verdict.status) {
      case engine::RunStatus::kConverged:
        ++stats.converged;
        steps_total += verdict.steps;
        if (verdict.loop) ++stats.loops;
        break;
      case engine::RunStatus::kCycleDetected:
        ++stats.oscillated;
        break;
      case engine::RunStatus::kStepLimit:
        ++stats.undecided;
        break;
    }
  }
  if (stats.converged > 0) {
    stats.mean_steps = static_cast<double>(steps_total) / stats.converged;
  }
  return stats;
}

util::json::Value stats_json(const EnsembleStats& stats) {
  util::json::Object row;
  row.emplace_back("oscillated", stats.oscillated);
  row.emplace_back("converged", stats.converged);
  row.emplace_back("undecided", stats.undecided);
  row.emplace_back("mean_steps", stats.mean_steps);
  row.emplace_back("loops", stats.loops);
  return util::json::Value(std::move(row));
}

void report() {
  bench::heading("E8 / ensemble statistics: who oscillates, how often",
                 "the modified protocol never oscillates and never loops; "
                 "standard and Walton oscillate at MED-dependent rates");

  struct Ensemble {
    const char* name;
    topo::RandomConfig config;
  };
  std::vector<Ensemble> ensembles;
  {
    topo::RandomConfig mild;
    mild.clusters = 3;
    mild.max_clients = 1;
    mild.exits = 4;
    mild.max_med = 1;
    mild.extra_link_prob = 0.15;
    ensembles.push_back({"mild (3 clusters, low MED)", mild});

    topo::RandomConfig medy = mild;
    medy.max_med = 3;
    medy.exits = 5;
    medy.extra_link_prob = 0.3;
    ensembles.push_back({"MED-heavy (3 clusters)", medy});

    topo::RandomConfig big = medy;
    big.clusters = 4;
    big.max_clients = 2;
    big.exits = 6;
    ensembles.push_back({"large (4 clusters, 6 exits)", big});

    topo::RandomConfig shortcutty = medy;
    shortcutty.extra_link_prob = 0.5;
    shortcutty.exits_at_clients_only = true;
    ensembles.push_back({"shortcut-rich, client exits", shortcutty});
  }

  util::json::Array ensemble_rows;
  constexpr std::size_t kCount = 400;
  for (const auto& [name, config] : ensembles) {
    std::printf("\n--- ensemble: %s (%zu instances) ---\n", name, kCount);
    std::printf("  %-9s | oscillate | converge | undecided | mean steps | loops\n",
                "protocol");
    util::json::Object ensemble_row;
    ensemble_row.emplace_back("ensemble", name);
    ensemble_row.emplace_back("instances", kCount);
    for (const auto kind : {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
                            core::ProtocolKind::kModified}) {
      const auto stats = sweep(config, kind, /*seed_base=*/1000, kCount);
      std::printf("  %-9s | %9zu | %8zu | %9zu | %10.1f | %zu\n",
                  core::protocol_name(kind), stats.oscillated, stats.converged,
                  stats.undecided, stats.mean_steps, stats.loops);
      ensemble_row.emplace_back(core::protocol_name(kind), stats_json(stats));
    }
    ensemble_rows.emplace_back(std::move(ensemble_row));
  }

  // The Section 1 operational mitigations, measured: how much of the
  // standard protocol's oscillation rate do the MED workarounds remove, and
  // at what cost?  (They change route selection semantics; the modified
  // protocol removes the oscillations without touching MED semantics.)
  std::printf("\n--- MED-mitigation ablation (standard protocol, MED-heavy ensemble) ---\n");
  std::printf("  %-22s | oscillate | converge | undecided\n", "med mode");
  util::json::Array ablation_rows;
  topo::RandomConfig ablation = ensembles[1].config;
  for (const auto& [label, mode] :
       {std::pair{"per-neighbor-AS (spec)", bgp::MedMode::kPerNeighborAs},
        std::pair{"always-compare-med", bgp::MedMode::kAlwaysCompare},
        std::pair{"ignore-med", bgp::MedMode::kIgnore}}) {
    ablation.policy.med = mode;
    const auto stats = sweep(ablation, core::ProtocolKind::kStandard, 1000, kCount);
    std::printf("  %-22s | %9zu | %8zu | %9zu\n", label, stats.oscillated,
                stats.converged, stats.undecided);
    util::json::Object row;
    row.emplace_back("med_mode", label);
    row.emplace_back("stats", stats_json(stats));
    ablation_rows.emplace_back(std::move(row));
  }

  if (!bench::config().json_path.empty()) {
    util::json::Object doc;
    doc.emplace_back("schema", "ibgp-bench-v1");
    doc.emplace_back("bench", "bench_oscillation_rates");
    doc.emplace_back("experiment", "E8");
    doc.emplace_back("ensembles", std::move(ensemble_rows));
    doc.emplace_back("med_ablation", std::move(ablation_rows));
    bench::write_json(util::json::Value(std::move(doc)));
  }
}

void BM_ClassifyStandard(benchmark::State& state) {
  topo::RandomConfig config;
  config.clusters = 3;
  config.exits = 5;
  config.max_med = 3;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto inst = topo::random_instance(config, ++seed);
    auto sig = analysis::classify(inst, core::ProtocolKind::kStandard, 4000);
    benchmark::DoNotOptimize(sig.round_robin);
  }
}
BENCHMARK(BM_ClassifyStandard);

}  // namespace

IBGP_BENCH_MAIN(report)
