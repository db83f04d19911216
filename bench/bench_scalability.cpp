// Experiment E9 — the scalability ablation the paper's Sections 1 and 10
// call out: the modified protocol trades extra advertised state ("each
// router must advertise multiple paths instead of a single best path") for
// guaranteed convergence.
//
// Measures, as topology size grows: advertised-set sizes per protocol
// (|best| = 1 vs Walton's <= #ASes vs the modified protocol's |S'|),
// activation steps and UPDATE-message counts to convergence in both engines,
// and wall-clock per activation.  Shape expected: modified's advertised set
// grows with the MED-survivor count (bounded by #exits), its message volume
// is a small constant factor over standard, and convergence steps stay
// linear in the fairness period.

#include "bench_common.hpp"

#include "core/fixed_point.hpp"
#include "engine/event_engine.hpp"
#include "engine/sync_engine.hpp"
#include "topo/random.hpp"

namespace {

using namespace ibgp;

topo::RandomConfig sized_config(std::size_t clusters, std::size_t exits) {
  topo::RandomConfig config;
  config.clusters = clusters;
  config.min_clients = 1;
  config.max_clients = 2;
  config.neighbor_ases = 3;
  config.exits = exits;
  config.max_med = 2;
  config.extra_link_prob = 0.1;
  return config;
}

struct Row {
  std::size_t nodes = 0;
  double steps = 0;        // sync steps to quiescence (converged runs)
  double messages = 0;     // event-engine updates sent
  double advertised = 0;   // mean advertised-set size at the fixed point
  std::size_t converged = 0;
};

Row measure(core::ProtocolKind kind, std::size_t clusters, std::size_t exits,
            std::size_t samples) {
  Row row;
  double steps_total = 0, msg_total = 0, adv_total = 0, adv_count = 0;
  for (std::uint64_t seed = 1; seed <= samples; ++seed) {
    const auto inst = topo::random_instance(sized_config(clusters, exits), 7000 + seed);
    row.nodes = inst.node_count();

    engine::SyncEngine sync(inst, kind);
    auto rr = engine::make_round_robin(inst.node_count());
    engine::RunLimits limits;
    limits.max_steps = 20000;
    const auto outcome = engine::run(sync, *rr, limits);
    if (!outcome.converged()) continue;
    ++row.converged;
    steps_total += static_cast<double>(outcome.quiescent_since);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      adv_total += static_cast<double>(sync.advertised(v).size());
      ++adv_count;
    }

    engine::EventEngine event(inst, kind);
    event.inject_all_exits();
    const auto event_result = event.run(2'000'000);
    if (event_result.converged) msg_total += static_cast<double>(event_result.updates_sent);
  }
  if (row.converged > 0) {
    row.steps = steps_total / static_cast<double>(row.converged);
    row.messages = msg_total / static_cast<double>(row.converged);
  }
  if (adv_count > 0) row.advertised = adv_total / adv_count;
  return row;
}

void report() {
  bench::heading("E9 / scalability & advertisement overhead",
                 "the modified protocol's cost: multiple advertised paths "
                 "per prefix; its benefit: convergence independent of size");

  constexpr std::size_t kSamples = 40;
  std::printf("size sweep (%zu random instances per cell; converged runs only):\n",
              kSamples);
  std::printf(
      "  clusters exits | protocol  | nodes | conv | mean steps | mean msgs | mean |adv|\n");
  std::printf(
      "  ---------------+-----------+-------+------+------------+-----------+-----------\n");
  for (const auto& [clusters, exits] :
       {std::pair<std::size_t, std::size_t>{2, 4}, {4, 6}, {6, 8}, {8, 10}, {12, 12}}) {
    for (const auto kind : {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
                            core::ProtocolKind::kModified}) {
      const auto row = measure(kind, clusters, exits, kSamples);
      std::printf("  %8zu %5zu | %-9s | %5zu | %4zu | %10.1f | %9.1f | %9.2f\n", clusters,
                  exits, core::protocol_name(kind), row.nodes, row.converged, row.steps,
                  row.messages, row.advertised);
    }
  }
  std::printf(
      "\nNote: standard/Walton 'conv' < samples on ensembles where they oscillate;\n"
      "the modified protocol must show conv == samples on every row (Section 7).\n");
}

void BM_SyncStepModified(benchmark::State& state) {
  const auto clusters = static_cast<std::size_t>(state.range(0));
  const auto inst = topo::random_instance(sized_config(clusters, clusters + 4), 42);
  engine::SyncEngine engine(inst, core::ProtocolKind::kModified);
  auto rr = engine::make_round_robin(inst.node_count());
  for (auto _ : state) {
    engine.step(rr->next());
    benchmark::DoNotOptimize(engine.state_hash());
  }
  state.SetLabel(std::to_string(inst.node_count()) + " nodes");
}
BENCHMARK(BM_SyncStepModified)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_EventConvergenceModified(benchmark::State& state) {
  const auto clusters = static_cast<std::size_t>(state.range(0));
  const auto inst = topo::random_instance(sized_config(clusters, clusters + 4), 42);
  for (auto _ : state) {
    engine::EventEngine engine(inst, core::ProtocolKind::kModified);
    engine.inject_all_exits();
    auto result = engine.run(2'000'000);
    benchmark::DoNotOptimize(result.updates_sent);
  }
  state.SetLabel(std::to_string(inst.node_count()) + " nodes");
}
BENCHMARK(BM_EventConvergenceModified)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FixedPointPrediction(benchmark::State& state) {
  const auto clusters = static_cast<std::size_t>(state.range(0));
  const auto inst = topo::random_instance(sized_config(clusters, clusters + 4), 42);
  for (auto _ : state) {
    auto prediction = core::predict_fixed_point(inst);
    benchmark::DoNotOptimize(prediction.s_prime.size());
  }
}
BENCHMARK(BM_FixedPointPrediction)->Arg(4)->Arg(16)->Arg(32);

}  // namespace

IBGP_BENCH_MAIN(report)
