// Experiment E1 — Figure 1(a): the RFC 3345 persistent MED oscillation.
//
// Reproduces: standard I-BGP with route reflection oscillates persistently
// (a provable cycle; exhaustive search confirms no stable configuration
// exists); the Walton et al. fix and the paper's modified protocol both
// converge here; the modified protocol reaches its closed-form fixed point
// under every schedule.  Also reports the MED-mitigation rows the paper's
// introduction discusses (ignore-MED / always-compare-MED).

#include "bench_common.hpp"

#include "analysis/stable_search.hpp"
#include "core/fixed_point.hpp"
#include "topo/figures.hpp"

namespace {

using namespace ibgp;

void report() {
  bench::heading("E1 / Figure 1(a): persistent route oscillation",
                 "standard I-BGP+RR diverges (no stable configuration); "
                 "Walton and the modified protocol converge");
  const auto inst = topo::fig1a();

  const auto stable = analysis::enumerate_stable_standard(inst);
  std::printf("stable configurations (standard protocol): %zu%s\n", stable.solutions.size(),
              stable.exhaustive ? " — exhaustive" : "");

  bench::report_grid(inst);

  std::printf("\nMED mitigations (standard protocol, per Section 1):\n");
  for (const auto& [label, mode] :
       {std::pair{"ignore-med", bgp::MedMode::kIgnore},
        std::pair{"always-compare-med", bgp::MedMode::kAlwaysCompare}}) {
    bgp::SelectionPolicy policy;
    policy.med = mode;
    const auto sig = analysis::classify(inst.with_policy(policy),
                                        core::ProtocolKind::kStandard);
    std::printf("  %-18s : round-robin=%s synchronous=%s\n", label,
                engine::run_status_name(sig.round_robin),
                engine::run_status_name(sig.synchronous));
  }

  const auto prediction = core::predict_fixed_point(inst);
  std::printf("\nmodified-protocol fixed point: S' size %zu, best: ", prediction.s_prime.size());
  std::vector<PathId> best;
  for (const auto& view : prediction.best) best.push_back(view ? view->path : kNoPath);
  std::printf("%s\n", engine::describe_best(inst, best).c_str());
}

void BM_StandardUntilCycle(benchmark::State& state) {
  bench::run_protocol_benchmark(state, topo::fig1a(), core::ProtocolKind::kStandard, 20000);
}
BENCHMARK(BM_StandardUntilCycle);

void BM_ModifiedUntilConverged(benchmark::State& state) {
  bench::run_protocol_benchmark(state, topo::fig1a(), core::ProtocolKind::kModified, 20000);
}
BENCHMARK(BM_ModifiedUntilConverged);

void BM_StableSearch(benchmark::State& state) {
  const auto inst = topo::fig1a();
  for (auto _ : state) {
    auto result = analysis::enumerate_stable_standard(inst);
    benchmark::DoNotOptimize(result.nodes_explored);
  }
}
BENCHMARK(BM_StableSearch);

}  // namespace

IBGP_BENCH_MAIN(report)
