// Experiment E2 — Figure 1(b): sensitivity to the rule-4/5 ordering
// (footnote 4).
//
// Reproduces: under the paper's default ordering (E-BGP preferred before IGP
// cost — Cisco/Juniper behavior) the fully-meshed configuration converges,
// because B always keeps its own E-BGP route; under the RFC 1771 ordering
// (IGP cost first) the same configuration oscillates persistently with no
// stable solution.  The modified protocol converges under BOTH orderings.

#include "bench_common.hpp"

#include "analysis/stable_search.hpp"
#include "topo/figures.hpp"

namespace {

using namespace ibgp;

void report() {
  bench::heading("E2 / Figure 1(b): selection-rule ordering",
                 "converges under prefer-E-BGP ordering; diverges (fully "
                 "meshed!) under the RFC-1771 IGP-cost-first ordering");

  for (const auto& [label, order] :
       {std::pair{"prefer-ebgp-first (paper default)", bgp::RuleOrder::kPreferEbgpFirst},
        std::pair{"igp-cost-first (RFC 1771 style)", bgp::RuleOrder::kIgpCostFirst}}) {
    bgp::SelectionPolicy policy;
    policy.order = order;
    const auto inst = topo::fig1b().with_policy(policy);
    const auto stable = analysis::enumerate_stable_standard(inst);
    std::printf("\n--- ordering: %s ---\n", label);
    std::printf("stable configurations (standard): %zu%s\n", stable.solutions.size(),
                stable.exhaustive ? " — exhaustive" : "");
    bench::report_grid(inst);
  }
}

void BM_DefaultOrdering(benchmark::State& state) {
  bench::run_protocol_benchmark(state, topo::fig1b(), core::ProtocolKind::kStandard, 20000);
}
BENCHMARK(BM_DefaultOrdering);

void BM_RfcOrderingUntilCycle(benchmark::State& state) {
  bgp::SelectionPolicy policy;
  policy.order = bgp::RuleOrder::kIgpCostFirst;
  const auto inst = topo::fig1b().with_policy(policy);
  bench::run_protocol_benchmark(state, inst, core::ProtocolKind::kStandard, 20000);
}
BENCHMARK(BM_RfcOrderingUntilCycle);

}  // namespace

IBGP_BENCH_MAIN(report)
