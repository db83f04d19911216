#include "sat/reduction.hpp"

#include <stdexcept>
#include <string>

#include "topo/builder.hpp"

namespace ibgp::sat {

namespace {
constexpr Cost kFar = 1000;  // backbone cost isolating gadget metrics
}

Reduction reduce_to_ibgp(const Formula& formula) {
  if (formula.num_vars() == 0 || formula.num_clauses() == 0) {
    throw std::invalid_argument("reduce_to_ibgp: empty formula");
  }
  for (const Clause& clause : formula.clauses()) {
    if (clause.size() != 3) {
      throw std::invalid_argument("reduce_to_ibgp: clauses must have exactly 3 literals");
    }
  }

  topo::InstanceBuilder b;
  std::vector<VariableGadget> vars(formula.num_vars() + 1);
  std::vector<ClauseGadget> clauses(formula.num_clauses());

  netsim::ClusterId next_cluster = 0;
  BgpId next_peer = 1001;

  // --- variable gadgets ----------------------------------------------------
  for (std::uint32_t v = 1; v <= formula.num_vars(); ++v) {
    VariableGadget& gadget = vars[v];
    const std::string sv = std::to_string(v);
    const auto cluster_t = next_cluster++;
    const auto cluster_f = next_cluster++;
    gadget.r_true = b.reflector("xT" + sv, cluster_t);
    gadget.c_true = b.client("cT" + sv, cluster_t);
    gadget.r_false = b.reflector("xF" + sv, cluster_f);
    gadget.c_false = b.client("cF" + sv, cluster_f);

    b.link("xT" + sv, "cT" + sv, 10);
    b.link("xF" + sv, "cF" + sv, 10);
    b.link("xT" + sv, "cF" + sv, 2);  // dotted: prefer the other side
    b.link("xF" + sv, "cT" + sv, 2);
    b.link("xT" + sv, "xF" + sv, 10);

    topo::ExitSpec spec_t;
    spec_t.name = "eT" + sv;
    spec_t.at = "cT" + sv;
    spec_t.next_as = v;  // private AS B_v
    spec_t.med = 1;
    spec_t.ebgp_peer = next_peer++;
    b.exit(spec_t);

    topo::ExitSpec spec_f = spec_t;
    spec_f.name = "eF" + sv;
    spec_f.at = "cF" + sv;
    spec_f.ebgp_peer = next_peer++;
    b.exit(spec_f);
  }

  // --- clause gadgets (rings + taps) ---------------------------------------
  for (std::size_t j = 0; j < formula.num_clauses(); ++j) {
    ClauseGadget& gadget = clauses[j];
    const Clause& clause = formula.clauses()[j];
    const AsId clause_as = formula.num_vars() + 1 + static_cast<AsId>(j);
    const std::string sj = std::to_string(j);

    for (int k = 0; k < 3; ++k) {
      const std::string sk = sj + "_" + std::to_string(k);
      const auto ring_cluster = next_cluster++;
      gadget.ring_rr[k] = b.reflector("K" + sk, ring_cluster);
      gadget.ring_client[k] = b.client("kq" + sk, ring_cluster);
      b.link("K" + sk, "kq" + sk, 3);

      topo::ExitSpec q;
      q.name = "q" + sk;
      q.at = "kq" + sk;
      q.next_as = clause_as;
      q.med = 1;
      q.ebgp_peer = next_peer++;
      b.exit(q);
    }
    // Dotted prev-links: each ring reflector 2 away from the previous
    // cluster's exit, 3 from its own — the inverter metric.
    for (int k = 0; k < 3; ++k) {
      const int prev = (k + 2) % 3;
      b.link("K" + sj + "_" + std::to_string(k),
             "kq" + sj + "_" + std::to_string(prev), 2);
    }

    for (int k = 0; k < 3; ++k) {
      const Lit lit = clause[static_cast<std::size_t>(k)];
      const std::string sk = sj + "_" + std::to_string(k);
      const auto tap_cluster = next_cluster++;
      gadget.tap_rr[k] = b.reflector("T" + sk, tap_cluster);
      gadget.tap_client[k] = b.client("tc" + sk, tap_cluster);
      b.link("T" + sk, "tc" + sk, 10);
      // Suppressor hookup: dotted to the OPPOSITE-polarity variable exit, so
      // the tap is silenced exactly when the literal is false.
      const std::string suppressor =
          (lit.positive() ? "cF" : "cT") + std::to_string(lit.var());
      b.link("T" + sk, suppressor, 2);

      topo::ExitSpec tau;
      tau.name = "tau" + sk;
      tau.at = "tc" + sk;
      tau.next_as = clause_as;
      tau.med = 0;  // MED-eliminates every ring exit q of this clause
      tau.ebgp_peer = next_peer++;
      b.exit(tau);
    }
  }

  // --- backbone: connect gadget regions with far links ---------------------
  for (std::uint32_t v = 2; v <= formula.num_vars(); ++v) {
    b.link("xT" + std::to_string(v - 1), "xT" + std::to_string(v), kFar);
  }
  b.link("xT" + std::to_string(formula.num_vars()), "K0_0", kFar);
  for (std::size_t j = 1; j < formula.num_clauses(); ++j) {
    b.link('K' + std::to_string(j - 1) + "_0", 'K' + std::to_string(j) + "_0", kFar);
  }

  core::Instance instance = b.build("sat-reduction");

  // Resolve path ids now that the exit table exists.
  for (std::uint32_t v = 1; v <= formula.num_vars(); ++v) {
    vars[v].e_true = instance.exits().find_by_name("eT" + std::to_string(v));
    vars[v].e_false = instance.exits().find_by_name("eF" + std::to_string(v));
  }
  for (std::size_t j = 0; j < formula.num_clauses(); ++j) {
    for (int k = 0; k < 3; ++k) {
      const std::string sk = std::to_string(j) + "_" + std::to_string(k);
      clauses[j].q[k] = instance.exits().find_by_name("q" + sk);
      clauses[j].tau[k] = instance.exits().find_by_name("tau" + sk);
    }
  }

  return Reduction{std::move(instance), std::move(vars), std::move(clauses)};
}

std::vector<std::vector<NodeId>> Reduction::steering(const Assignment& assignment) const {
  std::vector<std::vector<NodeId>> schedule;

  // 1. Clients pin their own exits.
  for (std::size_t v = 1; v < vars.size(); ++v) {
    schedule.push_back({vars[v].c_true});
    schedule.push_back({vars[v].c_false});
  }
  for (const ClauseGadget& clause : clauses) {
    for (int k = 0; k < 3; ++k) {
      schedule.push_back({clause.ring_client[k]});
      schedule.push_back({clause.tap_client[k]});
    }
  }

  // 2. Variable gadgets: activate the chosen side's reflector first so it
  //    advertises its exit; the other reflector then locks onto it and goes
  //    silent (the Fig-2 sequential convergence).
  for (std::size_t v = 1; v < vars.size(); ++v) {
    const bool value = v < assignment.size() && assignment[v];
    const NodeId first = value ? vars[v].r_true : vars[v].r_false;
    const NodeId second = value ? vars[v].r_false : vars[v].r_true;
    schedule.push_back({first});
    schedule.push_back({second});
    schedule.push_back({first});  // re-read: stays put
  }

  // 3. Taps observe the variable state; true literals start advertising tau.
  for (const ClauseGadget& clause : clauses) {
    for (int k = 0; k < 3; ++k) schedule.push_back({clause.tap_rr[k]});
  }

  // 4. Ring reflectors see the defusers and freeze.
  for (const ClauseGadget& clause : clauses) {
    for (int k = 0; k < 3; ++k) schedule.push_back({clause.ring_rr[k]});
  }

  // 5. Two cleanup rounds over everybody, sequentially.
  for (int round = 0; round < 2; ++round) {
    for (NodeId v = 0; v < instance.node_count(); ++v) schedule.push_back({v});
  }
  return schedule;
}

}  // namespace ibgp::sat
