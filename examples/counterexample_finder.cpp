// counterexample_finder — randomized search for configurations that break a
// protocol, in the spirit of Section 8's counterexample to Walton et al.
//
// Samples random route-reflection configurations and classifies each under
// round-robin and synchronous schedules with provable cycle detection.  Can
// demand that the oscillation be MED-induced (vanishes with MEDs ignored)
// and that the paper's modified protocol converge on the same instance.
//
//   $ ./counterexample_finder --protocol walton --med-induced
//         --clusters 4 --exits 5 --attempts 200000

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/finder.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "engine/oscillation.hpp"
#include "topo/dsl.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace ibgp;

  util::Flags flags("counterexample_finder",
                    "search random configurations for protocol-breaking instances");
  flags.add_string("protocol", "walton", "protocol to break: standard|walton|modified");
  flags.add_bool("med-induced", true, "require oscillation to vanish when MEDs are ignored");
  flags.add_bool("modified-converges", true,
                 "require the paper's modified protocol to converge on the instance");
  flags.add_bool("both-schedules", false,
                 "require cycles under BOTH round-robin and synchronous schedules");
  flags.add_int("clusters", 4, "number of clusters");
  flags.add_int("min-clients", 0, "minimum clients per cluster");
  flags.add_int("max-clients", 1, "maximum clients per cluster");
  flags.add_int("ases", 2, "number of neighboring ASes");
  flags.add_int("exits", 5, "number of exit paths");
  flags.add_int("max-med", 2, "maximum MED value");
  flags.add_int("max-cost", 8, "maximum IGP link cost");
  flags.add_int("max-exit-cost", 4, "maximum exit cost");
  flags.add_double("extra-links", 0.3, "extra IGP-only link probability");
  flags.add_bool("exits-at-clients", false, "place exits only at clients");
  flags.add_int("attempts", 100000, "instances to sample");
  flags.add_int("seed", 1, "base RNG seed");
  flags.add_int("max-steps", 4000, "step budget per classification run");
  flags.add_int("event-seed", 1, "base seed for message-level confirmation trials");
  flags.add_int("event-trials", 10,
                "seeded event-engine delay schedules to confirm the find (0 = skip)");
  flags.add_int("jobs", 0,
                "worker threads for the confirmation trials (0 = one per hardware thread)");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", std::string(flags.error()).c_str(),
                 flags.help_text().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help_text().c_str());
    return 0;
  }

  topo::RandomConfig config;
  config.clusters = static_cast<std::size_t>(flags.get_int("clusters"));
  config.min_clients = static_cast<std::size_t>(flags.get_int("min-clients"));
  config.max_clients = static_cast<std::size_t>(flags.get_int("max-clients"));
  config.neighbor_ases = static_cast<std::size_t>(flags.get_int("ases"));
  config.exits = static_cast<std::size_t>(flags.get_int("exits"));
  config.max_med = static_cast<Med>(flags.get_int("max-med"));
  config.max_link_cost = flags.get_int("max-cost");
  config.max_exit_cost = flags.get_int("max-exit-cost");
  config.extra_link_prob = flags.get_double("extra-links");
  config.exits_at_clients_only = flags.get_bool("exits-at-clients");

  analysis::FinderCriteria criteria;
  const std::string protocol = std::string(flags.get_string("protocol"));
  if (protocol == "standard") {
    criteria.protocol = core::ProtocolKind::kStandard;
  } else if (protocol == "walton") {
    criteria.protocol = core::ProtocolKind::kWalton;
  } else if (protocol == "modified") {
    criteria.protocol = core::ProtocolKind::kModified;
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", protocol.c_str());
    return 2;
  }
  criteria.med_induced = flags.get_bool("med-induced");
  criteria.modified_converges = flags.get_bool("modified-converges");
  criteria.both_schedules = flags.get_bool("both-schedules");
  criteria.max_steps = static_cast<std::size_t>(flags.get_int("max-steps"));

  const auto result = analysis::find_counterexample(
      config, criteria, static_cast<std::uint64_t>(flags.get_int("seed")),
      static_cast<std::size_t>(flags.get_int("attempts")));

  if (!result.found) {
    std::printf("no counterexample for %s in %zu attempts\n", protocol.c_str(),
                result.attempts_used);
    return 1;
  }

  std::printf("found after %zu attempts (seed %llu):\n\n%s\n", result.attempts_used,
              static_cast<unsigned long long>(result.seed_found),
              topo::write_topo(*result.found).c_str());

  const auto signature = analysis::classify(*result.found, criteria.protocol,
                                            criteria.max_steps);
  std::printf("%s: round-robin=%s synchronous=%s\n", protocol.c_str(),
              engine::run_status_name(signature.round_robin),
              engine::run_status_name(signature.synchronous));
  const auto modified =
      analysis::classify(*result.found, core::ProtocolKind::kModified, criteria.max_steps);
  std::printf("modified: round-robin=%s synchronous=%s\n",
              engine::run_status_name(modified.round_robin),
              engine::run_status_name(modified.synchronous));

  // Message-level confirmation: replay the instance through the event engine
  // under seeded random per-message delays.  A schedule-level cycle is only
  // interesting if delay schedules also fail to settle; each trial is
  // reproducible from --event-seed (trial i uses derive_seed(event-seed, i)).
  // Trials are independent cells (own engine, own index-derived RNG), so the
  // batch fans out across --jobs threads; verdicts are collected in an
  // index-keyed vector and counted in order, keeping the tally and every
  // printed line identical for any --jobs value.
  const auto trials = static_cast<std::size_t>(flags.get_int("event-trials"));
  if (trials > 0) {
    const auto base_seed = static_cast<std::uint64_t>(flags.get_int("event-seed"));
    const auto jobs = util::resolve_jobs(static_cast<std::size_t>(flags.get_int("jobs")));
    const std::size_t budget = 50 * static_cast<std::size_t>(flags.get_int("max-steps"));
    for (const auto& [kind, label] :
         {std::pair{criteria.protocol, protocol.c_str()},
          std::pair{core::ProtocolKind::kModified, "modified"}}) {
      std::vector<char> converged(trials, 0);
      util::parallel_for(trials, jobs, [&, kind = kind](std::size_t i) {
        auto rng = std::make_shared<util::Xoshiro256>(util::derive_seed(base_seed, i));
        engine::EventEngine sim(*result.found, kind,
                                [rng](NodeId, NodeId, std::uint64_t) {
                                  return engine::SimTime{1 + rng->below(40)};
                                });
        sim.inject_all_exits(0);
        converged[i] = sim.run(budget).converged ? 1 : 0;
      });
      std::size_t settled = 0;
      for (const char c : converged) settled += c;
      std::printf("message-level (%zu seeded delay trials, seed %llu): %s settled %zu/%zu\n",
                  trials, static_cast<unsigned long long>(base_seed), label, settled,
                  trials);
    }
  }
  return 0;
}
