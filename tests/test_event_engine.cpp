// Event-driven engine tests: message-level convergence on the paper's
// figures, agreement with the synchronous engine where both converge,
// delay-script sensitivity (Fig 3 / Table 1 behavior), FIFO sessions, and
// E-BGP announce/withdraw dynamics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/fixed_point.hpp"
#include "engine/activation.hpp"
#include "engine/event_engine.hpp"
#include "engine/oscillation.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ibgp::engine {
namespace {

using core::ProtocolKind;

// --- basic convergence -----------------------------------------------------------

TEST(EventEngine, Fig14StandardConvergesToLoopyConfig) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.final_best[inst.find_node("c1")], inst.exits().find_by_name("r1"));
  EXPECT_EQ(result.final_best[inst.find_node("c2")], inst.exits().find_by_name("r2"));
}

TEST(EventEngine, Fig14ModifiedGivesCrossedChoices) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.final_best[inst.find_node("c1")], inst.exits().find_by_name("r2"));
  EXPECT_EQ(result.final_best[inst.find_node("c2")], inst.exits().find_by_name("r1"));
}

TEST(EventEngine, Fig1aStandardNeverDrains) {
  const auto inst = topo::fig1a();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  const auto result = engine.run(/*max_deliveries=*/20000);
  EXPECT_FALSE(result.converged) << "persistent oscillation must keep messages in flight";
  EXPECT_GT(result.best_flips, 100u);
}

TEST(EventEngine, Fig1aModifiedConvergesToPrediction) {
  const auto inst = topo::fig1a();
  const auto prediction = core::predict_fixed_point(inst);
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, Fig13WaltonNeverDrainsButModifiedDoes) {
  const auto inst = topo::fig13();
  {
    EventEngine walton(inst, ProtocolKind::kWalton);
    walton.inject_all_exits();
    const auto result = walton.run(/*max_deliveries=*/30000);
    EXPECT_FALSE(result.converged);
  }
  {
    EventEngine modified(inst, ProtocolKind::kModified);
    modified.inject_all_exits();
    const auto result = modified.run();
    EXPECT_TRUE(result.converged);
  }
}

// --- agreement with the synchronous engine ----------------------------------------

TEST(EventEngine, AgreesWithSyncEngineOnConvergentFigures) {
  for (const auto& [name, inst] : topo::all_figures()) {
    // The modified protocol converges everywhere, to the same configuration
    // in both semantics.
    const auto prediction = core::predict_fixed_point(inst);
    EventEngine event(inst, ProtocolKind::kModified);
    event.inject_all_exits();
    const auto event_result = event.run();
    ASSERT_TRUE(event_result.converged) << name;
    auto rr = make_round_robin(inst.node_count());
    const auto sync_result = run_protocol(inst, ProtocolKind::kModified, *rr);
    ASSERT_EQ(sync_result.status, RunStatus::kConverged) << name;
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
      EXPECT_EQ(event_result.final_best[v], expected) << name << " node " << v;
      EXPECT_EQ(sync_result.final_best[v], expected) << name << " node " << v;
    }
  }
}

// --- delay sensitivity (the Fig 3 / Table 1 phenomenon) -----------------------------

TEST(EventEngine, Fig3InjectionOrderSelectsStableSolution) {
  const auto inst = topo::fig3();
  const PathId r3 = inst.exits().find_by_name("r3");
  const PathId r4 = inst.exits().find_by_name("r4");
  const PathId r5 = inst.exits().find_by_name("r5");
  const PathId r6 = inst.exits().find_by_name("r6");
  const NodeId b = inst.find_node("B");
  const NodeId c = inst.find_node("C");

  // Everything at once with perfectly symmetric delays: B and C flip in
  // lockstep forever — the "timing coincidence" of Section 3 made permanent
  // by symmetry.  (The synchronous-activation model converges here; the
  // message-level model is exactly where the paper demonstrates Table 1.)
  {
    EventEngine engine(inst, ProtocolKind::kStandard);
    engine.inject_all_exits(0);
    const auto result = engine.run(/*max_deliveries=*/20000);
    EXPECT_FALSE(result.converged);
    EXPECT_GT(result.best_flips, 100u);
  }

  // Staggered injection breaks the symmetry: the MED-0 pair locks in.
  {
    EventEngine engine(inst, ProtocolKind::kStandard);
    for (PathId p = 0; p < inst.exits().size(); ++p) engine.inject_exit(p, 5 * p);
    const auto result = engine.run();
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.final_best[b], r3);
    EXPECT_EQ(result.final_best[c], r5);
  }

  // MED-0 pair injected LATE: the cheap exits (r4, r6) lock in first and
  // survive — a different stable solution, selected purely by timing.
  {
    EventEngine engine(inst, ProtocolKind::kStandard);
    for (const char* name : {"r1", "r2", "r4", "r6"}) {
      engine.inject_exit(inst.exits().find_by_name(name), 0);
    }
    engine.inject_exit(r3, 100);
    engine.inject_exit(r5, 100);
    const auto result = engine.run();
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.final_best[b], r4);
    EXPECT_EQ(result.final_best[c], r6);
  }
}

TEST(EventEngine, Fig3ModifiedIgnoresInjectionOrder) {
  const auto inst = topo::fig3();
  const auto prediction = core::predict_fixed_point(inst);
  util::Xoshiro256 rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    EventEngine engine(inst, ProtocolKind::kModified);
    for (PathId p = 0; p < inst.exits().size(); ++p) {
      engine.inject_exit(p, rng.below(200));
    }
    const auto result = engine.run();
    ASSERT_TRUE(result.converged);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
      ASSERT_EQ(result.final_best[v], expected)
          << "trial " << trial << " node " << inst.node_name(v);
    }
  }
}

TEST(EventEngine, Fig3DelayedWithdrawCausesTransientFlaps) {
  // Steer into the (r3, r5) solution, then re-announce the cheap routes and
  // withdraw the MED-0 pair: B and C flap through intermediate choices —
  // transient oscillation, then stability.
  const auto inst = topo::fig3();
  EventEngine engine(inst, ProtocolKind::kStandard);
  for (const char* name : {"r1", "r2", "r3", "r5"}) {
    engine.inject_exit(inst.exits().find_by_name(name), 0);
  }
  engine.inject_exit(inst.exits().find_by_name("r4"), 50);
  engine.inject_exit(inst.exits().find_by_name("r6"), 50);
  engine.withdraw_exit(inst.exits().find_by_name("r3"), 120);
  engine.withdraw_exit(inst.exits().find_by_name("r5"), 180);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.final_best[inst.find_node("B")], inst.exits().find_by_name("r4"));
  EXPECT_EQ(result.final_best[inst.find_node("C")], inst.exits().find_by_name("r6"));
  EXPECT_GE(result.best_flips, 6u) << "withdraw churn should flap best routes";
  EXPECT_FALSE(engine.flap_log().empty());
}

TEST(EventEngine, RandomDelaysNeverChangeModifiedOutcome) {
  const auto inst = topo::fig2();
  const auto prediction = core::predict_fixed_point(inst);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto rng = std::make_shared<util::Xoshiro256>(seed);
    EventEngine engine(inst, ProtocolKind::kModified,
                       [rng](NodeId, NodeId, std::uint64_t) -> SimTime {
                         return 1 + rng->below(50);
                       });
    engine.inject_all_exits();
    const auto result = engine.run();
    ASSERT_TRUE(result.converged) << "seed " << seed;
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
      ASSERT_EQ(result.final_best[v], expected) << "seed " << seed;
    }
  }
}

TEST(EventEngine, RandomDelaysCanChangeStandardOutcomeOnFig2) {
  // Fig 2 has two stable solutions; with randomized delays the standard
  // protocol must reach both across seeds (schedule-dependence).
  const auto inst = topo::fig2();
  std::set<std::vector<PathId>> outcomes;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto rng = std::make_shared<util::Xoshiro256>(seed);
    EventEngine engine(inst, ProtocolKind::kStandard,
                       [rng](NodeId, NodeId, std::uint64_t) -> SimTime {
                         return 1 + rng->below(20);
                       });
    engine.inject_all_exits();
    const auto result = engine.run(200000);
    if (result.converged) outcomes.insert(result.final_best);
  }
  EXPECT_GE(outcomes.size(), 2u) << "expected both stable solutions across seeds";
}

// --- E-BGP dynamics ------------------------------------------------------------------

TEST(EventEngine, WithdrawFlushesRoute) {
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.withdraw_exit(r3, 1000);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  const auto prediction =
      core::predict_fixed_point(inst, std::vector<PathId>{
                                          inst.exits().find_by_name("r1"),
                                          inst.exits().find_by_name("r2")});
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, WithdrawFlushesEveryAdjRibIn) {
  // The operational analogue of Lemma 7.2: once an E-BGP withdrawal has
  // propagated, NO router may keep the path in any Adj-RIB-In, no session
  // may still carry it in an advertised set, and nobody selects it.
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.withdraw_exit(r3, 1000);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_FALSE(engine.ebgp_live(r3));
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    EXPECT_NE(result.final_best[v], r3) << inst.node_name(v);
    EXPECT_TRUE(engine.rib_in(v, r3).empty()) << inst.node_name(v);
    for (const NodeId peer : inst.sessions().peers(v)) {
      const auto sent = engine.advertised_to(v, peer);
      EXPECT_FALSE(std::binary_search(sent.begin(), sent.end(), r3))
          << inst.node_name(v) << " -> " << inst.node_name(peer);
    }
  }
}

TEST(EventEngine, WithdrawReinjectChurnNeverLeavesStaleState) {
  // E-BGP churn: flap r3 through several withdraw/re-inject rounds ending
  // withdrawn.  Every round's stale copies must flush; the survivors settle
  // on the fixed point over the remaining exits.
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  for (const ProtocolKind protocol : {ProtocolKind::kStandard, ProtocolKind::kWalton,
                                      ProtocolKind::kModified}) {
    EventEngine engine(inst, protocol);
    engine.inject_all_exits(0);
    for (SimTime t = 500; t < 900; t += 100) {
      engine.withdraw_exit(r3, t);
      engine.inject_exit(r3, t + 50);
    }
    engine.withdraw_exit(r3, 900);
    const auto result = engine.run(500000);
    // Standard I-BGP oscillates on fig1a only while r3 is announced (the
    // MED conflict needs it): with r3 finally gone, every protocol drains.
    ASSERT_TRUE(result.converged) << core::protocol_name(protocol);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      EXPECT_NE(result.final_best[v], r3) << inst.node_name(v);
      EXPECT_TRUE(engine.rib_in(v, r3).empty()) << inst.node_name(v);
    }
  }
}

TEST(EventEngine, ReinjectAfterWithdrawRestoresFullFixedPoint) {
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.withdraw_exit(r3, 600);
  engine.inject_exit(r3, 900);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  const auto prediction = core::predict_fixed_point(inst);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, SetMraiRejectedOnceEventsAreScheduled) {
  const auto inst = topo::fig1a();
  {
    EventEngine engine(inst, ProtocolKind::kModified);
    engine.inject_all_exits(0);
    EXPECT_THROW(engine.set_mrai(50), std::logic_error);
  }
  {
    EventEngine engine(inst, ProtocolKind::kModified);
    engine.set_mrai(50);  // before any event: fine
    engine.set_mrai(0);
    engine.inject_all_exits(0);
    EXPECT_NO_THROW(engine.run());
  }
  {
    // Processed events seal the engine too.
    EventEngine engine(inst, ProtocolKind::kModified);
    engine.run();
    EXPECT_THROW(engine.set_mrai(10), std::logic_error);
  }
}

TEST(EventEngine, NoRoutesMeansNoBest) {
  const auto inst = topo::fig1a();
  EventEngine engine(inst, ProtocolKind::kStandard);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  for (const PathId best : result.final_best) EXPECT_EQ(best, kNoPath);
  EXPECT_EQ(result.deliveries, 0u);
}

TEST(EventEngine, UpdateCountsAreTracked) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.updates_sent, 0u);
  EXPECT_EQ(result.updates_sent, engine.counters().updates_sent);
  EXPECT_GE(result.deliveries, result.updates_sent);
}

TEST(EventEngine, FifoPreservedUnderShrinkingDelays) {
  // A later message with a smaller delay must not overtake an earlier one on
  // the same session: with shrinking delays, an early announce and its later
  // withdraw travel the same session, and an overtake would leave a stale
  // route in the receiver's Adj-RIB-In forever.  Run the modified protocol
  // (guaranteed to drain) and require the exact closed-form fixed point —
  // any FIFO violation shows up as a stale-route deviation.
  const auto inst = topo::fig2();
  const auto prediction = core::predict_fixed_point(inst);
  std::uint64_t call = 0;
  EventEngine engine(inst, ProtocolKind::kModified,
                     [&call](NodeId, NodeId, std::uint64_t) -> SimTime {
                       return call++ < 4 ? 100 : 1;  // early messages slow
                     });
  engine.inject_all_exits();
  const auto result = engine.run(200000);
  ASSERT_TRUE(result.converged);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, VoidedInFlightMessageNeverResurfacesAfterReUp) {
  // Epoch-semantics regression: an UPDATE in flight when its session resets
  // must be voided — it must NOT deliver after the session re-establishes,
  // even though its scheduled delivery time falls inside the new session's
  // lifetime.  Timeline (delay 50): announce sent at t=0 would land at 50;
  // the session flaps down at 10 / up at 20, so the resync replay lands at
  // 70.  Stepping one event at a time, the RIB must still be empty right
  // after the voided 50-tick delivery is consumed.
  const auto inst = topo::fig2();
  const PathId p0 = 0;
  const NodeId exit_point = inst.exits()[p0].exit_point;
  const NodeId peer = inst.sessions().peers(exit_point)[0];
  EventEngine engine(inst, ProtocolKind::kModified,
                     [](NodeId, NodeId, std::uint64_t) -> SimTime { return 50; });
  engine.inject_exit(p0, 0);
  engine.schedule_session_down(exit_point, peer, 10);
  engine.schedule_session_up(exit_point, peer, 20);

  bool checked_after_void = false;
  while (true) {
    const auto step = engine.run(/*max_deliveries=*/1);
    if (step.deliveries_voided > 0 && !checked_after_void) {
      checked_after_void = true;
      const auto holders = engine.rib_in(peer, p0);
      EXPECT_FALSE(std::binary_search(holders.begin(), holders.end(), exit_point))
          << "a voided pre-reset announce populated the re-established session";
    }
    if (step.converged) break;
  }
  ASSERT_TRUE(checked_after_void) << "scenario failed to void any delivery";

  // The resync replay (not the voided original) is what fills the RIB.
  const auto holders = engine.rib_in(peer, p0);
  EXPECT_TRUE(std::binary_search(holders.begin(), holders.end(), exit_point));
  const std::vector<PathId> live{p0};
  const auto prediction = core::predict_fixed_point(inst, live);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(engine.best_path(v), expected) << inst.node_name(v);
  }
}

namespace {
// Duplicates every message; used to stress per-session FIFO below.
class DuplicateEverything final : public FaultInjector {
 public:
  MessageFate classify(NodeId, NodeId, std::uint64_t) override {
    return MessageFate::kDuplicate;
  }
  void on_drop(EventEngine&, NodeId, NodeId, SimTime) override {}
};
}  // namespace

TEST(EventEngine, DuplicatedMessagesRespectPerSessionFifo) {
  // FIFO regression under duplication: every message is duplicated and the
  // per-message delay oscillates, so a duplicate drawn with a small delay
  // constantly tries to overtake earlier traffic on its session.  Combined
  // with announce/withdraw churn, any overtake resurrects a withdrawn route
  // or drops a live one — both show up as a deviation from the closed-form
  // fixed point.
  const auto inst = topo::fig2();
  const auto prediction = core::predict_fixed_point(inst);
  EventEngine engine(inst, ProtocolKind::kModified,
                     [](NodeId, NodeId, std::uint64_t seq) -> SimTime {
                       return (seq % 7) * 5 + 1;  // non-monotonic per session
                     });
  DuplicateEverything injector;
  engine.set_fault_injector(&injector);
  engine.inject_all_exits(0);
  engine.withdraw_exit(0, 40);
  engine.inject_exit(0, 80);
  const auto result = engine.run(200000);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.messages_duplicated, 0u);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, FlapLogRecordsTransitions) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  engine.run();
  ASSERT_FALSE(engine.flap_log().empty());
  const auto& first = engine.flap_log().front();
  EXPECT_EQ(first.old_best, kNoPath);
  EXPECT_NE(first.new_best, kNoPath);
}

// --- export filter ---------------------------------------------------------------

// The RFC 1966 reflection rule evaluated per (peer, path) straight from the
// Adj-RIB-In, independent of the engine's per-path export rules.
bool reference_may_send(const core::Instance& inst, const EngineState::NodeSnapshot& snap,
                        NodeId u, NodeId peer, PathId p) {
  const auto& clusters = inst.clusters();
  const NodeId exit_point = inst.exits()[p].exit_point;
  if (exit_point == u) return true;      // own E-BGP route: to every peer
  if (exit_point == peer) return false;  // ORIGINATOR_ID suppression
  if (clusters.is_client(u)) return false;
  // CLUSTER_LIST: a route exiting in u's cluster never goes to its reflectors.
  if (clusters.is_reflector(peer) && clusters.same_cluster(u, peer) &&
      clusters.same_cluster(exit_point, u)) {
    return false;
  }
  NodeId source = kNoNode;  // learnedFrom: the lowest-BGP-id holder
  for (const NodeId v : snap.holders[p]) {
    if (source == kNoNode || inst.bgp_id(v) < inst.bgp_id(source)) source = v;
  }
  if (source == kNoNode || source == peer) return false;
  if (clusters.is_client(source) && clusters.same_cluster(source, u)) return true;
  return clusters.is_client(peer) && clusters.same_cluster(peer, u);
}

// Recomputes every up node's decision from a captured snapshot and checks
// that the best route and each live session's desired_out equal the
// reference filter of it.  Returns the number of (node, peer) pairs checked.
std::size_t expect_exports_match_reference(const core::Instance& inst,
                                           const EventEngine& engine,
                                           ProtocolKind protocol) {
  const EngineState state = engine.capture();
  std::size_t checked = 0;
  for (NodeId u = 0; u < inst.node_count(); ++u) {
    if (!engine.node_up(u)) continue;
    const auto& snap = state.nodes[u];
    std::vector<bgp::Candidate> candidates;
    for (PathId p = 0; p < inst.exits().size(); ++p) {
      if (snap.own[p]) {
        candidates.push_back({p, inst.exits()[p].ebgp_peer});
      } else if (!snap.holders[p].empty()) {
        BgpId lowest = inst.bgp_id(snap.holders[p].front());
        for (const NodeId v : snap.holders[p]) lowest = std::min(lowest, inst.bgp_id(v));
        candidates.push_back({p, lowest});
      }
    }
    const auto decision = core::decide(inst, engine.igp(), protocol, u, candidates);
    EXPECT_EQ(snap.has_best ? snap.best_path : kNoPath,
              decision.best ? decision.best->path : kNoPath)
        << "node " << u;
    const auto peers = inst.sessions().peers(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      // A session that is down carries nothing; its desired set is only
      // rebuilt once the session (or the peer's graceful restart) resumes.
      if (!engine.session_up(u, peers[i])) continue;
      std::vector<PathId> expected;
      for (const PathId p : decision.advertised) {
        if (reference_may_send(inst, snap, u, peers[i], p)) expected.push_back(p);
      }
      EXPECT_EQ(snap.desired_out[i], expected) << "node " << u << " -> peer " << peers[i];
      ++checked;
    }
  }
  return checked;
}

bool any_stale(const EventEngine& engine) {
  const auto& inst = engine.instance();
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    for (PathId p = 0; p < inst.exits().size(); ++p) {
      if (!engine.stale_rib_in(v, p).empty()) return true;
    }
  }
  return false;
}

/// The churn scenarios the export, sync and candidate-index tests share:
/// six random instances with multi-reflector clusters (so the CLUSTER_LIST
/// clause matters) under all three protocols, MRAI on the even seeds, and a
/// graceful restart (stale holders), an E-BGP withdraw/re-announce and a
/// link-cost fault moving holders and distances between the steps.
/// `step(inst, engine, protocol, result)` runs after every run(5) step.
template <typename Step>
void run_churn_scenarios(Step step) {
  topo::RandomConfig config;
  config.clusters = 4;
  config.min_clients = 1;
  config.max_clients = 3;
  config.second_reflector_prob = 0.6;
  config.exits = 6;
  config.neighbor_ases = 3;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = topo::random_instance(config, seed);
    const NodeId restarting = inst.clusters().all_reflectors().front();
    const auto& link = inst.physical().links().front();
    for (const auto protocol :
         {ProtocolKind::kStandard, ProtocolKind::kWalton, ProtocolKind::kModified}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + core::protocol_name(protocol));
      auto rng = std::make_shared<util::Xoshiro256>(seed);
      EventEngine engine(inst, protocol, [rng](NodeId, NodeId, std::uint64_t) -> SimTime {
        return 1 + rng->below(6);
      });
      if (seed % 2 == 0) engine.set_mrai(4);
      engine.inject_all_exits(0);
      engine.schedule_graceful_down(restarting, 10);
      engine.schedule_link_cost_change(link.a, link.b, link.cost + 7, 18);
      engine.withdraw_exit(0, 24);
      engine.schedule_restart(restarting, 35);
      engine.inject_exit(0, 50);
      for (int step_index = 0; step_index < 150; ++step_index) {
        const auto result = engine.run(5);
        step(inst, engine, protocol, result);
        if (::testing::Test::HasFailure()) return;
        if (result.converged) break;
      }
    }
  }
}

TEST(EventEngine, ExportFilterMatchesPerPeerReferenceUnderChurn) {
  std::size_t checked = 0;
  std::size_t stale_steps = 0;
  std::size_t epoch_steps = 0;
  run_churn_scenarios([&](const core::Instance& inst, const EventEngine& engine,
                          ProtocolKind protocol, const EventEngine::Result&) {
    checked += expect_exports_match_reference(inst, engine, protocol);
    if (any_stale(engine)) ++stale_steps;
    if (engine.counters().igp_epoch_swaps > 0) ++epoch_steps;
  });
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(stale_steps, 0u) << "no step saw a stale holder";
  EXPECT_GT(epoch_steps, 0u) << "no link fault swapped an IGP epoch";
}

TEST(EventEngine, SkippedPeerSyncsAreNoOps) {
  // reconsider() skips sync_peer for a peer whose target already equals
  // what it advertised, outside MRAI hold-down.  Sound only if such a call
  // would have sent nothing: so every up session that is outside hold-down
  // with no flush scheduled must be in sync after every step...
  std::size_t checked = 0;
  std::size_t held = 0;
  util::Fingerprint digest;
  run_churn_scenarios([&](const core::Instance& inst, const EventEngine& engine,
                          ProtocolKind, const EventEngine::Result& result) {
    const EngineState state = engine.capture();
    for (NodeId u = 0; u < inst.node_count(); ++u) {
      const auto peers = inst.sessions().peers(u);
      const auto& snap = state.nodes[u];
      for (std::size_t i = 0; i < peers.size(); ++i) {
        if (!engine.session_up(u, peers[i])) continue;
        if (snap.flush_scheduled[i] || state.end_time < snap.mrai_ready[i]) {
          ++held;
          continue;
        }
        EXPECT_EQ(snap.advertised_out[i], snap.desired_out[i])
            << "node " << u << " -> peer " << peers[i] << " at t=" << state.end_time;
        ++checked;
      }
    }
    // ...and the run must be the one that called sync_peer for every peer:
    // the same deliveries, sends, MRAI deferrals and flips at every step.
    digest.add(result.deliveries).add(result.end_time).add(result.events_pending);
    for (const EngineCounterField& field : kEngineCounterFields) {
      digest.add(result.*field.member);
    }
  });
  EXPECT_GT(checked, 10000u);
  EXPECT_GT(held, 100u) << "no step saw an MRAI hold-down";
  // Pinned from an engine that calls sync_peer for every session peer on
  // every decision.
  constexpr std::uint64_t kEveryPeerSyncedDigest = 0xd75b61edc0e7370cULL;
  EXPECT_EQ(digest.value(), kEveryPeerSyncedDigest) << std::hex << digest.value();
}

TEST(EventEngine, CandidateIndexMatchesBruteForceUnderChurn) {
  // Each node's candidate index must be {p : own[p] || some peer holds p},
  // ascending, after every step — and again in an engine restored from a
  // checkpoint of that step, which rebuilds the index from scratch.
  std::size_t checked = 0;
  std::size_t restored = 0;
  std::size_t step_count = 0;
  const auto expect_index = [&](const EventEngine& engine, const EngineState& state) {
    const auto& inst = engine.instance();
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      std::vector<PathId> expected;
      for (PathId p = 0; p < inst.exits().size(); ++p) {
        if (state.nodes[v].own[p] || !state.nodes[v].holders[p].empty()) expected.push_back(p);
      }
      const auto index = engine.candidate_paths(v);
      EXPECT_EQ(std::vector<PathId>(index.begin(), index.end()), expected) << "node " << v;
      ++checked;
    }
  };
  run_churn_scenarios([&](const core::Instance& inst, const EventEngine& engine,
                          ProtocolKind protocol, const EventEngine::Result&) {
    const EngineState state = engine.capture();
    expect_index(engine, state);
    if (++step_count % 7 == 0) {
      EventEngine fresh(inst, protocol);
      fresh.restore(state);
      expect_index(fresh, state);
      ++restored;
    }
  });
  EXPECT_GT(checked, 10000u);
  EXPECT_GT(restored, 50u);
}

}  // namespace
}  // namespace ibgp::engine
