// Corpus-replay suite (satellite of the policy explorer PR): every checked-in
// counterexample in examples/data/corpus must parse, rebuild, and reproduce
// its recorded per-protocol convergence signature, with --jobs 1 and --jobs 8
// replay fingerprints byte-identical, and the modified protocol converging on
// every single entry.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/stable_search.hpp"
#include "engine/activation.hpp"
#include "engine/oscillation.hpp"
#include "explore/corpus.hpp"
#include "explore/spec.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif

namespace ibgp::explore {
namespace {

const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> entries = load_corpus_dir(IBGP_CORPUS_DIR);
  return entries;
}

TEST(Corpus, HasAtLeastTenEntries) { EXPECT_GE(corpus().size(), 10u); }

TEST(Corpus, CoversRequiredFamilies) {
  std::size_t med_induced = 0, hybrid = 0;
  for (const auto& entry : corpus()) {
    med_induced += entry.med_induced ? 1 : 0;
    hybrid += entry.hybrid ? 1 : 0;
  }
  EXPECT_GE(med_induced, 1u) << "corpus needs a MED-induced counterexample";
  EXPECT_GE(hybrid, 1u) << "corpus needs a confed/RR-hybrid counterexample";
}

TEST(Corpus, EntriesParseAndRoundTrip) {
  for (const auto& entry : corpus()) {
    SCOPED_TRACE(entry.name);
    // The topo body parses into a buildable instance...
    const auto inst = topo::parse_topo(entry.topo_text);
    // ...that re-serializes byte-identically,
    EXPECT_EQ(topo::write_topo(inst), entry.topo_text);
    // and the full entry survives its own write/parse cycle.
    const auto reparsed = parse_corpus_entry(write_corpus_entry(entry), entry.name);
    EXPECT_EQ(reparsed.topo_text, entry.topo_text);
    EXPECT_EQ(reparsed.max_steps, entry.max_steps);
    EXPECT_EQ(reparsed.med_induced, entry.med_induced);
    EXPECT_EQ(reparsed.hybrid, entry.hybrid);
    for (std::size_t p = 0; p < kCorpusProtocols; ++p) {
      EXPECT_EQ(reparsed.signatures[p].round_robin, entry.signatures[p].round_robin);
      EXPECT_EQ(reparsed.signatures[p].synchronous, entry.signatures[p].synchronous);
    }
  }
}

TEST(Corpus, ReplayMatchesRecordedSignatures) {
  const auto report = replay_corpus(corpus(), 1);
  ASSERT_EQ(report.rows.size(), corpus().size());
  for (const auto& row : report.rows) {
    EXPECT_TRUE(row.match) << row.name << " drifted from its recorded signature";
  }
  EXPECT_TRUE(report.all_match());
}

TEST(Corpus, ModifiedProtocolNeverOscillates) {
  const auto report = replay_corpus(corpus(), 1);
  for (const auto& row : report.rows) {
    EXPECT_FALSE(row.modified_oscillates)
        << row.name << " oscillates under the modified protocol — this would "
        << "contradict the paper's convergence theorem";
  }
  EXPECT_TRUE(report.modified_safe());
}

TEST(Corpus, ReplayFingerprintIdenticalAcrossJobs) {
  const auto serial = replay_corpus(corpus(), 1);
  const auto parallel = replay_corpus(corpus(), 8);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].name, parallel.rows[i].name);
    EXPECT_EQ(serial.rows[i].match, parallel.rows[i].match);
  }
}

TEST(Corpus, WriteParseRoundTripUnit) {
  // Unit check independent of the on-disk corpus: fabricate an entry from
  // Fig 1(a) and push it through the serializer.
  const auto inst = topo::fig1a();
  const auto entry = make_corpus_entry(inst, 1234, /*med_induced=*/false,
                                       /*hybrid=*/true);
  EXPECT_EQ(entry.max_steps, 1234u);
  EXPECT_TRUE(entry.hybrid);
  EXPECT_FALSE(entry.med_induced);
  EXPECT_TRUE(entry.signatures[0].oscillates());   // standard cycles on fig1a
  EXPECT_FALSE(entry.signatures[2].oscillates());  // modified converges

  const std::string text = write_corpus_entry(entry);
  const auto back = parse_corpus_entry(text, "unit");
  EXPECT_EQ(back.topo_text, entry.topo_text);
  EXPECT_EQ(back.max_steps, entry.max_steps);
  EXPECT_EQ(back.hybrid, entry.hybrid);
  EXPECT_EQ(back.med_induced, entry.med_induced);
  EXPECT_EQ(write_corpus_entry(back), text);  // writer is a fixed point
}

TEST(Corpus, ParserRejectsMalformedEntries) {
  EXPECT_THROW(parse_corpus_entry("nodes a b\n", "x"), std::runtime_error);
  EXPECT_THROW(parse_corpus_entry("#! ibgp-corpus-v1\nnodes a\n", "x"),
               std::runtime_error);  // missing signatures
  EXPECT_THROW(parse_corpus_entry("#! ibgp-corpus-v1\n#! tag bogus\n", "x"),
               std::runtime_error);
}

// Asserts the parse fails AND the diagnostic contains `needle` (typically a
// "source:line:" prefix), so broken checked-in entries are pinpointable.
void expect_corpus_error(std::string_view text, std::string_view needle) {
  try {
    parse_corpus_entry(text, "entry");
    FAIL() << "expected parse error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Corpus, MalformedHeadersCarrySourceAndLine) {
  // Unknown tag on line 2.
  expect_corpus_error("#! ibgp-corpus-v1\n#! tag bogus\n", "entry:2:");
  // Garbage header line keeps its line number.
  expect_corpus_error("#! ibgp-corpus-v1\n\n#! frobnicate\n", "entry:3:");
  // Bad max-steps names the field and the offending token.
  expect_corpus_error("#! ibgp-corpus-v1\n#! max-steps zero\n", "max-steps");
  expect_corpus_error("#! ibgp-corpus-v1\n#! max-steps 0\n", "entry:2:");
  // Signature field errors surface the line, not just the helper message.
  expect_corpus_error(
      "#! ibgp-corpus-v1\n#! signature standard round-robin=maybe synchronous=converged\n",
      "entry:2:");
  expect_corpus_error(
      "#! ibgp-corpus-v1\n#! signature ospf round-robin=converged synchronous=converged\n",
      "unknown protocol");
}

TEST(Corpus, TruncatedBodyIsDiagnosed) {
  // All headers present but the topo text is missing entirely (the classic
  // torn-write shape): must say "truncated", not fail later in the DSL.
  const std::string headers =
      "#! ibgp-corpus-v1\n"
      "#! signature standard round-robin=oscillates synchronous=oscillates\n"
      "#! signature walton round-robin=converged synchronous=converged\n"
      "#! signature modified round-robin=converged synchronous=converged\n";
  expect_corpus_error(headers, "truncated entry");
  // Comment-only bodies are still truncated — comments are not topology.
  expect_corpus_error(headers + "# generated by ibgp-rr\n", "truncated entry");
  // A real body line clears the check (and then fails on missing nodes or
  // parses fine — either way, not as "truncated").
  const auto entry = parse_corpus_entry(headers + "instance t\nnode A reflector 0\n", "e");
  EXPECT_NE(entry.topo_text.find("node A"), std::string::npos);
}

TEST(Corpus, MissingMagicIsDiagnosed) {
  expect_corpus_error(
      "#! signature standard round-robin=converged synchronous=converged\n"
      "instance t\nnode A reflector 0\n",
      "missing '#! ibgp-corpus-v1'");
}

// --- the exact stable-solution search as a differential oracle ----------------

/// Standard round-robin on an entry, run to its recorded step budget.
engine::RunOutcome standard_round_robin(const CorpusEntry& entry, const core::Instance& inst) {
  auto rr = engine::make_round_robin(inst.node_count());
  engine::RunLimits limits;
  limits.max_steps = entry.max_steps;
  return engine::run_protocol(inst, core::ProtocolKind::kStandard, *rr, limits);
}

TEST(Corpus, StableSearchHonoursPerAsMedOverrides) {
  // `med ignore` plus `med-override 3 per-as`: every exit goes through AS 3,
  // so MEDs ARE compared.  Pruning with the global `ignore` counted RR1's
  // own exit x5195 (MED 2) as E-BGP-dominant and lost the solution below,
  // in which RR1 picks the MED-0 path 2.
  const auto it = std::find_if(corpus().begin(), corpus().end(), [](const CorpusEntry& e) {
    return e.name == "ce-351c79a5d95ae56a";
  });
  ASSERT_NE(it, corpus().end());
  const auto inst = topo::parse_topo(it->topo_text);
  const auto outcome = standard_round_robin(*it, inst);
  ASSERT_TRUE(outcome.converged());
  const analysis::StableSolution expected{2, 2, 2, 2, 2, 2, 1, 2};
  ASSERT_EQ(outcome.final_best, expected);
  EXPECT_TRUE(analysis::is_stable_standard(inst, expected));
  const auto search = analysis::enumerate_stable_standard(inst);
  ASSERT_TRUE(search.exhaustive);
  EXPECT_NE(std::find(search.solutions.begin(), search.solutions.end(), expected),
            search.solutions.end());
}

/// Corpus entries on which standard round-robin converges (a floor).
constexpr std::size_t kConvergingEntries = 11;

TEST(Corpus, ConvergedStandardRunsAreEnumeratedSolutions) {
  // Differential oracle: wherever standard round-robin converges, its final
  // tuple is a stable solution, so an exhaustive enumeration must list it.
  std::size_t checked = 0;
  for (const auto& entry : corpus()) {
    SCOPED_TRACE(entry.name);
    const auto inst = topo::parse_topo(entry.topo_text);
    const auto outcome = standard_round_robin(entry, inst);
    if (!outcome.converged()) continue;
    const auto search = analysis::enumerate_stable_standard(inst);
    ASSERT_TRUE(search.exhaustive);
    EXPECT_NE(std::find(search.solutions.begin(), search.solutions.end(), outcome.final_best),
              search.solutions.end());
    ++checked;
  }
  // Not vacuous: the checked-in corpus has this many converging entries.
  EXPECT_GE(checked, kConvergingEntries);
}

}  // namespace
}  // namespace ibgp::explore
