// Property tests: the SOP algebra against the BDD oracle on randomly
// generated formulas. Every connective, Assume, and the semantic queries
// must agree with the exact BDD semantics; the Blake canonical form must
// make syntactic equality coincide with semantic equivalence.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/condition/bdd.h"
#include "src/condition/condition.h"

namespace polyvalue {
namespace {

constexpr int kVariableCount = 4;

// Generates a random condition over kVariableCount transactions with the
// given recursion depth.
Condition RandomCondition(Rng* rng, int depth) {
  if (depth == 0) {
    const uint64_t pick = rng->NextBelow(kVariableCount + 2);
    if (pick == 0) {
      return Condition::True();
    }
    if (pick == 1) {
      return Condition::False();
    }
    const TxnId txn(pick - 1);
    return rng->NextBool(0.5) ? Condition::Committed(txn)
                              : Condition::Aborted(txn);
  }
  const uint64_t op = rng->NextBelow(3);
  if (op == 0) {
    return Condition::And(RandomCondition(rng, depth - 1),
                          RandomCondition(rng, depth - 1));
  }
  if (op == 1) {
    return Condition::Or(RandomCondition(rng, depth - 1),
                         RandomCondition(rng, depth - 1));
  }
  return Condition::Not(RandomCondition(rng, depth - 1));
}

// Exhaustive agreement between a Condition and a BDD over all 2^n
// assignments.
void ExpectSameFunction(const Condition& c, BddManager* bdd, BddRef f) {
  for (uint64_t bits = 0; bits < (1u << kVariableCount); ++bits) {
    std::unordered_map<TxnId, bool> outcomes;
    BddRef restricted = f;
    for (int v = 0; v < kVariableCount; ++v) {
      const bool value = (bits >> v) & 1;
      outcomes.emplace(TxnId(v + 1), value);
      restricted = bdd->Restrict(restricted, TxnId(v + 1), value);
    }
    ASSERT_TRUE(restricted == BddManager::kTrue ||
                restricted == BddManager::kFalse);
    EXPECT_EQ(c.Evaluate(outcomes), restricted == BddManager::kTrue)
        << c.ToString() << " under bits=" << bits;
  }
}

class ConditionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConditionPropertyTest, ConnectivesMatchBddSemantics) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    BddManager bdd;
    const Condition a = RandomCondition(&rng, 3);
    const Condition b = RandomCondition(&rng, 3);
    const BddRef fa = bdd.FromCondition(a);
    const BddRef fb = bdd.FromCondition(b);
    ExpectSameFunction(Condition::And(a, b), &bdd, bdd.And(fa, fb));
    ExpectSameFunction(Condition::Or(a, b), &bdd, bdd.Or(fa, fb));
    ExpectSameFunction(Condition::Not(a), &bdd, bdd.Not(fa));
  }
}

TEST_P(ConditionPropertyTest, AssumeMatchesRestrict) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 40; ++trial) {
    BddManager bdd;
    const Condition c = RandomCondition(&rng, 3);
    const TxnId txn(1 + rng.NextBelow(kVariableCount));
    const bool value = rng.NextBool(0.5);
    const Condition assumed = c.Assume(txn, value);
    BddRef restricted = bdd.Restrict(bdd.FromCondition(c), txn, value);
    // The assumed condition must not mention txn any more.
    for (TxnId var : assumed.Variables()) {
      EXPECT_NE(var, txn);
    }
    ExpectSameFunction(assumed, &bdd, restricted);
  }
}

TEST_P(ConditionPropertyTest, SemanticQueriesMatchBdd) {
  Rng rng(GetParam() ^ 0x123456);
  for (int trial = 0; trial < 40; ++trial) {
    BddManager bdd;
    const Condition a = RandomCondition(&rng, 3);
    const Condition b = RandomCondition(&rng, 3);
    const BddRef fa = bdd.FromCondition(a);
    const BddRef fb = bdd.FromCondition(b);
    EXPECT_EQ(a.IsTautology(), fa == BddManager::kTrue) << a.ToString();
    EXPECT_EQ(a.Implies(b),
              bdd.Or(bdd.Not(fa), fb) == BddManager::kTrue);
    EXPECT_EQ(a.EquivalentTo(b), fa == fb);
    EXPECT_EQ(a.DisjointWith(b), bdd.And(fa, fb) == BddManager::kFalse);
  }
}

TEST_P(ConditionPropertyTest, BlakeFormIsCanonical) {
  // Equivalent formulas must canonicalise to syntactically equal
  // conditions — this is what lets polyvalue pair-merging recognise
  // certainty.
  Rng rng(GetParam() ^ 0x777);
  for (int trial = 0; trial < 60; ++trial) {
    BddManager bdd;
    const Condition a = RandomCondition(&rng, 3);
    const Condition b = RandomCondition(&rng, 3);
    const bool equivalent =
        bdd.FromCondition(a) == bdd.FromCondition(b);
    EXPECT_EQ(a == b, equivalent)
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST_P(ConditionPropertyTest, CountModelsMatchesBdd) {
  Rng rng(GetParam() ^ 0xbeef);
  std::vector<TxnId> vars;
  for (int v = 1; v <= kVariableCount; ++v) {
    vars.push_back(TxnId(v));
  }
  for (int trial = 0; trial < 40; ++trial) {
    BddManager bdd;
    const Condition c = RandomCondition(&rng, 3);
    EXPECT_EQ(c.CountModels(vars),
              bdd.CountModels(bdd.FromCondition(c), vars));
  }
}

TEST_P(ConditionPropertyTest, BddRoundTripPreservesFunction) {
  Rng rng(GetParam() ^ 0x5555);
  for (int trial = 0; trial < 40; ++trial) {
    BddManager bdd;
    const Condition c = RandomCondition(&rng, 3);
    const BddRef f = bdd.FromCondition(c);
    EXPECT_EQ(bdd.FromCondition(bdd.ToCondition(f)), f);
  }
}

// The general canonicaliser on `terms`: listing every term twice keeps
// the function but forces the multi-term path (dedupe, absorption,
// consensus) that a condition with at most one term skips.
Condition ViaGeneralPath(const std::vector<Term>& terms) {
  std::vector<Term> doubled = terms;
  doubled.insert(doubled.end(), terms.begin(), terms.end());
  return Condition::Of(std::move(doubled));
}

// The trivial-case fast paths — a condition of at most one term, And
// with a TRUE operand — give exactly what the general canonicaliser
// gives, and the BDD oracle's function.
TEST_P(ConditionPropertyTest, TrivialFastPathsMatchGeneralPathAndBdd) {
  Rng rng(GetParam());
  const Condition truth = Condition::True();
  EXPECT_EQ(truth, ViaGeneralPath(truth.terms()));
  EXPECT_TRUE(truth.is_true());
  const Term contradiction =
      Term::And(Term::Committed(TxnId(1)), Term::Aborted(TxnId(1)));
  EXPECT_TRUE(Condition::Of({contradiction}).is_false());
  EXPECT_EQ(Condition::Of({contradiction}),
            ViaGeneralPath({contradiction}));
  for (int trial = 0; trial < 100; ++trial) {
    BddManager bdd;
    const Condition c = RandomCondition(&rng, 3);
    const BddRef fc = bdd.FromCondition(c);

    // And(TRUE, c) and And(c, TRUE) return c itself; the product the
    // general path would form is TRUE·t for every term t of c.
    std::vector<Term> products;
    for (const Term& t : c.terms()) {
      products.push_back(Term::And(Term(), t));
    }
    const Condition general = ViaGeneralPath(products);
    EXPECT_EQ(Condition::And(truth, c), general) << c.ToString();
    EXPECT_EQ(Condition::And(c, truth), general) << c.ToString();
    ExpectSameFunction(Condition::And(truth, c), &bdd, fc);

    // Every single term is its own canonical condition: the conjunction
    // of its literals.
    for (const Term& t : c.terms()) {
      const Condition single = Condition::Of({t});
      EXPECT_EQ(single, ViaGeneralPath({t})) << t.ToString();
      BddRef conjunction = BddManager::kTrue;
      for (const Literal& lit : t.literals()) {
        const BddRef var = bdd.Var(lit.txn);
        conjunction = bdd.And(conjunction, lit.positive ? var : bdd.Not(var));
      }
      ExpectSameFunction(single, &bdd, conjunction);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace polyvalue
