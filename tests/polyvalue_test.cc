// Unit tests for the PolyValue core: construction, the §3.1
// simplification rules, reduction, and queries.
#include "src/poly/polyvalue.h"

#include <gtest/gtest.h>

namespace polyvalue {
namespace {

const TxnId kT1(1);
const TxnId kT2(2);
const TxnId kT3(3);

TEST(PolyValueTest, DefaultIsCertainNull) {
  PolyValue pv;
  EXPECT_TRUE(pv.is_certain());
  EXPECT_EQ(pv.certain_value(), Value::Null());
}

TEST(PolyValueTest, CertainRoundTrip) {
  const PolyValue pv = PolyValue::Certain(Value::Int(42));
  EXPECT_TRUE(pv.is_certain());
  EXPECT_EQ(pv.certain_value(), Value::Int(42));
  EXPECT_EQ(pv.size(), 1u);
  EXPECT_TRUE(pv.Dependencies().empty());
  EXPECT_EQ(pv.ToString(), "42");
}

TEST(PolyValueTest, PaperConstruction) {
  // §3.1: {⟨v, T⟩, ⟨v', ¬T⟩} — new value if T completes, old otherwise.
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(950)),
      PolyValue::Certain(Value::Int(1000)));
  EXPECT_FALSE(pv.is_certain());
  EXPECT_EQ(pv.size(), 2u);
  EXPECT_EQ(pv.Dependencies(), std::vector<TxnId>{kT1});
  EXPECT_EQ(pv.ValueUnder({{kT1, true}}).value(), Value::Int(950));
  EXPECT_EQ(pv.ValueUnder({{kT1, false}}).value(), Value::Int(1000));
}

TEST(PolyValueTest, InstallUncertainSameValueStaysCertain) {
  // Rule 2 + Blake form: if the computed value equals the previous one
  // the conditions merge to T + ¬T = true.
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(5)),
      PolyValue::Certain(Value::Int(5)));
  EXPECT_TRUE(pv.is_certain());
  EXPECT_EQ(pv.certain_value(), Value::Int(5));
}

TEST(PolyValueTest, NestedInstallFlattens) {
  // Rule 1: installing over an already-uncertain previous value ANDs
  // conditions instead of nesting polyvalues.
  const PolyValue inner = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(10)),
      PolyValue::Certain(Value::Int(20)));
  const PolyValue outer = PolyValue::InstallUncertain(
      kT2, PolyValue::Certain(Value::Int(99)), inner);
  EXPECT_EQ(outer.size(), 3u);
  EXPECT_EQ(outer.ValueUnder({{kT1, true}, {kT2, true}}).value(),
            Value::Int(99));
  EXPECT_EQ(outer.ValueUnder({{kT1, true}, {kT2, false}}).value(),
            Value::Int(10));
  EXPECT_EQ(outer.ValueUnder({{kT1, false}, {kT2, false}}).value(),
            Value::Int(20));
  EXPECT_TRUE(outer.Validate());
}

TEST(PolyValueTest, FalseConditionPairsDropped) {
  const PolyValue pv = PolyValue::Of(
      {{Value::Int(1), Condition::Committed(kT1)},
       {Value::Int(2), Condition::Aborted(kT1)},
       {Value::Int(3), Condition::False()}});
  EXPECT_EQ(pv.size(), 2u);
}

TEST(PolyValueTest, EqualValuesMergeConditions) {
  const PolyValue pv = PolyValue::Of(
      {{Value::Int(7), Condition::Committed(kT1)},
       {Value::Int(7), Condition::Aborted(kT1)}});
  EXPECT_TRUE(pv.is_certain());
  EXPECT_EQ(pv.certain_value(), Value::Int(7));
}

TEST(PolyValueTest, ReduceCommitSelectsNewValue) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(950)),
      PolyValue::Certain(Value::Int(1000)));
  const PolyValue committed = pv.Reduce(kT1, true);
  EXPECT_TRUE(committed.is_certain());
  EXPECT_EQ(committed.certain_value(), Value::Int(950));
  const PolyValue aborted = pv.Reduce(kT1, false);
  EXPECT_TRUE(aborted.is_certain());
  EXPECT_EQ(aborted.certain_value(), Value::Int(1000));
}

TEST(PolyValueTest, ReducePartialKeepsRemainingUncertainty) {
  const PolyValue inner = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(10)),
      PolyValue::Certain(Value::Int(20)));
  const PolyValue outer = PolyValue::InstallUncertain(
      kT2, PolyValue::Certain(Value::Int(99)), inner);
  const PolyValue partial = outer.Reduce(kT2, false);
  EXPECT_FALSE(partial.is_certain());
  EXPECT_EQ(partial.Dependencies(), std::vector<TxnId>{kT1});
  EXPECT_EQ(partial, inner);
}

TEST(PolyValueTest, ReduceAllResolvesEverything) {
  const PolyValue inner = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(10)),
      PolyValue::Certain(Value::Int(20)));
  const PolyValue outer = PolyValue::InstallUncertain(
      kT2, PolyValue::Certain(Value::Int(99)), inner);
  const PolyValue resolved =
      outer.ReduceAll({{kT1, true}, {kT2, false}});
  EXPECT_TRUE(resolved.is_certain());
  EXPECT_EQ(resolved.certain_value(), Value::Int(10));
}

TEST(PolyValueTest, ReduceUnrelatedTxnIsIdentity) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(1)),
      PolyValue::Certain(Value::Int(2)));
  EXPECT_EQ(pv.Reduce(kT3, true), pv);
}

TEST(PolyValueTest, MinMaxPossible) {
  // §5 reservations: grant if even the largest possible count fits.
  const PolyValue seats = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(97)),
      PolyValue::Certain(Value::Int(96)));
  EXPECT_EQ(seats.MaxPossible().value(), Value::Int(97));
  EXPECT_EQ(seats.MinPossible().value(), Value::Int(96));
}

TEST(PolyValueTest, MinMaxErrorsOnNonNumeric) {
  const PolyValue pv = PolyValue::Of(
      {{Value::Str("a"), Condition::Committed(kT1)},
       {Value::Int(1), Condition::Aborted(kT1)}});
  EXPECT_FALSE(pv.MaxPossible().ok());
}

TEST(PolyValueTest, ForAllAndExists) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(950)),
      PolyValue::Certain(Value::Int(1000)));
  EXPECT_TRUE(pv.ForAllValues([](const Value& v) {
    return v.int_value() >= 900;
  }));
  EXPECT_FALSE(pv.ForAllValues([](const Value& v) {
    return v.int_value() >= 1000;
  }));
  EXPECT_TRUE(pv.ExistsValue([](const Value& v) {
    return v.int_value() >= 1000;
  }));
}

TEST(PolyValueTest, ExpectedValueWithProbabilities) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(100)),
      PolyValue::Certain(Value::Int(0)));
  EXPECT_DOUBLE_EQ(pv.ExpectedValue({{kT1, 0.9}}).value(), 90.0);
  EXPECT_DOUBLE_EQ(pv.ExpectedValue({}, 0.5).value(), 50.0);
}

TEST(PolyValueTest, ValidateDetectsIncompleteness) {
  const PolyValue bogus = PolyValue::Of(
      {{Value::Int(1), Condition::Committed(kT1)},
       {Value::Int(2),
        Condition::And(Condition::Aborted(kT1), Condition::Committed(kT2))}});
  EXPECT_FALSE(bogus.Validate());
  const PolyValue good = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(1)),
      PolyValue::Certain(Value::Int(2)));
  EXPECT_TRUE(good.Validate());
}

TEST(PolyValueTest, ValueUnderRequiresCompleteAssignment) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(1)),
      PolyValue::Certain(Value::Int(2)));
  EXPECT_FALSE(pv.ValueUnder({}).ok());
}

TEST(PolyValueTest, ToStringUncertainListsAlternatives) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(1)),
      PolyValue::Certain(Value::Int(2)));
  const std::string s = pv.ToString();
  EXPECT_NE(s.find("1 if T1"), std::string::npos);
  EXPECT_NE(s.find("2 if ¬T1"), std::string::npos);
}

TEST(PolyValueTest, PossibleValuesDistinct) {
  const PolyValue inner = PolyValue::InstallUncertain(
      kT1, PolyValue::Certain(Value::Int(10)),
      PolyValue::Certain(Value::Int(20)));
  const PolyValue outer = PolyValue::InstallUncertain(
      kT2, PolyValue::Certain(Value::Int(10)), inner);
  // 10 appears under two conditions but merges into one pair.
  EXPECT_EQ(outer.PossibleValues().size(), 2u);
}

// A one-pair polyvalue skips the merge map; adding a dead pair forces
// the merging path, which must agree — including on a lone dead pair,
// which falls back to certain null.
TEST(PolyValueTest, OnePairFastPathMatchesMergePath) {
  const Value v = Value::Int(7);
  const Condition dead = Condition::False();
  for (const Condition& c :
       {Condition::True(), Condition::Committed(TxnId(1)),
        Condition::Or(Condition::Committed(TxnId(1)),
                      Condition::Aborted(TxnId(2))),
        dead}) {
    SCOPED_TRACE(c.ToString());
    EXPECT_EQ(PolyValue::Of({{v, c}}), PolyValue::Of({{v, c}, {v, dead}}));
    EXPECT_EQ(PolyValue::Of({{v, c}}),
              PolyValue::Of({{v, c}, {Value::Int(8), dead}}));
  }
  EXPECT_EQ(PolyValue::Of({{v, dead}}), PolyValue());
  EXPECT_EQ(PolyValue::Certain(v),
            PolyValue::Of({{v, Condition::True()}, {v, dead}}));
  EXPECT_EQ(PolyValue(), PolyValue::Certain(Value::Null()));
  EXPECT_TRUE(PolyValue::Certain(v).is_certain());
}

}  // namespace
}  // namespace polyvalue
