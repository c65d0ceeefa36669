// The polyvalue: the paper's central data structure (§3).
//
// A polyvalue is a set of pairs ⟨v, c⟩ where v is a simple Value and c a
// Condition over transaction identifiers; exactly one condition is true
// under any assignment of outcomes, and the paired value is then the
// item's correct value. A certain item is the degenerate polyvalue
// {⟨v, true⟩}.
//
// The §3.1 simplification rules are maintained as invariants:
//   1. no nesting — pairs always hold simple Values (nesting is resolved
//      at construction: combining a computed polyvalue with a previous
//      polyvalue ANDs the conditions, see InstallUncertain);
//   2. equal values merge — at most one pair per distinct Value, its
//      condition the OR of the merged conditions;
//   3. sum-of-products + dead-pair elimination — conditions are canonical
//      SOP (see Condition) and pairs with false conditions are dropped.
//
// The class does not *enforce* completeness/disjointness on every
// construction (that would cost an exact SAT check per update); the
// engine's constructors guarantee it by the paper's evolution rules, and
// Validate() performs the exact check for tests and debug paths.
#ifndef SRC_POLY_POLYVALUE_H_
#define SRC_POLY_POLYVALUE_H_

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/condition/condition.h"
#include "src/value/value.h"

namespace polyvalue {

// One alternative: value v is current when condition c holds.
struct PolyPair {
  Value value;
  Condition condition;

  friend bool operator==(const PolyPair& a, const PolyPair& b) {
    return a.value == b.value && a.condition == b.condition;
  }
};

class PolyValue {
 public:
  // Certain null.
  PolyValue() : PolyValue(Certain(Value::Null())) {}

  // {⟨v, true⟩}.
  static PolyValue Certain(Value v);

  // Builds from raw pairs, applying simplification rules 2 and 3 (merge
  // equal values, drop false conditions). The caller is responsible for
  // the completeness/disjointness of the given conditions.
  static PolyValue Of(std::vector<PolyPair> pairs);

  // The §3.1 wait-phase construction: transaction `txn` computed
  // `computed` for this item (itself possibly a polyvalue when txn was a
  // polytransaction) but txn's outcome is unknown. The result holds the
  // computed alternatives under "txn committed" and the previous
  // alternatives under "txn aborted":
  //     {⟨v, c∧T⟩ : ⟨v,c⟩ ∈ computed} ∪ {⟨v', c'∧¬T⟩ : ⟨v',c'⟩ ∈ previous}
  // This is exactly {⟨v,T⟩, ⟨v',¬T⟩} generalised per simplification rule 1.
  static PolyValue InstallUncertain(TxnId txn, const PolyValue& computed,
                                    const PolyValue& previous);

  const std::vector<PolyPair>& pairs() const { return pairs_; }
  size_t size() const { return pairs_.size(); }

  // True when only one alternative remains and its condition is TRUE.
  bool is_certain() const {
    return pairs_.size() == 1 && pairs_[0].condition.is_true();
  }

  // The value when certain; CHECK-fails otherwise.
  const Value& certain_value() const;

  // The value if certain, nullopt otherwise.
  std::optional<Value> TryCertain() const;

  // §3.3 reduction: substitutes the learned outcome of `txn` into every
  // condition, drops dead pairs, re-merges. When the outcomes of all
  // transactions a polyvalue depends on are known this collapses it to a
  // certain value.
  PolyValue Reduce(TxnId txn, bool committed) const;

  // Applies several outcomes at once.
  PolyValue ReduceAll(const std::unordered_map<TxnId, bool>& outcomes) const;

  // Transactions this polyvalue depends on (sorted ascending). Empty iff
  // certain.
  std::vector<TxnId> Dependencies() const;

  // All distinct possible values (one per pair, by invariant 2).
  std::vector<Value> PossibleValues() const;

  // Extremes over numeric alternatives — the reservation example of §5
  // grants a booking when Max() of "seats taken" is below capacity.
  // Errors if any alternative is non-numeric.
  Result<Value> MinPossible() const;
  Result<Value> MaxPossible() const;

  // True if `predicate` holds for every alternative: the "output does not
  // depend on the exact value" test of §3.4 — a uniform predicate yields a
  // certain external output even from an uncertain item.
  bool ForAllValues(const std::function<bool(const Value&)>& predicate) const;
  bool ExistsValue(const std::function<bool(const Value&)>& predicate) const;

  // Expected value under independent per-transaction commit probabilities
  // (missing entries default to `default_commit_probability`). Extension
  // beyond the paper, useful for the process-control example.
  Result<double> ExpectedValue(
      const std::unordered_map<TxnId, double>& commit_probability,
      double default_commit_probability = 0.5) const;

  // Exact check of the paper's §3 invariant: conditions complete and
  // pairwise disjoint. O(2^vars); meant for tests/assertions.
  bool Validate() const;

  // The value selected by a complete outcome assignment.
  Result<Value> ValueUnder(
      const std::unordered_map<TxnId, bool>& outcomes) const;

  bool operator==(const PolyValue& other) const {
    return pairs_ == other.pairs_;
  }
  bool operator!=(const PolyValue& other) const { return !(*this == other); }

  // "{10 if T1; 25 if ¬T1}" or just "10" when certain.
  std::string ToString() const;

 private:
  explicit PolyValue(std::vector<PolyPair> pairs) : pairs_(std::move(pairs)) {
    Canonicalize();
  }

  // Simplification rules 2 + 3; sorts pairs by value for determinism.
  void Canonicalize();

  std::vector<PolyPair> pairs_;
};

inline std::ostream& operator<<(std::ostream& os, const PolyValue& pv) {
  return os << pv.ToString();
}

}  // namespace polyvalue

#endif  // SRC_POLY_POLYVALUE_H_
