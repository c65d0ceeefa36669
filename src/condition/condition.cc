#include "src/condition/condition.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace polyvalue {

// ---------------------------------------------------------------------------
// Term
// ---------------------------------------------------------------------------

Term Term::Of(std::vector<Literal> literals) {
  std::sort(literals.begin(), literals.end());
  Term term;
  for (const Literal& lit : literals) {
    POLYV_CHECK(lit.txn.valid());
    if (!term.literals_.empty() && term.literals_.back().txn == lit.txn) {
      if (term.literals_.back().positive != lit.positive) {
        term.contradiction_ = true;
        term.literals_.clear();
        return term;
      }
      continue;  // duplicate literal
    }
    term.literals_.push_back(lit);
  }
  return term;
}

Term Term::And(const Term& a, const Term& b) {
  if (a.contradiction_ || b.contradiction_) {
    Term t;
    t.contradiction_ = true;
    return t;
  }
  std::vector<Literal> merged = a.literals_;
  merged.insert(merged.end(), b.literals_.begin(), b.literals_.end());
  return Of(std::move(merged));
}

int Term::PolarityOf(TxnId txn) const {
  auto it = std::lower_bound(
      literals_.begin(), literals_.end(), Literal{txn, false},
      [](const Literal& a, const Literal& b) { return a.txn < b.txn; });
  if (it == literals_.end() || it->txn != txn) {
    return 0;
  }
  return it->positive ? 1 : -1;
}

Term Term::Assume(TxnId txn, bool committed) const {
  if (contradiction_) {
    return *this;
  }
  Term out;
  for (const Literal& lit : literals_) {
    if (lit.txn == txn) {
      if (lit.positive != committed) {
        out.contradiction_ = true;
        out.literals_.clear();
        return out;
      }
      continue;  // literal satisfied; drop it
    }
    out.literals_.push_back(lit);
  }
  return out;
}

bool Term::Subsumes(const Term& other) const {
  if (contradiction_) {
    return false;
  }
  if (other.contradiction_) {
    return true;
  }
  // this ⊆ other (as literal sets) => this OR other == this.
  return std::includes(other.literals_.begin(), other.literals_.end(),
                       literals_.begin(), literals_.end());
}

bool Term::Evaluate(const std::unordered_map<TxnId, bool>& outcomes) const {
  if (contradiction_) {
    return false;
  }
  for (const Literal& lit : literals_) {
    auto it = outcomes.find(lit.txn);
    POLYV_CHECK_MSG(it != outcomes.end(),
                    "Evaluate: missing outcome for " << lit.txn);
    if (it->second != lit.positive) {
      return false;
    }
  }
  return true;
}

bool Term::operator<(const Term& other) const {
  if (contradiction_ != other.contradiction_) {
    return other.contradiction_;  // contradictions sort last
  }
  return literals_ < other.literals_;
}

std::string Term::ToString() const {
  if (contradiction_) {
    return "⊥";
  }
  if (literals_.empty()) {
    return "true";
  }
  std::string out;
  for (size_t i = 0; i < literals_.size(); ++i) {
    if (i > 0) {
      out += "·";
    }
    if (!literals_[i].positive) {
      out += "¬";
    }
    out += polyvalue::ToString(literals_[i].txn);
  }
  return out;
}

size_t Term::Hash() const {
  size_t h = contradiction_ ? 0x9e3779b9u : 0u;
  for (const Literal& lit : literals_) {
    h = h * 1000003u + lit.txn.value() * 2u + (lit.positive ? 1u : 0u);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Condition
// ---------------------------------------------------------------------------

Condition Condition::Of(std::vector<Term> terms) {
  return Condition(std::move(terms));
}

namespace {

// Removes duplicates and subsumed terms (absorption law: A + A·B = A).
// Assumes no contradictory terms in the input.
void Absorb(std::vector<Term>* terms) {
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
  // Decide redundancy first, move survivors afterwards — moving during
  // the scan would leave hollow terms that spuriously subsume everything.
  const size_t n = terms->size();
  std::vector<bool> redundant(n, false);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      // After dedupe, strict subsumption only (equal terms impossible).
      if (i != j && !redundant[j] && (*terms)[j].Subsumes((*terms)[i])) {
        redundant[i] = true;
        break;
      }
    }
  }
  std::vector<Term> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!redundant[i]) {
      kept.push_back(std::move((*terms)[i]));
    }
  }
  *terms = std::move(kept);
}

// Consensus of two terms: if exactly one transaction appears with opposite
// polarity, returns the conjunction of the remaining literals (nullopt for
// zero or >= 2 opposite variables, or a contradictory result).
std::optional<Term> Consensus(const Term& a, const Term& b) {
  TxnId clash;
  int clashes = 0;
  for (const Literal& lit : a.literals()) {
    const int pol = b.PolarityOf(lit.txn);
    if (pol != 0 && (pol > 0) != lit.positive) {
      clash = lit.txn;
      if (++clashes > 1) {
        return std::nullopt;
      }
    }
  }
  if (clashes != 1) {
    return std::nullopt;
  }
  std::vector<Literal> merged;
  for (const Literal& lit : a.literals()) {
    if (lit.txn != clash) {
      merged.push_back(lit);
    }
  }
  for (const Literal& lit : b.literals()) {
    if (lit.txn != clash) {
      merged.push_back(lit);
    }
  }
  Term t = Term::Of(std::move(merged));
  if (t.is_contradiction()) {
    return std::nullopt;
  }
  return t;
}

// Caps the consensus closure: beyond this many terms we fall back to
// absorption-only canonicalisation (semantic queries remain exact via
// Shannon expansion; only syntactic minimality degrades).
constexpr size_t kConsensusTermLimit = 64;

}  // namespace

void Condition::Canonicalize() {
  // A lone term is canonical as built (Term keeps its literals sorted and
  // distinct), so TRUE, FALSE and every atom skip absorption and
  // consensus; only a contradiction has to go.
  if (terms_.size() <= 1) {
    if (!terms_.empty() && terms_[0].is_contradiction()) {
      terms_.clear();
    }
    return;
  }
  // Drop contradictory terms.
  std::vector<Term> kept;
  kept.reserve(terms_.size());
  for (Term& t : terms_) {
    if (!t.is_contradiction()) {
      kept.push_back(std::move(t));
    }
  }
  Absorb(&kept);

  // Iterated consensus to closure: yields the Blake canonical form (the
  // set of all prime implicants), which is unique per boolean function.
  // This is what makes syntactic checks semantically meaningful:
  // a tautology always reduces to {true} (e.g. T + ¬T), so a merged
  // polyvalue pair whose condition covers all outcomes reads as certain.
  bool changed = true;
  while (changed && kept.size() <= kConsensusTermLimit) {
    changed = false;
    const size_t n = kept.size();
    std::vector<Term> additions;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        std::optional<Term> c = Consensus(kept[i], kept[j]);
        if (!c.has_value()) {
          continue;
        }
        bool subsumed = false;
        for (const Term& t : kept) {
          if (t.Subsumes(*c)) {
            subsumed = true;
            break;
          }
        }
        if (!subsumed) {
          additions.push_back(std::move(*c));
        }
      }
    }
    if (!additions.empty()) {
      kept.insert(kept.end(), additions.begin(), additions.end());
      Absorb(&kept);
      changed = true;
    }
  }
  terms_ = std::move(kept);

  // TRUE absorbs everything (already guaranteed by Absorb since the empty
  // term subsumes all others; kept as a cheap final normalisation).
  for (const Term& t : terms_) {
    if (t.is_true()) {
      terms_ = {Term()};
      return;
    }
  }
}

Condition Condition::And(const Condition& a, const Condition& b) {
  // TRUE is the identity, and a canonical operand is its own product.
  if (a.is_true()) {
    return b;
  }
  if (b.is_true()) {
    return a;
  }
  std::vector<Term> products;
  products.reserve(a.terms_.size() * b.terms_.size());
  for (const Term& ta : a.terms_) {
    for (const Term& tb : b.terms_) {
      Term p = Term::And(ta, tb);
      if (!p.is_contradiction()) {
        products.push_back(std::move(p));
      }
    }
  }
  return Condition(std::move(products));
}

Condition Condition::Or(const Condition& a, const Condition& b) {
  std::vector<Term> merged = a.terms_;
  merged.insert(merged.end(), b.terms_.begin(), b.terms_.end());
  return Condition(std::move(merged));
}

Condition Condition::Not(const Condition& a) {
  // De Morgan: ¬(t1 + t2 + ...) = ¬t1 · ¬t2 · ...; each ¬ti is a sum of
  // negated literals. Multiply out.
  if (a.is_false()) {
    return True();
  }
  Condition acc = True();
  for (const Term& t : a.terms_) {
    std::vector<Term> negated;
    negated.reserve(t.literals().size());
    for (const Literal& lit : t.literals()) {
      negated.push_back(Term::Of({{lit.txn, !lit.positive}}));
    }
    acc = And(acc, Condition(std::move(negated)));
    if (acc.is_false()) {
      return acc;
    }
  }
  return acc;
}

Condition Condition::Assume(TxnId txn, bool committed) const {
  std::vector<Term> out;
  out.reserve(terms_.size());
  for (const Term& t : terms_) {
    Term reduced = t.Assume(txn, committed);
    if (!reduced.is_contradiction()) {
      out.push_back(std::move(reduced));
    }
  }
  return Condition(std::move(out));
}

std::vector<TxnId> Condition::Variables() const {
  std::set<TxnId> vars;
  for (const Term& t : terms_) {
    for (const Literal& lit : t.literals()) {
      vars.insert(lit.txn);
    }
  }
  return std::vector<TxnId>(vars.begin(), vars.end());
}

bool Condition::Evaluate(
    const std::unordered_map<TxnId, bool>& outcomes) const {
  for (const Term& t : terms_) {
    if (t.Evaluate(outcomes)) {
      return true;
    }
  }
  return false;
}

namespace {

// Shannon expansion: is `c` true under every assignment of its variables?
bool TautologyRecursive(const Condition& c) {
  if (c.is_true()) {
    return true;
  }
  if (c.is_false()) {
    return false;
  }
  const std::vector<TxnId> vars = c.Variables();
  POLYV_CHECK(!vars.empty());
  const TxnId pivot = vars.front();
  return TautologyRecursive(c.Assume(pivot, true)) &&
         TautologyRecursive(c.Assume(pivot, false));
}

bool SatisfiableRecursive(const Condition& c) {
  // Canonical SOP is satisfiable iff it has at least one
  // (non-contradictory) term — contradictions are dropped eagerly.
  return !c.is_false();
}

}  // namespace

bool Condition::IsTautology() const { return TautologyRecursive(*this); }

bool Condition::Implies(const Condition& other) const {
  // a ⇒ b iff a ∧ ¬b unsatisfiable.
  return !SatisfiableRecursive(And(*this, Not(other)));
}

bool Condition::EquivalentTo(const Condition& other) const {
  return Implies(other) && other.Implies(*this);
}

bool Condition::DisjointWith(const Condition& other) const {
  return !SatisfiableRecursive(And(*this, other));
}

uint64_t Condition::CountModels(const std::vector<TxnId>& variables) const {
  // Recursive count over the given variable list.
  std::function<uint64_t(const Condition&, size_t)> count =
      [&](const Condition& c, size_t i) -> uint64_t {
    if (c.is_false()) {
      return 0;
    }
    if (i == variables.size()) {
      POLYV_CHECK_MSG(c.is_true() || c.is_false(),
                      "CountModels: variables list does not cover " <<
                      c.ToString());
      return c.is_true() ? 1 : 0;
    }
    if (c.is_true()) {
      return 1ULL << (variables.size() - i);
    }
    return count(c.Assume(variables[i], true), i + 1) +
           count(c.Assume(variables[i], false), i + 1);
  };
  return count(*this, 0);
}

std::string Condition::ToString() const {
  if (is_false()) {
    return "false";
  }
  if (is_true()) {
    return "true";
  }
  std::vector<std::string> parts;
  parts.reserve(terms_.size());
  for (const Term& t : terms_) {
    parts.push_back(t.ToString());
  }
  return StrJoin(parts, " + ");
}

size_t Condition::Hash() const {
  size_t h = 14695981039346656037ULL;
  for (const Term& t : terms_) {
    h = (h ^ t.Hash()) * 1099511628211ULL;
  }
  return h;
}

bool ConditionsCompleteAndDisjoint(
    const std::vector<Condition>& conditions) {
  Condition disjunction = Condition::False();
  for (size_t i = 0; i < conditions.size(); ++i) {
    for (size_t j = i + 1; j < conditions.size(); ++j) {
      if (!conditions[i].DisjointWith(conditions[j])) {
        return false;
      }
    }
    disjunction = Condition::Or(disjunction, conditions[i]);
  }
  return disjunction.IsTautology();
}

}  // namespace polyvalue
