#include "src/txn/polytxn.h"

#include <set>
#include <string>
#include <vector>

#include "src/common/strings.h"

namespace polyvalue {

namespace {

// One alternative database state under construction.
struct Alternative {
  Condition condition = Condition::True();
  TxnReads reads;
};

// The ABORTED status for logic that aborted under `condition`.
Status LogicAborted(const TxnEffect& effect, const Condition& condition) {
  return AbortedError(effect.abort_reason.empty()
                          ? "logic aborted under alternative " +
                                condition.ToString()
                          : effect.abort_reason);
}

}  // namespace

Result<PolyTxnResult> ExecutePolyTransaction(
    const std::map<ItemKey, PolyValue>& inputs,
    const std::map<ItemKey, PolyValue>& previous, const TxnLogic& logic,
    const PolyTxnOptions& options) {
  // Partition: start from the single alternative T_true and split on each
  // polyvalued input (§3.2: reading {⟨v_i, c_i⟩} splits T_c into {T_c∧ci}).
  PolyTxnResult result;
  // Every computed item value enters the result here, on both paths.
  const auto add_write = [&result](const ItemKey& key, PolyValue value) {
    result.writes.emplace(key, std::move(value));
  };
  std::vector<Alternative> alternatives(1);
  for (const auto& [key, poly] : inputs) {
    if (poly.is_certain()) {
      // Certain input: no partitioning, every alternative reads it as-is.
      for (Alternative& alt : alternatives) {
        alt.reads.Insert(key, poly.certain_value());
      }
      continue;
    }
    std::vector<Alternative> next;
    next.reserve(alternatives.size() * poly.pairs().size());
    for (const Alternative& alt : alternatives) {
      for (const PolyPair& pair : poly.pairs()) {
        Condition joint = Condition::And(alt.condition, pair.condition);
        if (joint.is_false()) {
          ++result.alternatives_pruned;
          continue;  // logically impossible combination: never execute
        }
        Alternative split = alt;
        split.condition = std::move(joint);
        split.reads.Insert(key, pair.value);
        next.push_back(std::move(split));
      }
    }
    alternatives = std::move(next);
    if (alternatives.size() > options.max_alternatives) {
      return FailedPreconditionError(
          StrCat("polytransaction fan-out exceeds cap of ",
                 options.max_alternatives));
    }
    if (alternatives.empty()) {
      return InternalError(
          "all alternatives pruned — input polyvalues are inconsistent");
    }
  }

  if (alternatives.size() == 1 && alternatives[0].condition.is_true()) {
    // Every input is certain: a plain transaction. It runs once, with no
    // access tracking or memo entry, and all it computes is certain.
    TxnEffect effect = logic(alternatives[0].reads);
    result.alternatives_executed = 1;
    if (effect.abort) {
      return LogicAborted(effect, alternatives[0].condition);
    }
    for (auto& [key, value] : effect.writes) {
      add_write(key, PolyValue::Certain(std::move(value)));
    }
    result.output = PolyValue::Certain(effect.output.value_or(Value::Null()));
    return result;
  }

  // Execute each alternative transaction — memoised per §3.2's second
  // optimisation: "recognize cases where the actual value of an item ...
  // does not affect the computation". Accesses are tracked; alternatives
  // whose values agree on every item any execution has consulted share
  // one execution. Sound because logic is pure and deterministic: equal
  // visible values at every read imply an identical run.
  struct Executed {
    Condition condition;
    TxnEffect effect;
  };
  std::vector<Executed> executed;
  executed.reserve(alternatives.size());
  // Each cache entry records the exact items one execution consulted and
  // the values it saw; an alternative agreeing on all of them would run
  // identically (logic is pure and deterministic), so the effect is
  // reused. Entries are few — one per *distinct* execution.
  struct CacheEntry {
    std::vector<std::pair<ItemKey, Value>> accessed_values;
    TxnEffect effect;
  };
  std::vector<CacheEntry> effect_cache;
  for (Alternative& alt : alternatives) {
    TxnEffect effect;
    const CacheEntry* hit = nullptr;
    for (const CacheEntry& entry : effect_cache) {
      bool matches = true;
      for (const auto& [item, seen] : entry.accessed_values) {
        if (!(alt.reads.RawAt(item) == seen)) {
          matches = false;
          break;
        }
      }
      if (matches) {
        hit = &entry;
        break;
      }
    }
    if (hit != nullptr) {
      effect = hit->effect;
      ++result.alternatives_memoized;
    } else {
      std::set<ItemKey> accessed;
      alt.reads.set_access_tracker(&accessed);
      effect = logic(alt.reads);
      alt.reads.set_access_tracker(nullptr);
      ++result.alternatives_executed;
      CacheEntry entry;
      entry.accessed_values.reserve(accessed.size());
      for (const ItemKey& item : accessed) {
        entry.accessed_values.emplace_back(item, alt.reads.RawAt(item));
      }
      entry.effect = effect;
      effect_cache.push_back(std::move(entry));
    }
    if (effect.abort) {
      // Conservative rule: an abort by any reachable alternative aborts
      // the transaction (the commit decision cannot be conditional).
      return LogicAborted(effect, alt.condition);
    }
    executed.push_back({std::move(alt.condition), std::move(effect)});
  }

  // Reassemble outputs. Collect the union of written keys first.
  std::map<ItemKey, bool> written_keys;
  for (const Executed& e : executed) {
    for (const auto& [key, value] : e.effect.writes) {
      written_keys[key] = true;
    }
  }

  for (const auto& [key, unused] : written_keys) {
    std::vector<PolyPair> pairs;
    for (const Executed& e : executed) {
      auto it = e.effect.writes.find(key);
      if (it != e.effect.writes.end()) {
        pairs.push_back({it->second, e.condition});
      } else {
        // §3.2: "or is the previous value of the item if transaction T_c
        // does not compute a new value for the item".
        auto prev_it = previous.find(key);
        const PolyValue& prev = prev_it != previous.end()
                                    ? prev_it->second
                                    : PolyValue::Certain(Value::Null());
        for (const PolyPair& p : prev.pairs()) {
          Condition joint = Condition::And(e.condition, p.condition);
          if (!joint.is_false()) {
            pairs.push_back({p.value, std::move(joint)});
          }
        }
      }
    }
    add_write(key, PolyValue::Of(std::move(pairs)));
  }

  // Assemble the client-visible output.
  std::vector<PolyPair> output_pairs;
  output_pairs.reserve(executed.size());
  for (const Executed& e : executed) {
    output_pairs.push_back(
        {e.effect.output.value_or(Value::Null()), e.condition});
  }
  result.output = PolyValue::Of(std::move(output_pairs));
  return result;
}

}  // namespace polyvalue
