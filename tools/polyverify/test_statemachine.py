#!/usr/bin/env python3
"""Unit tests for the protocol state-machine tier (ctest
`statemachine_test`).

Two layers: a synthetic micro-tree exercising extraction and each rule
(SM01/LV01/DC01) in isolation, and the real tree asserting the
committed sm_{txn,paxos}.json specs reproduce byte-identically — the
property the CI drift gate depends on.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite  # noqa: E402
import polyverify  # noqa: E402
import statemachine  # noqa: E402

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

FIXTURE = {
    "src/txn/messages.cc": """
Message MakePing(TxnId txn) {
  Message m;
  m.type = MsgType::kPing;
  return m;
}
Message MakeProbe(TxnId txn) {
  Message m;
  m.type = MsgType::kProbe;
  return m;
}
""",
    "src/txn/engine.cc": """
void TxnEngine::OnMessage(SiteId from, const Message& msg, Outbox* out) {
  switch (msg.type) {
    case MsgType::kPing:
      HandlePing(from, msg, out);
      break;
    case MsgType::kProbe:
      break;
  }
}
void TxnEngine::HandlePing(SiteId from, const Message& msg, Outbox* out) {
  participations_.emplace(msg.txn, Participation{});
  out->sends.emplace_back(from, MakeProbe(msg.txn));
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::HandleDouble(SiteId from, const Message& msg, Outbox* out) {
  const bool known = decided_.count(msg.txn) > 0;
  if (known) {
    FinishParticipation(msg.txn);
  }
  FinishParticipation(msg.txn);
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::HandleEither(SiteId from, const Message& msg, Outbox* out) {
  if (msg.flag) {
    FinishParticipation(msg.txn);
    return;
  }
  FinishParticipation(msg.txn);
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::FinishParticipation(TxnId txn) {
  participations_.erase(txn);
}
""",
}


def write_fixture(tmp):
    for relpath, content in FIXTURE.items():
        path = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)


def load_fixture(tmp):
    sources = []
    for relpath in sorted(FIXTURE):
        path = os.path.join(tmp, relpath)
        with open(path) as f:
            sources.append(cpplite.SourceFile(path=path, text=f.read()))
    return sources


class FixtureTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmpdir = tempfile.TemporaryDirectory()
        cls.tmp = cls.tmpdir.name
        write_fixture(cls.tmp)
        cls.sources = load_fixture(cls.tmp)
        cls.machines = statemachine.build_machines(cls.tmp, cls.sources)

    @classmethod
    def tearDownClass(cls):
        cls.tmpdir.cleanup()

    def machine(self):
        self.assertEqual(len(self.machines), 1)
        return self.machines[0]

    def test_make_map(self):
        m = self.machine()
        self.assertEqual(m.make_map["MakePing"], "kPing")
        self.assertEqual(m.make_map["MakeProbe"], "kProbe")

    def test_dispatch_arms(self):
        m = self.machine()
        self.assertEqual(m.dispatch["kPing"], "HandlePing")
        # `case kProbe: break;` is a discard arm, not a handler.
        self.assertIsNone(m.dispatch["kProbe"])

    def test_spec_edges(self):
        spec = statemachine.to_spec(self.machine())
        by_on = {e["on"]: e for e in spec["edges"]}
        self.assertIn("msg:kPing", by_on)
        self.assertEqual(by_on["msg:kPing"]["sends"], ["kProbe"])
        self.assertIn("participations_.emplace",
                      by_on["msg:kPing"]["writes"])
        self.assertEqual(spec["ignored_kinds"], ["kProbe"])

    def test_sm01_flags_unrouted_kind_and_missing_spec(self):
        findings = statemachine.check_sm01(self.tmp, self.sources)
        rules = [(f[0], f[3]) for f in findings]
        self.assertTrue(any("kProbe" in msg for _, msg in rules),
                        findings)
        self.assertTrue(any("no committed spec" in msg
                            for _, msg in rules), findings)

    def test_lv01_flags_timerless_wait(self):
        findings = statemachine.check_lv01(self.tmp, self.sources)
        self.assertTrue(any("HandlePing" in f[3] and
                            "waiting entry" in f[3]
                            for f in findings), findings)

    def test_dc01_flags_double_terminal_path(self):
        findings = statemachine.check_dc01(self.tmp, self.sources)
        self.assertTrue(any("HandleDouble" in f[3] for f in findings),
                        findings)
        # Return-separated branches are distinct paths: clean.
        self.assertFalse(any("HandleEither" in f[3] for f in findings),
                         findings)


# A leg that inherits a protocol step from its registered engine base
# (ENGINE_MACHINES "bases"): OnMessage routes kPing to the base's
# HandleInherited, which ends in a pure-virtual hook the leg overrides.
BASE_FIXTURE = {
    "src/txn/messages.cc": FIXTURE["src/txn/messages.cc"],
    "src/txn/engine.cc": """
void TxnEngine::OnMessage(SiteId from, const Message& msg, Outbox* out) {
  switch (msg.type) {
    case MsgType::kPing:
      HandleInherited(from, msg, out);
      break;
    case MsgType::kProbe:
      break;
  }
}
void TxnEngine::Hook(TxnId txn, Outbox* out) {
  out->sends.emplace_back(self_, MakeProbe(txn));
  ScheduleGuarded(config_.wait_timeout, [this, txn] { Expire(txn); });
}
void TxnEngine::Expire(TxnId txn) {
  participations_.erase(txn);
}
""",
    "src/txn/compute_phase.cc": """
void CommitProtocol::HandleInherited(SiteId from, const Message& msg,
                                     Outbox* out) {
  participations_.emplace(msg.txn, Participation{});
  Trace(TraceEventType::kSubmit, msg.txn);
  Hook(msg.txn, out);
}
""",
}


class BaseFixtureTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmpdir = tempfile.TemporaryDirectory()
        cls.tmp = cls.tmpdir.name
        cls.sources = []
        for relpath in sorted(BASE_FIXTURE):
            path = os.path.join(cls.tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(BASE_FIXTURE[relpath])
            cls.sources.append(
                cpplite.SourceFile(path=path, text=BASE_FIXTURE[relpath]))

    @classmethod
    def tearDownClass(cls):
        cls.tmpdir.cleanup()

    def machine(self, machines):
        self.assertEqual(len(machines), 1)
        return machines[0]

    def test_inherited_handler_runs_the_legs_hook(self):
        m = self.machine(statemachine._build_machines_uncached(
            self.tmp, self.sources))
        self.assertEqual(m.dispatch["kPing"], "HandleInherited")
        self.assertIn("HandleInherited", m.methods)
        edge = {e["on"]: e for e in statemachine.to_spec(m)["edges"]}
        ping = edge["msg:kPing"]
        # The base's hook call resolved to TxnEngine::Hook: its send and
        # its timer are effects of the inherited handler's edge.
        self.assertEqual(ping["sends"], ["kProbe"])
        self.assertEqual(ping["arms"], ["Expire"])
        self.assertIn("participations_.emplace", ping["writes"])
        self.assertIn("timer:Expire", edge)
        self.assertEqual(statemachine.check_lv01(self.tmp, self.sources),
                         [])

    def test_without_the_base_the_handler_drops_out(self):
        confs = statemachine.ENGINE_MACHINES
        try:
            statemachine.ENGINE_MACHINES = tuple(
                {k: v for k, v in conf.items() if k != "bases"}
                for conf in confs)
            m = self.machine(statemachine._build_machines_uncached(
                self.tmp, self.sources))
        finally:
            statemachine.ENGINE_MACHINES = confs
        self.assertNotIn("HandleInherited", m.methods)
        spec = statemachine.to_spec(m)
        self.assertNotIn("msg:kPing", {e["on"] for e in spec["edges"]})


# One answer path whose trace kind is a ternary keyed on its disposition
# parameter, reached from three edges with different arguments.
KEYED_FIXTURE = {
    "src/txn/messages.cc": FIXTURE["src/txn/messages.cc"],
    "src/txn/engine.cc": """
void TxnEngine::OnMessage(SiteId from, const Message& msg, Outbox* out) {
  switch (msg.type) {
    case MsgType::kPing:
      HandlePing(from, msg, out);
      break;
    case MsgType::kProbe:
      HandleProbe(from, msg, out);
      break;
  }
}
void TxnEngine::HandlePing(SiteId from, const Message& msg, Outbox* out) {
  Answer(msg.txn, TxnDisposition::kReadOnly, out);
}
void TxnEngine::HandleProbe(SiteId from, const Message& msg, Outbox* out) {
  Answer(msg.txn,
         msg.flag ? TxnDisposition::kCommitted : TxnDisposition::kAborted,
         out);
  ScheduleGuarded(config_.wait_timeout, [this, msg] { Expire(msg); });
}
void TxnEngine::Expire(const Message& msg) {
  Forward(msg.txn, msg.disposition);
}
void TxnEngine::Forward(TxnId txn, TxnDisposition d) {
  Answer(txn, txn.valid() ? d : TxnDisposition::kAborted, nullptr);
}
void TxnEngine::Answer(TxnId txn, TxnDisposition disposition,
                       Outbox* out) {
  Trace(disposition == TxnDisposition::kCommitted
            ? TraceEventType::kDecisionCommit
            : disposition == TxnDisposition::kAborted
                  ? TraceEventType::kDecisionAbort
                  : TraceEventType::kReadOnlyDone,
        txn);
}
""",
}


class KeyedTraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmpdir = tempfile.TemporaryDirectory()
        tmp = cls.tmpdir.name
        sources = []
        for relpath in sorted(KEYED_FIXTURE):
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(KEYED_FIXTURE[relpath])
            sources.append(
                cpplite.SourceFile(path=path, text=KEYED_FIXTURE[relpath]))
        machines = statemachine._build_machines_uncached(tmp, sources)
        cls.edges = {e["on"]: e for e in
                     statemachine.to_spec(machines[0])["edges"]}

    @classmethod
    def tearDownClass(cls):
        cls.tmpdir.cleanup()

    def test_literal_argument_selects_one_kind(self):
        self.assertEqual(self.edges["msg:kPing"]["traces"],
                         ["kReadOnlyDone"])

    def test_ternary_argument_selects_its_arms(self):
        self.assertEqual(self.edges["msg:kProbe"]["traces"],
                         ["kDecisionAbort", "kDecisionCommit"])

    def test_unknown_argument_keeps_every_kind(self):
        # Forward may pass its own parameter through: not resolvable.
        self.assertEqual(
            self.edges["timer:Expire"]["traces"],
            ["kDecisionAbort", "kDecisionCommit", "kReadOnlyDone"])


class RealTreeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sources, _ = polyverify.load_tree(REPO, None)
        cls.machines = statemachine.build_machines(REPO, cls.sources)

    def by_tag(self, tag):
        for m in self.machines:
            if m.conf["tag"] == tag:
                return m
        self.fail(f"no {tag} machine extracted")

    def test_both_engines_extracted(self):
        self.assertEqual(
            sorted(m.conf["tag"] for m in self.machines),
            ["paxos", "txn"])

    def test_txn_dispatch_covers_2pc_kinds(self):
        m = self.by_tag("txn")
        for kind in ("kPrepare", "kPrepareReply", "kReady", "kComplete",
                     "kAbort", "kOutcomeRequest", "kOutcomeReply",
                     "kOutcomeNotify", "kWriteReq"):
            self.assertIn(kind, m.dispatch)
            self.assertIsNotNone(m.dispatch[kind], kind)

    def test_paxos_failover_tick_is_a_live_timer_edge(self):
        m = self.by_tag("paxos")
        self.assertIn("FailoverTick", m.timer_callbacks())
        # The PR-7 fix shape: FailoverTick consults decided_ and
        # re-arms — LV01 must see both.
        sends, _, _, _, _ = m.closure_effects("FailoverTick")
        self.assertIn("kPaxosNudge", sends)
        self.assertTrue(m.closure_has_token(
            "FailoverTick", statemachine._SCHED_RE))

    def test_answer_client_kinds_follow_the_disposition(self):
        # CommitProtocol::AnswerClient keys its trace kind on the
        # disposition: a collect timeout only aborts, and the vote
        # handlers never answer a read-only transaction.
        m = self.by_tag("txn")
        traces = {on: set(m.closure_effects(on)[3])
                  for on in ("CollectTimeout", "HandleReady")}
        self.assertIn("kDecisionAbort", traces["CollectTimeout"])
        self.assertNotIn("kDecisionCommit", traces["CollectTimeout"])
        self.assertNotIn("kReadOnlyDone", traces["CollectTimeout"])
        self.assertIn("kDecisionCommit", traces["HandleReady"])
        self.assertNotIn("kReadOnlyDone", traces["HandleReady"])

    def test_committed_specs_reproduce_byte_identically(self):
        for machine in self.machines:
            tag = machine.conf["tag"]
            path = statemachine.spec_path(REPO, tag)
            self.assertTrue(os.path.isfile(path),
                            f"missing committed spec {path}; run "
                            "polyverify.py --sm-update")
            with open(path, "rb") as f:
                committed = f.read()
            generated = statemachine.spec_bytes(
                statemachine.to_spec(machine))
            self.assertEqual(
                committed, generated,
                f"sm_{tag}.json drifted from the sources; run "
                "polyverify.py --sm-update and review the diff")

    def test_emit_is_deterministic_across_runs(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            pa = statemachine.write_specs(REPO, self.sources, out_dir=a)
            pb = statemachine.write_specs(REPO, self.sources, out_dir=b)
            self.assertEqual([os.path.basename(p) for p in pa],
                             [os.path.basename(p) for p in pb])
            for x, y in zip(pa, pb):
                with open(x, "rb") as f:
                    bx = f.read()
                with open(y, "rb") as f:
                    by = f.read()
                self.assertEqual(bx, by, os.path.basename(x))

    def test_full_tree_rules_clean(self):
        for check in (statemachine.check_sm01, statemachine.check_lv01,
                      statemachine.check_dc01):
            findings = check(REPO, self.sources)
            self.assertEqual(findings, [], check.__name__)


if __name__ == "__main__":
    unittest.main(verbosity=2)
