#!/usr/bin/env python3
"""Protocol state-machine extraction for polyverify (tier 5).

Builds, per commit-protocol engine (ENGINE_MACHINES), an explicit
automaton from the parsed sources:

  nodes  the durable txn/acceptor states the engine writes
         (PartState/CoordPhase/LeaderPhase constants plus the durable
         tables prepared_/decided_/acceptor_)
  edges  one per stimulus — a received MsgType (the OnMessage dispatch
         arm), an armed timer callback (every ScheduleGuarded lambda),
         or a client entry point — annotated with the transitive
         effects of the handling method: state writes, sent MsgTypes,
         trace events, and the timers it arms.

Effect closures follow unqualified same-class calls over
lambda-blanked bodies, so deferred work (outbox thunks, timer
callbacks) never leaks into the direct effects of the arming edge;
timer callbacks get their own `timer:` edges instead and thunk-called
methods are listed under `deferred`.

The extracted automata serialize deterministically (sorted keys, no
file/line churn) into tools/polyverify/sm_{txn,paxos}.json plus a
Graphviz DOT rendering, checked in as the reviewed protocol spec.

Three rules consume the automaton:

  SM01  message-flow completeness: every MsgType constructed anywhere
        in src/ must have (a) a dispatching handler arm in some
        engine's OnMessage (not a discard arm), (b) an Encode AND a
        Decode case arm in the Message codec, and (c) at least one
        trace event in the receiving handler's closure. Cross-TU —
        this closes the per-file gap of polylint MSG01. SM01 also
        gates that the extraction matches the committed sm_*.json
        spec (regenerate with --sm-update).

  LV01  static liveness: (a) every method that creates a waiting
        entry (an emplace into participations_/coordinations_/
        leaderships_) must reach a ScheduleGuarded escape timer in
        its closure; (b) every timer callback whose closure seeks an
        outcome remotely (kOutcomeRequest / kPaxosNudge /
        kPaxosPhase1a) must consult the local durable decision table
        AND re-arm an escape timer — the exact shape of the PR-7
        FailoverTick bug, where a dropped self-addressed decision
        left the tick nudging forever without checking decided_.

  DC01  decision consistency: on every feasible CFG path through an
        engine method, each terminal action family (Decide,
        FinishParticipation, ApplyOutcome, DeliverClientResult,
        MakeOutcomeReply, ...) executes at most once — counted as
        distinct call sites so loops (fan-out sends) stay clean, with
        branch-correlation pruning from the dataflow walk.

Findings are returned as (rule, path, line, message) tuples; the
polyverify driver wraps them into Violations and applies the
`// polyverify: allow(RULE)` suppression policy.
"""

from __future__ import annotations

import json
import os
import re

import cpplite
import dataflow

# Outcome-seeking message kinds: sent to LEARN a decision made (or to
# be made) elsewhere. A timer that asks must also check its own
# durable table — the answer may already be local (PR-7 bug shape).
OUTCOME_SEEKING = ("kOutcomeRequest", "kPaxosNudge", "kPaxosPhase1a")

# Per-engine protocol description. New commit-protocol legs register
# here (mirrors polyverify.ENGINE_SCOPES). `bases` names the engine base
# classes whose methods join the leg's machine (CommitProtocol owns the
# compute phase both legs share); a leg's own definition of a name
# replaces the base's, so an unqualified hook call inside a base method
# resolves to that leg's override.
ENGINE_MACHINES = (
    {
        "engine": "TxnEngine",
        "scope": "src/txn",
        "bases": ("CommitProtocol",),
        "tag": "txn",
        "entry_points": ("Submit", "Recover"),
        "wait_maps": ("participations_", "coordinations_"),
        "durable_tokens": ("prepared_", "decided_"),
        "state_enums": ("PartState", "CoordPhase"),
        "decision_token": "decided_",
        "terminal_families": ("Decide", "FinishParticipation",
                              "ApplyInDoubtPolicy", "HandleLearnedOutcome",
                              "MakeOutcomeReply", "AbortComputePhase",
                              "AnswerClient", "ReleaseParticipants"),
    },
    {
        "engine": "PaxosEngine",
        "scope": "src/paxos",
        "bases": ("CommitProtocol",),
        "tag": "paxos",
        "entry_points": ("Submit", "Recover"),
        "wait_maps": ("participations_", "coordinations_", "leaderships_"),
        "durable_tokens": ("prepared_", "decided_", "acceptor_"),
        "state_enums": ("PartState", "CoordPhase", "LeaderPhase"),
        "decision_token": "decided_",
        "terminal_families": ("ApplyOutcome", "AnswerClient",
                              "EndLeadership", "StartRecovery",
                              "FinishTally", "BroadcastDecision",
                              "AbortComputePhase", "ReleaseParticipants",
                              "MakePaxosDecision"),
    },
)

SPEC_DIR = os.path.join("tools", "polyverify")

_CASE_RE = re.compile(r"case\s+MsgType::(k\w+)\s*:")
_SCHED_RE = re.compile(r"\bScheduleGuarded\s*\(")
_TRACE_CALL_RE = re.compile(r"\bTrace(?:Key)?\s*\(")
_TRACE_KIND_RE = re.compile(r"TraceEventType::(k\w+)")
_MAKE_TYPE_RE = re.compile(r"\.\s*type\s*=\s*MsgType::(k\w+)")
_MAKE_CALL_RE = re.compile(r"\b(Make[A-Z]\w*)\s*\(")


def _rel(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def _trace_statements(text):
    """The argument text of each Trace/TraceKey call in `text`."""
    for m in _TRACE_CALL_RE.finditer(text):
        end = text.find(";", m.end())
        yield text[m.end():end] if end != -1 else text[m.end():m.end() + 200]


def _trace_kinds(text):
    """TraceEventType kinds emitted by Trace/TraceKey calls in `text`.
    The kind argument may sit behind a ternary (`Trace(ok ? kA : kB`),
    so scan the whole statement rather than just the first token."""
    kinds = set()
    for seg in _trace_statements(text):
        kinds.update(_TRACE_KIND_RE.findall(seg))
    return kinds


def _split_args(text, angle=False):
    """Top-level comma split of an argument list (no enclosing parens).
    `angle` also nests on <>, for parameter lists with template types
    (argument text may hold `->` and comparisons instead)."""
    opening, closing = ("([{<", ")]}>") if angle else ("([{", ")]}")
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in opening:
            depth += 1
        elif ch in closing:
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(text[start:i].strip())
            start = i + 1
    args.append(text[start:].strip())
    return args


def _param_names(params):
    names = []
    for param in _split_args(params, angle=True):
        m = re.search(r"(\w+)\s*(?:=.*)?$", param)
        names.append(m.group(1) if m else "")
    return names


# One arm of a trace kind keyed on a parameter:
#   `param == Enum::kX ? TraceEventType::kA : ...`
_KEYED_ARM_RE = re.compile(
    r"\b(\w+)\s*==\s*(\w+::k\w+)\s*\?\s*TraceEventType::(k\w+)\s*:")
# The chain's last (default) kind, closing the kind argument.
_KEYED_DEFAULT_RE = re.compile(r":\s*TraceEventType::(k\w+)\s*,")
# A call argument that can only be enum constants: one constant, or a
# ternary whose two branches are constants.
_CONST_ARG_RE = re.compile(
    r"^(?:[^?]*\?\s*)?(\w+::k\w+)(?:\s*:\s*(\w+::k\w+))?$")


def _keyed_traces(text, params):
    """Splits the Trace calls in `text` into plain kinds and kinds keyed
    on one of the function's parameters by a ternary chain, e.g.
    `Trace(d == TxnDisposition::kCommitted ? TraceEventType::kDecisionCommit
    : TraceEventType::kDecisionAbort, txn)`. Returns (plain kinds,
    [(param index, {enum constant: kind}, default kind)]); a keyed trace
    is resolved per call site by the argument the caller passes."""
    names = _param_names(params)
    plain, keyed = set(), []
    for seg in _trace_statements(text):
        arms = _KEYED_ARM_RE.findall(seg)
        default = _KEYED_DEFAULT_RE.findall(seg)
        keys = {param for param, _, _ in arms}
        if len(keys) == 1 and arms[0][0] in names and default:
            keyed.append((names.index(arms[0][0]),
                          {const: kind for _, const, kind in arms},
                          default[-1]))
        else:
            plain.update(_TRACE_KIND_RE.findall(seg))
    return plain, keyed


def _call_args(text, callee):
    """Argument lists (split) of every unqualified call to `callee`."""
    for m in re.finditer(r"(?<![\w.>])%s\s*\(" % re.escape(callee), text):
        depth = 0
        for close in range(m.end() - 1, len(text)):
            depth += {"(": 1, ")": -1}.get(text[close], 0)
            if depth == 0:
                break
        yield _split_args(text[m.end():close])


class _Method:
    """One engine method (overloads merged by name)."""

    def __init__(self, name):
        self.name = name
        self.file = None
        self.line = 0
        self.fns = []          # cpplite Function records
        self.raws = []         # raw bodies
        self.blanks = []       # lambda-blanked bodies
        self.calls = set()     # unqualified same-class callees
        self.sends = set()     # MsgType kinds via Make* in blanked body
        self.writes = set()    # "prepared_.erase"-style mutation tokens
        self.states = set()    # "PartState::kWait"-style enum writes
        self.traces = set()    # TraceEventType kinds in blanked body
        self.keyed = []        # parameter-keyed trace kinds (_keyed_traces)
        self.arms = []         # [{delay, invokes, traces}] timer lambdas
        self.deferred = set()  # methods called only from thunk lambdas


def _timer_arms(raw, method_names):
    """Extracts every ScheduleGuarded(delay, [..]{..}) arming site."""
    arms = []
    i = 0
    while True:
        m = _SCHED_RE.search(raw, i)
        if m is None:
            break
        lb = raw.find("{", m.end())
        if lb == -1:
            break
        rb = cpplite.match_brace(raw, lb)
        lam = raw[lb + 1:rb]
        delay = raw[m.end():lb].split(",")[0].strip()
        invokes = sorted({
            name for recv, _, name in cpplite.parse_calls(lam)
            if not recv and name in method_names})
        arms.append({
            "delay": delay,
            "invokes": invokes,
            "traces": sorted(_trace_kinds(lam)),
        })
        i = rb
    return arms


def _build_methods(scoped_sources, conf, sources=()):
    """Parses the engine class, merged with its `bases` from `sources`,
    into a name -> _Method dict."""
    fns = []
    for src in scoped_sources:
        for fn in cpplite.parse_functions(src):
            if fn.cls == conf["engine"]:
                fns.append(fn)
    overridden = {fn.name for fn in fns}
    for src in sources:
        for fn in cpplite.parse_functions(src):
            if fn.cls in conf.get("bases", ()) and \
                    fn.name not in overridden:
                fns.append(fn)
    names = {fn.name for fn in fns}
    write_re = re.compile(
        r"\b(%s)\s*(?:\.\s*(emplace|insert_or_assign|insert|erase|clear)"
        r"\b|(\[))" % "|".join(conf["wait_maps"] + conf["durable_tokens"]))
    state_re = re.compile(
        r"=\s*(%s)::(k\w+)" % "|".join(conf["state_enums"]))

    methods = {}
    for fn in sorted(fns, key=lambda f: (f.file, f.line)):
        rec = methods.setdefault(fn.name, _Method(fn.name))
        if rec.file is None:
            rec.file, rec.line = fn.file, fn.line
        raw = fn.body
        blank = dataflow.blank_lambdas(raw)
        rec.fns.append(fn)
        rec.raws.append(raw)
        rec.blanks.append(blank)
        rec.calls.update(
            name for recv, _, name in cpplite.parse_calls(blank)
            if not recv and name in names and name != fn.name)
        for wm in write_re.finditer(blank):
            op = wm.group(2) or "[]"
            rec.writes.add(f"{wm.group(1)}.{op}")
        for sm in state_re.finditer(blank):
            rec.states.add(f"{sm.group(1)}::{sm.group(2)}")
        plain, keyed = _keyed_traces(blank, fn.params)
        rec.traces.update(plain)
        rec.keyed.extend(keyed)
        rec.arms.extend(_timer_arms(raw, names))
        in_lambda = {
            name for recv, _, name in cpplite.parse_calls(raw)
            if not recv and name in names} - {
            name for recv, _, name in cpplite.parse_calls(blank)
            if not recv and name in names}
        rec.deferred.update(in_lambda)
    # Timer targets are modeled as timer edges, not deferred calls.
    for rec in methods.values():
        timer_targets = {t for arm in rec.arms for t in arm["invokes"]}
        rec.deferred -= timer_targets
    return methods


def _make_map(sources):
    """Make* constructor name -> MsgType kind, across the whole tree.

    Constructors that delegate (e.g. MakePrepareRefusal building on
    MakePrepareReply) inherit the delegate's kind."""
    direct = {}
    delegates = {}
    for src in sources:
        for fn in cpplite.parse_functions(src):
            if not fn.name.startswith("Make"):
                continue
            tm = _MAKE_TYPE_RE.search(fn.body)
            if tm:
                direct[fn.name] = tm.group(1)
                continue
            for cm in _MAKE_CALL_RE.finditer(fn.body):
                if cm.group(1) != fn.name:
                    delegates[fn.name] = cm.group(1)
                    break
    for name, target in delegates.items():
        if name not in direct and target in direct:
            direct[name] = direct[target]
    return direct


def _dispatch(methods):
    """MsgType kind -> handler name (None = loud-discard arm)."""
    om = methods.get("OnMessage")
    if om is None:
        return {}
    arms = {}
    order = []
    for blank in om.blanks:
        labels = list(_CASE_RE.finditer(blank))
        for i, m in enumerate(labels):
            seg_end = labels[i + 1].start() if i + 1 < len(labels) \
                else len(blank)
            seg = blank[m.end():seg_end]
            d = re.search(r"\bdefault\s*:", seg)
            if d:
                seg = seg[:d.start()]
            hm = re.search(r"\b(Handle\w+)\s*\(", seg)
            kind = m.group(1)
            order.append(kind)
            if hm:
                arms[kind] = hm.group(1)
            elif seg.strip() == "":
                arms[kind] = "__fallthrough__"
            else:
                arms[kind] = None
    for i in range(len(order) - 2, -1, -1):
        if arms[order[i]] == "__fallthrough__":
            arms[order[i]] = arms[order[i + 1]]
    # A trailing fallthrough label (malformed switch) discards.
    return {k: (None if v == "__fallthrough__" else v)
            for k, v in arms.items()}


def _closure(methods, name):
    """Same-class transitive callee set including `name` itself."""
    seen = set()
    stack = [name]
    while stack:
        n = stack.pop()
        if n in seen or n not in methods:
            continue
        seen.add(n)
        stack.extend(methods[n].calls)
    return seen


class Machine:
    def __init__(self, conf, methods, make_map, dispatch):
        self.conf = conf
        self.methods = methods
        self.make_map = make_map
        self.dispatch = dispatch
        self._closures = {}

    def closure(self, name):
        if name not in self._closures:
            self._closures[name] = _closure(self.methods, name)
        return self._closures[name]

    def closure_effects(self, name):
        """Union of direct effects over the call closure of `name`."""
        sends, writes, states, traces, arms = (
            set(), set(), set(), set(), set())
        for n in self.closure(name):
            rec = self.methods[n]
            for blank in rec.blanks:
                for cm in _MAKE_CALL_RE.finditer(blank):
                    kind = self.make_map.get(cm.group(1))
                    if kind:
                        sends.add(kind)
            writes |= rec.writes
            states |= rec.states
            traces |= rec.traces
            traces |= self._keyed_kinds(name, n)
            arms |= {t for arm in rec.arms for t in arm["invokes"]}
        return sends, writes, states, traces, arms

    def _keyed_kinds(self, root, name):
        """Kinds of `name`'s parameter-keyed traces that the calls to it
        inside `root`'s closure can select. An argument that can only be
        enum constants (`TxnDisposition::kAborted`, or a ternary of two)
        selects their kinds; anything else, or no call site (`name` is
        the edge's own handler), selects every kind."""
        kinds = set()
        for index, by_const, default in self.methods[name].keyed:
            every = set(by_const.values()) | {default}
            args = [
                call[index] if index < len(call) else ""
                for caller in self.closure(root) if caller != name
                for blank in self.methods[caller].blanks
                for call in _call_args(blank, name)]
            if not args:
                kinds |= every
            for arg in args:
                m = _CONST_ARG_RE.match(arg)
                if m is None:
                    kinds |= every
                    continue
                kinds |= {by_const.get(c, default)
                          for c in m.groups() if c is not None}
        return kinds

    def timer_callbacks(self):
        return sorted({
            t for rec in self.methods.values()
            for arm in rec.arms for t in arm["invokes"]})

    def closure_has_token(self, name, token_re):
        return any(token_re.search(blank)
                   for n in self.closure(name)
                   for blank in self.methods[n].blanks)


_CACHE = None  # (sources identity, root) -> machines, for one scan


def build_machines(root, sources):
    """Returns [Machine] for every ENGINE_MACHINES scope with sources.

    The three rules (and the spec emitters) share one extraction per
    loaded tree: cached while the same `sources` list object is in
    play."""
    global _CACHE
    if _CACHE is not None and _CACHE[0] is sources and _CACHE[1] == root:
        return _CACHE[2]
    machines = _build_machines_uncached(root, sources)
    _CACHE = (sources, root, machines)
    return machines


def _build_machines_uncached(root, sources):
    make_map = _make_map(sources)
    machines = []
    for conf in ENGINE_MACHINES:
        scoped = [
            s for s in sources
            if ("/" + conf["scope"] + "/") in s.path.replace(os.sep, "/")]
        if not scoped:
            continue
        methods = _build_methods(scoped, conf, sources)
        if not methods:
            continue
        machines.append(
            Machine(conf, methods, make_map, _dispatch(methods)))
    return machines


# --------------------------------------------------------------------
# Serialization: deterministic JSON spec + Graphviz DOT
# --------------------------------------------------------------------


def _edge(machine, on, handler):
    sends, writes, states, traces, arms = machine.closure_effects(handler)
    rec = machine.methods[handler]
    return {
        "on": on,
        "handler": handler,
        "sends": sorted(sends),
        "writes": sorted(writes),
        "states": sorted(states),
        "traces": sorted(traces),
        "arms": sorted(arms),
        "deferred": sorted(rec.deferred),
    }


def to_spec(machine):
    conf = machine.conf
    edges = []
    ignored = []
    for kind in sorted(machine.dispatch):
        handler = machine.dispatch[kind]
        if handler is None or handler not in machine.methods:
            ignored.append(kind)
            continue
        edges.append(_edge(machine, f"msg:{kind}", handler))
    for cb in machine.timer_callbacks():
        if cb in machine.methods:
            edges.append(_edge(machine, f"timer:{cb}", cb))
    for ep in conf["entry_points"]:
        if ep in machine.methods:
            edges.append(_edge(machine, f"call:{ep}", ep))
    edges.sort(key=lambda e: e["on"])
    states = sorted({s for e in edges for s in e["states"]})
    return {
        "comment": "Extracted protocol automaton — the reviewed spec "
                   "for this engine. SM01 gates that extraction from "
                   "the current sources matches this file byte-for-"
                   "byte; regenerate with `polyverify.py --sm-update` "
                   "and review the diff as a protocol change "
                   "(docs/STATIC_ANALYSIS.md).",
        "engine": conf["engine"],
        "scope": conf["scope"],
        "states": states,
        "ignored_kinds": sorted(ignored),
        "edges": edges,
    }


def spec_bytes(spec):
    return (json.dumps(spec, indent=1, sort_keys=True) + "\n").encode()


def to_dot(spec):
    """Graphviz rendering: stimuli (ellipses) -> handlers (boxes) ->
    sent kinds (ellipses); timer arms dashed."""
    lines = [
        f'digraph sm_{spec["engine"]} {{',
        "  rankdir=LR;",
        '  node [fontsize=10, fontname="Helvetica"];',
        f'  label="{spec["engine"]} protocol automaton '
        f'({spec["scope"]})";',
    ]
    nodes = set()

    def node(name, shape):
        if name not in nodes:
            nodes.add(name)
            lines.append(f'  "{name}" [shape={shape}];')

    for edge in spec["edges"]:
        handler = edge["handler"]
        node(handler, "box")
        node(edge["on"], "ellipse" if edge["on"].startswith("msg:")
             else "diamond")
        lines.append(f'  "{edge["on"]}" -> "{handler}";')
        for kind in edge["sends"]:
            node(f"msg:{kind}", "ellipse")
            lines.append(
                f'  "{handler}" -> "msg:{kind}" [color=blue];')
        for timer in edge["arms"]:
            node(f"timer:{timer}", "diamond")
            lines.append(
                f'  "{handler}" -> "timer:{timer}" [style=dashed];')
    for kind in spec["ignored_kinds"]:
        node(f"msg:{kind}", "ellipse")
        lines.append(
            f'  "msg:{kind}" -> "discard" [style=dotted];')
        nodes.add("discard")
    if "discard" in nodes:
        lines.append('  "discard" [shape=plaintext];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def spec_path(root, tag):
    return os.path.join(root, SPEC_DIR, f"sm_{tag}.json")


def write_specs(root, sources, out_dir=None):
    """Writes sm_<tag>.json + .dot for every engine; returns paths."""
    out_dir = out_dir or os.path.join(root, SPEC_DIR)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for machine in build_machines(root, sources):
        spec = to_spec(machine)
        tag = machine.conf["tag"]
        jpath = os.path.join(out_dir, f"sm_{tag}.json")
        with open(jpath, "wb") as f:
            f.write(spec_bytes(spec))
        dpath = os.path.join(out_dir, f"sm_{tag}.dot")
        with open(dpath, "w") as f:
            f.write(to_dot(spec))
        paths.extend([jpath, dpath])
    return paths


# --------------------------------------------------------------------
# SM01 — message-flow completeness + spec drift
# --------------------------------------------------------------------


def _send_sites(root, sources, make_map):
    """kind -> (path, line) of its first construction site in src/."""
    sites = {}
    for src in sorted(sources, key=lambda s: s.path):
        r = _rel(root, src.path)
        if not r.startswith("src/") or \
                os.path.basename(r).startswith("messages."):
            continue
        for m in _MAKE_CALL_RE.finditer(src.clean):
            kind = make_map.get(m.group(1))
            if kind and kind not in sites:
                sites[kind] = (src.path, src.line_of(m.start()))
    return sites


def _codec_arms(sources):
    """(encode_kinds, decode_kinds, found) from Message::Encode/Decode."""
    encode, decode = set(), set()
    found = False
    for src in sources:
        for fn in cpplite.parse_functions(src):
            if fn.cls != "Message" or fn.name not in ("Encode", "Decode"):
                continue
            found = True
            kinds = set(_CASE_RE.findall(fn.body))
            if fn.name == "Encode":
                encode |= kinds
            else:
                decode |= kinds
    return encode, decode, found


def check_sm01(root, sources):
    findings = []
    machines = build_machines(root, sources)
    if not machines:
        return findings
    make_map = machines[0].make_map
    sites = _send_sites(root, sources, make_map)
    encode, decode, codec_found = _codec_arms(sources)

    handled = {}  # kind -> (machine, handler)
    for machine in machines:
        for kind, handler in machine.dispatch.items():
            if handler is not None and handler in machine.methods:
                handled.setdefault(kind, (machine, handler))

    for kind in sorted(sites):
        path, line = sites[kind]
        gaps = []
        if kind not in handled:
            gaps.append("no receiving handler arm in any engine's "
                        "OnMessage dispatch")
        else:
            machine, handler = handled[kind]
            _, _, _, traces, _ = machine.closure_effects(handler)
            if not traces:
                gaps.append(
                    f"receiving handler {machine.conf['engine']}::"
                    f"{handler} emits no trace event")
        if codec_found:
            if kind not in encode:
                gaps.append("no Message::Encode case arm")
            if kind not in decode:
                gaps.append("no Message::Decode case arm")
        if gaps:
            findings.append((
                "SM01", path, line,
                f"message kind {kind} is constructed here but has " +
                "; ".join(gaps) +
                " — every sent kind needs a cross-TU receive path, "
                "codec arms, and a trace event"))

    # Spec drift: extraction must match the committed automaton.
    for machine in machines:
        tag = machine.conf["tag"]
        path = spec_path(root, tag)
        generated = spec_bytes(to_spec(machine))
        if not os.path.isfile(path):
            findings.append((
                "SM01", path, 1,
                f"{machine.conf['engine']} automaton has no committed "
                f"spec (tools/polyverify/sm_{tag}.json); generate and "
                "review it with `polyverify.py --sm-update`"))
            continue
        with open(path, "rb") as f:
            committed = f.read()
        if committed != generated:
            findings.append((
                "SM01", path, 1,
                f"{machine.conf['engine']} automaton drifted from the "
                f"committed spec sm_{tag}.json — the protocol state "
                "machine changed; regenerate with `polyverify.py "
                "--sm-update` and review the diff as a protocol "
                "change"))
    return findings


# --------------------------------------------------------------------
# LV01 — static liveness: every waiting state has an escape edge
# --------------------------------------------------------------------


def check_lv01(root, sources):
    findings = []
    for machine in build_machines(root, sources):
        conf = machine.conf
        engine = conf["engine"]
        emplace_re = re.compile(
            r"\b(%s)\s*(?:\.\s*emplace\b|\[)" % "|".join(conf["wait_maps"]))
        decision_re = re.compile(r"\b%s\b" % conf["decision_token"])

        # (a) creating a waiting entry requires a reachable escape
        # timer: the entry's only exits are messages that may never
        # arrive, so SOME timer must be armed by the creating path.
        for name in sorted(machine.methods):
            rec = machine.methods[name]
            hits = [emplace_re.search(b) for b in rec.blanks]
            if not any(hits):
                continue
            if not machine.closure_has_token(name, _SCHED_RE):
                findings.append((
                    "LV01", rec.file, rec.line,
                    f"{engine}::{name} creates a waiting entry "
                    f"({next(h for h in hits if h).group(1)}) but no "
                    "ScheduleGuarded escape timer is reachable from it "
                    "— a lost message leaves the transaction waiting "
                    "forever"))

        # (b) a timer that asks the world for an outcome must also
        # consult the local durable decision table and re-arm: the
        # PR-7 FailoverTick bug (a dropped self-addressed decision
        # broadcast) stalls exactly the callbacks that do neither.
        for cb in machine.timer_callbacks():
            if cb not in machine.methods:
                continue
            sends, _, _, _, _ = machine.closure_effects(cb)
            if not sends.intersection(OUTCOME_SEEKING):
                continue
            rec = machine.methods[cb]
            seeking = ", ".join(sorted(sends.intersection(OUTCOME_SEEKING)))
            if not machine.closure_has_token(cb, decision_re):
                findings.append((
                    "LV01", rec.file, rec.line,
                    f"timer callback {engine}::{cb} seeks an outcome "
                    f"remotely ({seeking}) without consulting the local "
                    f"{conf['decision_token']} table — a dropped "
                    "self-addressed decision leaves it asking forever "
                    "(the PR-7 FailoverTick bug shape)"))
            if not machine.closure_has_token(cb, _SCHED_RE):
                findings.append((
                    "LV01", rec.file, rec.line,
                    f"timer callback {engine}::{cb} seeks an outcome "
                    f"remotely ({seeking}) but never re-arms a timer — "
                    "one lost reply ends the escape protocol"))
    return findings


# --------------------------------------------------------------------
# DC01 — terminal decisions happen exactly once per path
# --------------------------------------------------------------------


def check_dc01(root, sources):
    findings = []
    srcs = {s.path: s for s in sources}
    for machine in build_machines(root, sources):
        conf = machine.conf
        fam_res = [
            (fam, re.compile(r"\b%s\s*\(" % fam))
            for fam in conf["terminal_families"]]
        for name in sorted(machine.methods):
            rec = machine.methods[name]
            for fn, blank in zip(rec.fns, rec.blanks):
                if not any(rx.search(blank) for _, rx in fam_res):
                    continue
                cfg = dataflow.build_cfg(blank)

                def transfer(off, text, payload, facts):
                    out = payload
                    for fam, rx in fam_res:
                        if fam == name:
                            continue  # recursion isn't a second site
                        for m in dataflow.guarded_tokens(rx, text, facts):
                            out = out | frozenset(
                                [(fam, off + m.start())])
                    return out

                exits = dataflow.walk(cfg, frozenset(), transfer)
                worst = {}  # fam -> sorted offsets of the worst path
                for payload in exits:
                    per_fam = {}
                    for fam, off in payload:
                        per_fam.setdefault(fam, []).append(off)
                    for fam, offs in per_fam.items():
                        if len(offs) > len(worst.get(fam, ())):
                            worst[fam] = sorted(offs)
                src = srcs[fn.file]
                for fam in sorted(worst):
                    offs = worst[fam]
                    if len(offs) < 2:
                        continue
                    lns = [src.line_of(fn.body_offset +
                                       min(o, len(fn.body) - 1))
                           for o in offs]
                    findings.append((
                        "DC01", fn.file, lns[-1],
                        f"{conf['engine']}::{name} executes terminal "
                        f"action {fam}(...) {len(offs)}x on one path "
                        f"(lines {', '.join(map(str, lns))}) — a "
                        "terminal outcome must be sent or recorded "
                        "exactly once; separate the paths with an "
                        "early return"))
    return findings
