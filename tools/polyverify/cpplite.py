"""A small C++ "AST-lite" frontend for polyverify's semantic rules.

polyverify's reference frontend is libclang over compile_commands.json
(tools/polyverify/clangfront.py), but libclang's Python bindings are an
optional dependency. This module is the self-contained fallback: a
lexer that strips comments and literals while preserving offsets, a
brace matcher, and extractors for the handful of syntactic shapes the
rules need (enum definitions, switch statements, Mutex declarations,
function definitions with class context, call sites, and a
return-path coverage walk).

It is NOT a general C++ parser. It relies on the tree's enforced
formatting conventions (clang-format, Google style) and deliberately
over- or under-approximates where noted so that every reported
violation is real; see docs/STATIC_ANALYSIS.md for the contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving offsets.

    Every replaced character becomes a space (newlines survive), so
    byte offsets and line numbers in the cleaned text match the
    original file exactly.
    """
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            # Keep single chars like 'x' blanked; digit separators
            # (1'000) have no closing quote problem because the next
            # quote ends the "literal" harmlessly in cleaned text.
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


_PP_COND_RE = re.compile(r"^\s*#\s*(if|ifdef|ifndef|elif|else|endif)\b")


def blank_preprocessor_alternatives(text):
    """Resolves preprocessor conditionals offset-preservingly.

    The first branch of every #if/#ifdef/#ifndef is kept; #elif/#else
    alternatives are blanked, as are the directive lines themselves —
    so a function body split across `#if A ... #else ... #endif`
    parses as the primary configuration instead of as doubled
    (possibly brace-unbalanced) text. #define bodies (including
    multi-line X-macro lists, which LK01 reads) are never touched:
    only the six conditional directives and suppressed branches blank.
    """
    out = []
    # stack of booleans: is the *current* branch of each open
    # conditional kept?
    stack = []
    for line in text.split("\n"):
        m = _PP_COND_RE.match(line)
        keep_ctx = all(stack)
        if m:
            d = m.group(1)
            if d in ("if", "ifdef", "ifndef"):
                stack.append(True)  # first branch kept
            elif d in ("elif", "else"):
                if stack:
                    stack[-1] = False  # alternatives blanked
            elif d == "endif":
                if stack:
                    stack.pop()
            out.append(" " * len(line))  # directive line itself
            continue
        if keep_ctx:
            out.append(line)
        else:
            out.append(" " * len(line))
    return "\n".join(out)


def match_brace(text, open_idx):
    """Returns the offset of the '}' matching the '{' at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


@dataclass
class SourceFile:
    path: str
    text: str
    clean: str = ""
    lines: list = field(default_factory=list)

    def __post_init__(self):
        self.clean = blank_preprocessor_alternatives(
            strip_comments_and_strings(self.text))
        self.lines = self.text.splitlines()

    def line_of(self, offset):
        return line_of(self.text, offset)

    def raw_line(self, lineno):
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


ENUM_RE = re.compile(r"enum\s+class\s+(\w+)[^{;]*\{")


def parse_enums(src):
    """Returns {enum_name: [enumerator, ...]} for `enum class` defs."""
    enums = {}
    for m in ENUM_RE.finditer(src.clean):
        open_idx = src.clean.index("{", m.start())
        close_idx = match_brace(src.clean, open_idx)
        body = src.clean[open_idx + 1 : close_idx]
        members = []
        for entry in body.split(","):
            entry = entry.split("=")[0].strip()
            if re.fullmatch(r"\w+", entry):
                members.append(entry)
        enums[m.group(1)] = members
    return enums


@dataclass
class Switch:
    file: str
    line: int
    condition: str
    cases: list       # [(qualifier, member, line)]
    has_default: bool
    default_body: str  # statements after `default:` up to next label/end


SWITCH_RE = re.compile(r"\bswitch\s*\(")
CASE_RE = re.compile(r"\bcase\s+((?:\w+::)*)(\w+)\s*:")
DEFAULT_RE = re.compile(r"\bdefault\s*:")


def parse_switches(src):
    switches = []
    for m in SWITCH_RE.finditer(src.clean):
        cond_open = src.clean.index("(", m.start())
        depth = 0
        cond_close = cond_open
        for i in range(cond_open, len(src.clean)):
            if src.clean[i] == "(":
                depth += 1
            elif src.clean[i] == ")":
                depth -= 1
                if depth == 0:
                    cond_close = i
                    break
        body_open = src.clean.find("{", cond_close)
        if body_open == -1:
            continue
        body_close = match_brace(src.clean, body_open)
        body = src.clean[body_open + 1 : body_close]
        base = body_open + 1
        cases = []
        for cm in CASE_RE.finditer(body):
            qual = cm.group(1).rstrip(":")
            cases.append((qual, cm.group(2), src.line_of(base + cm.start())))
        dm = DEFAULT_RE.search(body)
        default_body = ""
        if dm:
            nxt = CASE_RE.search(body, dm.end())
            default_body = body[dm.end() : nxt.start() if nxt else len(body)]
        switches.append(
            Switch(
                file=src.path,
                line=src.line_of(m.start()),
                condition=src.clean[cond_open + 1 : cond_close].strip(),
                cases=cases,
                has_default=dm is not None,
                default_body=default_body,
            )
        )
    return switches


@dataclass
class MutexDecl:
    file: str
    line: int
    name: str
    rank: str  # "" when unranked


# A member/local Mutex declaration: `Mutex name ...;` possibly with the
# POLYV_MUTEX_RANK macro. Pointer/reference parameters (`Mutex* mu`) and
# MutexLock guards do not match.
MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*(?:POLYV_MUTEX_RANK\s*\(\s*(\w+)\s*\))?\s*;"
)


def parse_mutex_decls(src):
    decls = []
    for m in MUTEX_DECL_RE.finditer(src.clean):
        decls.append(
            MutexDecl(
                file=src.path,
                line=src.line_of(m.start()),
                name=m.group(1),
                rank=m.group(2) or "",
            )
        )
    return decls


@dataclass
class Function:
    file: str
    line: int
    cls: str      # enclosing/qualifying class name, "" for free functions
    name: str
    params: str
    body: str     # cleaned body text, braces excluded
    body_offset: int  # offset of the body in the cleaned file text
    annotations: str = ""  # trailing qualifiers (const, REQUIRES(...), ...)


# A function definition header: qualified name, parameter list, optional
# qualifiers/annotations, then `{`. Control-flow keywords are excluded
# at match time. Names cover identifiers, destructors, and operator
# overloads (operator() and the symbolic forms).
FUNC_RE = re.compile(
    r"(?:^|[;}{])\s*"                       # statement position
    r"(?:template\s*<[^>]*>\s*)?"
    r"(?P<prefix>[\w:<>,*&~\[\]\s]*?)"      # return type etc. (may be empty)
    r"\b(?P<qual>(?:\w+::)*)"
    r"(?P<name>operator\s*\(\s*\)|operator\s*(?:\[\s*\]|[+\-*/%^&|~!=<>]{1,3})"
    r"|~?\w+)\s*"
    r"\((?P<params>[^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)\s*"
    r"(?P<post>(?:const|noexcept|override|final|mutable|->\s*[\w:<>&*]+"
    r"|REQUIRES(?:_SHARED)?\s*\([^)]*\)|EXCLUDES\s*\([^)]*\)"
    r"|ACQUIRE(?:_SHARED)?\s*\([^)]*\)|RELEASE(?:_SHARED)?\s*\([^)]*\)"
    r"|TRY_ACQUIRE\s*\([^)]*\)|ASSERT_CAPABILITY\s*\([^)]*\)"
    r"|NO_THREAD_SAFETY_ANALYSIS|\s)*)"
    r"\{"
)

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "else", "do", "case", "default",
}


class ClassTracker:
    """Maps a text offset to the innermost `class X {` / `struct X {`
    block containing it."""

    def __init__(self, clean):
        self.spans = []  # (open, close, name)
        for m in re.finditer(r"\b(?:class|struct)\s+(?:\w+\s+)*?(\w+)"
                             r"(?:\s*(?:final|:\s*[^;{]*))?\s*\{", clean):
            name = m.group(1)
            open_idx = clean.index("{", m.start())
            close_idx = match_brace(clean, open_idx)
            self.spans.append((open_idx, close_idx, name))

    def class_at(self, offset):
        best = ""
        best_size = None
        for open_idx, close_idx, name in self.spans:
            if open_idx < offset < close_idx:
                size = close_idx - open_idx
                if best_size is None or size < best_size:
                    best = name
                    best_size = size
        return best


def parse_functions(src):
    """Extracts function definitions (with class context) from a file.
    Memoized on the SourceFile: several rules walk the same classes (an
    engine leg and its bases), and callers only read the result."""
    cached = src.__dict__.get("_functions")
    if cached is not None:
        return cached
    tracker = ClassTracker(src.clean)
    functions = []
    for m in FUNC_RE.finditer(src.clean):
        name = m.group("name")
        if name in KEYWORDS or name.startswith("~"):
            continue
        if name.startswith("operator"):
            name = "operator" + re.sub(r"\s+", "", name[len("operator"):])
        qual = m.group("qual").rstrip(":")
        body_open = m.end() - 1
        body_close = match_brace(src.clean, body_open)
        # Class context: an explicit `Class::` qualifier wins; otherwise
        # the innermost enclosing class/struct block (inline methods).
        cls = qual.split("::")[-1] if qual else tracker.class_at(body_open)
        functions.append(
            Function(
                file=src.path,
                line=src.line_of(m.start("name")),
                cls=cls,
                name=name,
                params=m.group("params"),
                body=src.clean[body_open + 1 : body_close],
                body_offset=body_open + 1,
                annotations=m.group("post") or "",
            )
        )
    src.__dict__["_functions"] = functions
    return functions


CALL_RE = re.compile(r"(?:(?P<recv>\w+)\s*(?P<op>->|\.))?\s*\b(?P<name>\w+)\s*\(")


def parse_calls(body):
    """Yields (receiver, op, callee) for call-shaped tokens in a body.

    receiver is "" for unqualified calls. Keywords and declarations
    also match this shape; callers filter against known functions, so
    over-matching here is harmless.
    """
    calls = []
    for m in CALL_RE.finditer(body):
        name = m.group("name")
        if name in KEYWORDS:
            continue
        calls.append((m.group("recv") or "", m.group("op") or "", name))
    return calls


MEMBER_DECL_RE = re.compile(
    r"\b(?:std::unique_ptr<\s*(?P<uptr>\w+)\s*>|(?P<ty>\w+)\s*\*?)\s+"
    r"(?P<name>\w+_?)\s*(?:=[^;]*|GUARDED_BY\s*\([^)]*\))?\s*;"
)


def parse_member_types(src):
    """Returns {class: {member_name: type_name}} for pointer/value and
    unique_ptr members — enough to resolve `member_->Method()` calls."""
    tracker = ClassTracker(src.clean)
    result = {}
    for open_idx, close_idx, name in tracker.spans:
        body = src.clean[open_idx + 1 : close_idx]
        members = {}
        for m in MEMBER_DECL_RE.finditer(body):
            ty = m.group("uptr") or m.group("ty")
            if ty and ty[0].isupper():
                members[m.group("name")] = ty
        result.setdefault(name, {}).update(members)
    return result


# --- member fields (rule GD01 / HP01) -------------------------------

# A type name with up to two levels of template nesting, e.g.
# `std::map<TxnId, std::pair<uint64_t, bool>>`.
_TMPL_TYPE = (
    r"\w+(?:::\w+)*"
    r"(?:\s*<[^<>;]*(?:<[^<>;]*(?:<[^<>;]*>[^<>;]*)*>[^<>;]*)*>)?"
)

MEMBER_FIELD_RE = re.compile(
    # The delimiter is a lookbehind so one declaration's `;` can anchor
    # the next (finditer matches never overlap).
    r"(?:^|(?<=[;{}])|\b(?:public|private|protected)\s*:)\s*"
    r"(?P<spec>(?:static\s+|mutable\s+|const\s+|constexpr\s+|inline\s+)*)"
    r"(?P<type>" + _TMPL_TYPE + r")(?:\s*const\b)?(?:\s*[*&]+)?\s+"
    r"(?P<name>\w+)\s*"
    r"(?P<ann>(?:(?:GUARDED_BY|PT_GUARDED_BY|POLYV_MUTEX_RANK|"
    r"ACQUIRED_BEFORE|ACQUIRED_AFTER)\s*\([^()]*\)\s*)*)"
    r"(?:=\s*[^;]*|\{[^{};]*\})?\s*;"
)


@dataclass
class MemberField:
    file: str
    line: int
    cls: str
    name: str
    type: str
    spec: str         # static/mutable/const/... specifiers
    annotations: str  # GUARDED_BY(...) etc., "" when unannotated


def parse_member_fields(src):
    """Returns {class: [MemberField, ...]} for data-member declarations,
    handling nested template types. Method definitions don't match (a
    '(' in the declarator breaks the pattern before the ';')."""
    tracker = ClassTracker(src.clean)
    result = {}
    for open_idx, close_idx, cls in tracker.spans:
        body = src.clean[open_idx + 1 : close_idx]
        # Blank nested class/struct bodies so inner members are not
        # attributed to the outer class (the tracker visits them too).
        chars = list(body)
        for o2, c2, _ in tracker.spans:
            if open_idx < o2 and c2 < close_idx:
                for k in range(o2 - open_idx - 1, c2 - open_idx):
                    if 0 <= k < len(chars) and chars[k] != "\n":
                        chars[k] = " "
        scan = "".join(chars)
        fields = []
        for m in MEMBER_FIELD_RE.finditer(scan):
            ty = m.group("type").strip()
            base = ty.split("<")[0].split("::")[-1]
            if base in KEYWORDS or ty in ("return",):
                continue
            fields.append(MemberField(
                file=src.path,
                line=src.line_of(open_idx + 1 + m.start("name")),
                cls=cls,
                name=m.group("name"),
                type=ty,
                spec=m.group("spec") or "",
                annotations=(m.group("ann") or "").strip(),
            ))
        if fields:
            result.setdefault(cls, []).extend(fields)
    return result


# --- lock scopes (rule GD01) ----------------------------------------

LOCK_GUARD_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]\s*&\s*(\w+)\s*[)}]")
LOCK_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*Lock\s*\(\s*\)")
UNLOCK_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*Unlock\s*\(\s*\)")


def _block_spans(body):
    """Returns (open, close) offset pairs for every brace block."""
    spans = []
    stack = []
    for i, c in enumerate(body):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            spans.append((stack.pop(), i))
    return spans


def lock_regions(body):
    """Returns [(mutex_name, start, end)] offset ranges of `body` that
    execute with the named mutex held: the lexical scope of each RAII
    `MutexLock l(&mu_)` guard, and the textual span between explicit
    `mu_.Lock()` / `mu_.Unlock()` pairs."""
    spans = _block_spans(body)
    regions = []
    for m in LOCK_GUARD_RE.finditer(body):
        end = len(body)
        best = None
        for o, c in spans:
            if o < m.start() < c and (best is None or c - o < best[1] -
                                      best[0]):
                best = (o, c)
        if best is not None:
            end = best[1]
        regions.append((m.group(1), m.start(), end))
    for m in LOCK_CALL_RE.finditer(body):
        mu = m.group(1)
        end = len(body)
        for u in UNLOCK_CALL_RE.finditer(body, m.end()):
            if u.group(1) == mu:
                end = u.start()
                break
        regions.append((mu, m.start(), end))
    return regions


# --- return-path coverage (rule TR01) -------------------------------

WORD_RETURN = re.compile(r"\breturn\b")
LAMBDA_INTRO = re.compile(r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
                          r"(?:->\s*[\w:<>&*]+\s*)?\{")


def uncovered_returns(body, emitters):
    """Returns offsets (into body) of return paths not preceded by an
    emitting call, including the implicit end-of-function return.

    Model: a linear scan with one frame per brace depth. An emitting
    call marks the current frame; a return is covered when any frame on
    the stack is marked (an emitter strictly earlier in an enclosing
    block always dominates the return in source order). Conditionally
    executed emitters in *sibling* blocks do not leak — their frame is
    popped before the return is reached. Lambda bodies are opaque:
    their returns are not function returns, and emitters inside them do
    not cover the enclosing function.
    """
    emit_re = re.compile(
        r"\b(?:" + "|".join(re.escape(e) for e in sorted(emitters)) + r")\s*\("
    ) if emitters else None

    events = []  # (offset, kind)
    for i, ch in enumerate(body):
        if ch == "{":
            events.append((i, "open"))
        elif ch == "}":
            events.append((i, "close"))
    if emit_re:
        for m in emit_re.finditer(body):
            events.append((m.start(), "emit"))
    for m in WORD_RETURN.finditer(body):
        events.append((m.start(), "return"))
    for m in LAMBDA_INTRO.finditer(body):
        # Mark the '{' that opens this lambda body.
        events.append((m.end() - 1, "lambda_open"))
    events.sort(key=lambda e: (e[0], e[1] != "lambda_open"))

    stack = [{"emitted": False, "lambda": False}]
    lambda_opens = {off for off, kind in events if kind == "lambda_open"}
    uncovered = []
    for off, kind in events:
        if kind in ("open", "lambda_open"):
            if kind == "open" and off in lambda_opens:
                continue  # handled by the lambda_open event at this offset
            stack.append({
                "emitted": stack[-1]["emitted"] if kind == "open" else False,
                "lambda": kind == "lambda_open" or stack[-1]["lambda"],
            })
        elif kind == "close":
            if len(stack) > 1:
                stack.pop()
        elif kind == "emit":
            stack[-1]["emitted"] = True
        elif kind == "return":
            if stack[-1]["lambda"]:
                continue
            if not any(f["emitted"] for f in stack):
                uncovered.append(off)
    # Implicit return at end of a void function: covered only when the
    # outermost frame saw an emitter on the straight-line path.
    if not stack[0]["emitted"]:
        last = body.rstrip()
        # If the function ends in an explicit return it was already
        # handled above; otherwise flag the closing position.
        if not last.endswith("return;") and not re.search(
                r"\breturn\b[^;]*;\s*$", last):
            uncovered.append(len(body))
    return uncovered
