#!/usr/bin/env python3
"""CoScale invariant linter.

Statically bans the determinism and correctness hazards this repo has
already paid for at runtime: ambient randomness and wall-clock reads
that would break bit-identical runs, unordered-container iteration
that would scramble golden JSONL fixtures, raw asserts that bypass
the COSCALE_CHECK reporting path, unguarded mutable globals that
break run purity, raw std::mutex uses that dodge the clang
thread-safety annotations, uninitialized scalar struct members,
policy decide/observe calls that copy the epoch loop, and C library
number parsers that bypass the strict one.

Usage:
    coscale_lint.py [paths...]            # default: <repo>/src
    coscale_lint.py --self-test           # fixture corpus check
    coscale_lint.py --list-rules
    coscale_lint.py -p build              # also run clang-query rules
                                          # (needs compile_commands.json)
    coscale_lint.py --json                # machine-readable findings

Suppression syntax (same line or the line above the violation):

    // coscale-lint: allow(<rule-id>) -- <justification>

The justification is mandatory; an allow() without one is itself a
finding (`bad-suppression`), and an allow() that suppresses nothing
is reported as `unused-suppression` so stale waivers cannot linger.

Exit status: 0 clean, 1 findings, 2 usage/tool errors.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")

SOURCE_EXTS = (".cc", ".hh", ".h", ".cpp", ".hpp")

# ---------------------------------------------------------------------------
# Rule catalog. `exempt` paths (repo-relative) are the implementation
# sites of the sanctioned alternative itself; everything else needs an
# inline, justified allow().
# ---------------------------------------------------------------------------

RULES = {
    "raw-assert": {
        "desc": "raw assert()/abort()/exit() bypasses COSCALE_CHECK",
        "why": "COSCALE_CHECK reports expression + file:line and "
               "honours PanicBehavior::Throw, so tests can observe "
               "violations; a raw assert/abort kills the process and "
               "is compiled out under NDEBUG.",
        "hint": "use COSCALE_CHECK/COSCALE_DCHECK (check/contract.hh) "
                "or coscale_panic/fatal (common/log.hh)",
        # log.cc implements fatal/panic (the one sanctioned
        # abort/exit); contract.hh + log.hh define the macros whose
        # expansions mention the banned spellings.
        "exempt": ["src/common/log.cc", "src/common/log.hh",
                   "src/check/contract.hh"],
    },
    "legacy-assert": {
        "desc": "coscale_assert is the deprecated spelling of "
                "COSCALE_CHECK",
        "why": "one invariant macro family keeps grep, tooling, and "
               "the suppression story simple.",
        "hint": "spell it COSCALE_CHECK",
        "exempt": ["src/common/log.hh"],  # the definition itself
    },
    "ambient-rng": {
        "desc": "ambient RNG (rand/random_device/...) in simulator "
                "code",
        "why": "every random draw must come from a run-owned seeded "
               "stream (common/rng.hh); ambient RNG breaks the "
               "bit-identical-under---jobs-N contract and faulted-run "
               "reproducibility.",
        "hint": "thread a seeded coscale rng through instead",
        "exempt": [],
    },
    "wall-clock": {
        "desc": "wall-clock time source in simulator code",
        "why": "simulation output must be a pure function of the "
               "request; wall-clock reads leak host time into traces "
               "and golden fixtures. Host-side std::chrono::"
               "steady_clock is allowed for watchdogs/benchmarks "
               "because it is monotonic and never serialized.",
        "hint": "use sim ticks for model time, steady_clock for "
                "host-side-only timing",
        "exempt": [],
    },
    "unordered-iteration": {
        "desc": "iteration over std::unordered_{map,set}",
        "why": "hash-order iteration feeds nondeterministic ordering "
               "into traces, JSONL reports, and metrics — the exact "
               "hazard class the golden fixtures pin. Keyed state "
               "that gets iterated must be std::map/std::set.",
        "hint": "use std::map/std::set, or copy to a sorted vector "
                "before iterating",
        "exempt": [],
    },
    "pointer-map-key": {
        "desc": "pointer-valued key in an associative container",
        "why": "pointer keys order by allocation address, which "
               "varies run to run — iteration and tie-breaks become "
               "nondeterministic even in std::map.",
        "hint": "key by a stable id (index, name, digest) instead",
        "exempt": [],
    },
    "mutable-global": {
        "desc": "mutable namespace-scope variable without atomic or "
                "COSCALE_GUARDED_BY protection",
        "why": "unguarded globals are both a data race (engine "
               "workers) and a run-purity hazard (state bleeding "
               "between requests). The sanctioned forms are "
               "std::atomic, a coscale::Mutex-guarded member with "
               "COSCALE_GUARDED_BY, or const/constexpr.",
        "hint": "make it const/constexpr, std::atomic, or guard it "
                "with a Mutex + COSCALE_GUARDED_BY",
        "exempt": [],
    },
    "missing-field-init": {
        "desc": "scalar struct member without a default initializer",
        "why": "an uninitialized scalar in a config/profile/stats "
               "struct reads indeterminate garbage the first time a "
               "caller forgets one field — nondeterminism that "
               "sanitizers only catch on the path that executes.",
        "hint": "give the member a default member initializer "
                "(e.g. `int n = 0;`)",
        "exempt": [],
    },
    "raw-mutex": {
        "desc": "raw std::mutex/lock/condition_variable instead of "
                "the annotated types",
        "why": "coscale::Mutex/MutexLock/CondVar carry the clang "
               "thread-safety capability annotations; raw std types "
               "are invisible to -Wthread-safety, so guarded state "
               "silently loses its static race checking.",
        "hint": "use coscale::Mutex/MutexLock/CondVar "
                "(common/thread_annotations.hh)",
        "exempt": ["src/common/thread_annotations.hh"],  # the wrapper
    },
    "backend-probe": {
        "desc": "memory-backend probing (openPage bool or backend-enum "
                "comparison) outside memctrl/ and dram/",
        "why": "the pluggable backend (dram/mem_backend.hh) keeps "
               "scheduler/row-policy/standard behaviour behind the "
               "Scheduler and RowPolicyModel interfaces; code that "
               "branches on the selection re-creates the hard-coded "
               "coupling the refactor removed, and the openPage bool "
               "it replaced must not come back.",
        "hint": "pass the MemBackendSel through and let memctrl/dram "
                "resolve behaviour, or add a virtual to the backend "
                "interface",
        # Trailing "/" marks a directory prefix: the backend's own
        # implementation layers legitimately dispatch on the enums.
        "exempt": ["src/memctrl/", "src/dram/"],
    },
    "memctrl-set-frequency-index": {
        "desc": "deleted MemCtrl compat shims setFrequencyIndex()/"
                "setChannelFrequencyIndex()",
        "why": "MemCtrl::setFrequency(ChannelSel, idx, now) is the "
               "single audited entry point for memory-frequency "
               "changes; the per-spelling shims it replaced bypassed "
               "the ChannelSel vocabulary and must not come back.",
        "hint": "call setFrequency(ChannelSel::all()/::one(ch), "
                "idx, now)",
        # Core DVFS has its own (unrelated, still-supported)
        # Core::setFrequencyIndex API.
        "exempt": ["src/cpu/core.hh", "src/cpu/core.cc",
                   "src/sim/system.cc"],
    },
    "policy-knob-mutation": {
        "desc": "direct knob mutation (setFrequency/setPartition/"
                "setWayMask) from policy code",
        "why": "policies decide; they do not actuate. A policy that "
               "pokes Core::setFrequencyIndex, MemCtrl::setFrequency "
               "or Llc::setPartition directly bypasses the runner's "
               "requested-vs-granted reconciliation, the fault "
               "injector's clamps, and the transition-latency "
               "accounting — the knob-apply layer "
               "(System::applyConfig) is the single sanctioned "
               "actuation point.",
        "hint": "return the desired KnobVector/FreqConfig from "
                "Policy::decide() and let System::applyConfig "
                "install it",
        "exempt": [],
        # Scoped: actuators outside policy code (the apply layer,
        # the devices themselves) are legitimate callers.
        "only": ["src/policy/"],
    },
    "epoch-protocol": {
        "desc": "Policy::safeDecide()/observeEpoch() called outside "
                "the EpochDriver",
        "why": "the controller's epoch step (rotation, fault seams, "
               "decision, observation, audits) exists once, in "
               "EpochDriver::step; a second caller of the policy's "
               "decide/observe pair is a second copy of the loop, "
               "and copies drift.",
        "hint": "step an EpochDriver (sim/runner.hh) instead",
        "exempt": ["src/sim/runner.cc"],
    },
    "raw-number-parse": {
        "desc": "C library number parser (atoi/atof/strto*/sto*) "
                "outside common/number_parse.cc",
        "why": "atoi/atof read '2x' as 2 and 'abc' as 0, strtoull "
               "wraps '-5' to 2^64-5, and std::stod throws on junk, "
               "so a bad value from outside the program runs the "
               "wrong experiment or aborts. Every such number goes "
               "through the one strict, full-token parser and fails "
               "as a structured error instead.",
        "hint": "use coscale::parseDouble/parseU64 "
                "(common/number_parse.hh) or an option-table row "
                "(exp/options.hh)",
        "exempt": ["src/common/number_parse.cc"],  # the parser itself
    },
    # Meta-rules about the suppression mechanism itself.
    "bad-suppression": {
        "desc": "coscale-lint allow() without a justification",
        "why": "a waiver with no recorded reason cannot be audited "
               "or retired.",
        "hint": "write `// coscale-lint: allow(<rule>) -- <reason>`",
        "exempt": [],
    },
    "unused-suppression": {
        "desc": "coscale-lint allow() that suppresses nothing",
        "why": "stale waivers hide future regressions of the same "
               "rule at that site.",
        "hint": "delete the allow() comment",
        "exempt": [],
    },
}

ALLOW_RE = re.compile(
    r"coscale-lint:\s*allow\(\s*([\w-]+)\s*\)\s*(?:(?:--|:)\s*(.*?))?\s*$")

# Scalar types whose uninitialized reads are the missing-field-init
# hazard (includes the repo's own tick/address typedefs).
SCALAR_TYPES = (
    r"bool|char|short|int|long|float|double|unsigned|signed|"
    r"(?:std\s*::\s*)?size_t|(?:std\s*::\s*)?ptrdiff_t|"
    r"(?:std\s*::\s*)?u?int(?:8|16|32|64|ptr)_t|"
    r"Tick|Addr|BlockAddr|CoreId|ChannelId"
)
SCALAR_RE = re.compile(
    r"^(?:(?:static|constexpr|const|inline|mutable|volatile)\s+)*"
    r"(?P<type>(?:(?:unsigned|signed|long|short)\s+)*(?:%s))\s+"
    r"(?P<names>\w+(?:\s*\[[^\]]*\])?(?:\s*,\s*\w+(?:\s*\[[^\]]*\])?)*)"
    r"\s*;\s*$" % SCALAR_TYPES)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: error: [%s] %s" % (
            self.path, self.line, self.rule, self.message)


# ---------------------------------------------------------------------------
# Lexing: blank out comments and string/char literals so rule regexes
# only ever see code, while keeping line numbers and comment text (for
# the suppression directives).
# ---------------------------------------------------------------------------

def lex(text):
    """Return (code_lines, comment_lines): per-line code with
    comments/literals blanked, and per-line comment text."""
    n = len(text)
    code = []
    comments = []
    cur_code = []
    cur_comment = []
    i = 0
    state = "code"  # code | line_comment | block_comment | str | chr | raw
    raw_delim = ""

    def endline():
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
        cur_code.clear()
        cur_comment.clear()

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line_comment":
                state = "code"
            endline()
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^(\s\\]{0,16})\(', text[i:])
                if m:
                    state = "raw"
                    raw_delim = ")%s\"" % m.group(1)
                    i += m.end()
                    cur_code.append('""')
                    continue
                state = "str"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                cur_comment.append(c)
                i += 1
            continue
        if state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                cur_code.append('"')
                i += len(raw_delim)
            else:
                i += 1
            continue
        # str / chr
        if c == "\\":
            i += 2
            continue
        if (state == "str" and c == '"') or (state == "chr" and c == "'"):
            cur_code.append(c)
            state = "code"
        i += 1
    endline()
    return code, comments


# ---------------------------------------------------------------------------
# Simple pattern rules.
# ---------------------------------------------------------------------------

BANNED_CALL_RULES = [
    ("raw-assert",
     re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?"
                r"(assert|abort|exit|_Exit|quick_exit)\s*\("),
     "raw '%s(' call"),
    ("legacy-assert",
     re.compile(r"(?<![\w.>:])(coscale_assert)\s*\("),
     "'%s(' is deprecated"),
    ("ambient-rng",
     re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?"
                r"(rand|srand|rand_r|drand48|mrand48|lrand48)\s*\("),
     "ambient RNG call '%s('"),
    ("wall-clock",
     re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?"
                r"(time|clock|gettimeofday|clock_gettime|ftime|"
                r"localtime|localtime_r|gmtime|gmtime_r|mktime)\s*\("),
     "wall-clock call '%s('"),
    ("memctrl-set-frequency-index",
     re.compile(r"\b(setFrequencyIndex|setChannelFrequencyIndex)"
                r"\s*\("),
     "'%s(' is a deleted MemCtrl compat shim"),
    ("policy-knob-mutation",
     re.compile(r"\b(setFrequency|setPartition|setWayMask|"
                r"setShadowTracking)\s*\("),
     "'%s(' actuates a knob directly from policy code"),
    ("epoch-protocol",
     re.compile(r"(?:\.|->)\s*(safeDecide|observeEpoch)\s*\("),
     "'%s(' drives the policy outside the EpochDriver"),
    ("raw-number-parse",
     re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?"
                r"(ato(?:i|l|ll|f)|strto(?:d|f|ld|l|ll|ul|ull|imax|umax)|"
                r"sto(?:i|l|ll|ul|ull|f|d|ld))\s*\("),
     "'%s(' parses a number without the strict parser"),
]

BANNED_NAME_RULES = [
    ("ambient-rng",
     re.compile(r"\b(?:std\s*::\s*)?(random_device)\b"),
     "'std::%s' is ambient entropy"),
    ("wall-clock",
     re.compile(r"\b(?:std\s*::\s*)?(?:chrono\s*::\s*)?"
                r"(system_clock|high_resolution_clock)\b"),
     "'%s' is (or may alias) the wall clock"),
    ("raw-mutex",
     re.compile(r"\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|"
                r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
                r"lock_guard|unique_lock|scoped_lock|shared_lock|"
                r"condition_variable|condition_variable_any)\b"),
     "raw 'std::%s'"),
    ("backend-probe",
     re.compile(r"\b(openPage)\b"),
     "'%s' resurrects the deleted row-policy bool"),
    ("backend-probe",
     re.compile(r"(?:==|!=)\s*(?:coscale\s*::\s*)?"
                r"(MemSched|RowPolicy|DramStandard)\s*::"),
     "comparison against backend enum '%s'"),
    ("backend-probe",
     re.compile(r"\b(MemSched|RowPolicy|DramStandard)\s*::\s*\w+\s*"
                r"(?:==|!=)"),
     "comparison against backend enum '%s'"),
]

PTR_KEY_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unordered_)?(?:map|multimap|set|multiset)\s*"
    r"<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?(?:\s+const)?\s*\*")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_VAR_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*"
    r"<[^;{()]*>\s+(?:[&*]\s*)?(\w+)\s*(?:=|;|\{|,|\))")


def check_patterns(path, code_lines, findings):
    for lineno, line in enumerate(code_lines, 1):
        for rule, rx, msg in BANNED_CALL_RULES:
            for m in rx.finditer(line):
                findings.append(Finding(path, lineno, rule,
                                        (msg % m.group(1)) + "; "
                                        + RULES[rule]["hint"]))
        for rule, rx, msg in BANNED_NAME_RULES:
            for m in rx.finditer(line):
                findings.append(Finding(path, lineno, rule,
                                        (msg % m.group(1)) + "; "
                                        + RULES[rule]["hint"]))
        for m in PTR_KEY_RE.finditer(line):
            findings.append(Finding(
                path, lineno, "pointer-map-key",
                "pointer-valued key in '%s...'; %s"
                % (m.group(0), RULES["pointer-map-key"]["hint"])))


def check_unordered_iteration(path, code_lines, findings):
    """Flag range-for / .begin() iteration over a variable declared in
    this file as an unordered container."""
    names = set()
    for line in code_lines:
        for m in UNORDERED_VAR_RE.finditer(line):
            names.add(m.group(1))
    if not names:
        return
    alt = "|".join(re.escape(x) for x in sorted(names))
    range_re = re.compile(r"for\s*\([^;)]*:\s*&?\s*(?:\w+(?:\.|->))?"
                          r"(%s)\s*\)" % alt)
    # begin() marks the start of an iteration; bare end() is allowed
    # because `it != m.end()` after find() is a lookup, not a walk.
    iter_re = re.compile(r"\b(%s)\s*(?:\.|->)\s*c?r?begin\s*\(" % alt)
    for lineno, line in enumerate(code_lines, 1):
        for m in list(range_re.finditer(line)) + list(iter_re.finditer(line)):
            findings.append(Finding(
                path, lineno, "unordered-iteration",
                "iterating unordered container '%s' yields hash order; "
                "%s" % (m.group(1),
                        RULES["unordered-iteration"]["hint"])))


# ---------------------------------------------------------------------------
# mutable-global: a brace-scope walk that only inspects statements at
# namespace scope in .cc files.
# ---------------------------------------------------------------------------

GLOBAL_EXEMPT_TYPE_RE = re.compile(
    r"^(?:static\s+|inline\s+)*(?:"
    r"(?:const|constexpr|constinit)\b"
    r"|(?:std\s*::\s*)?atomic\b"
    r"|(?:coscale\s*::\s*)?(?:common\s*::\s*)?Mutex\b"
    r"|(?:std\s*::\s*)?once_flag\b"
    r")")

VAR_DEF_RE = re.compile(
    r"^(?:static\s+|inline\s+|mutable\s+)*"
    r"[\w:]+(?:\s*<[^;{}]*>)?(?:\s*[&*])*\s+\w+(?:\s*\[[^\]]*\])?"
    r"\s*(?:=.*)?$", re.S)

NON_VAR_KEYWORDS = re.compile(
    r"^\s*(?:using|typedef|class|struct|enum|union|template|namespace|"
    r"extern|friend|static_assert|public|private|protected|#)")


def check_mutable_globals(path, code_lines, findings):
    if not path.endswith(".cc") and not path.endswith(".cpp"):
        return
    text = "\n".join(code_lines)
    # Scope stack entries: "ns" (namespace/extern-C) or "other".
    stack = []
    stmt = []
    stmt_line = 1
    line = 1
    i = 0
    n = len(text)

    def at_ns_scope():
        return all(kind == "ns" for kind in stack)

    def classify_opener(buf):
        head = "".join(buf).strip()
        # The token run immediately before '{' decides the scope kind.
        if re.search(r"\bnamespace\b(?:\s+[\w:]+)?\s*$", head):
            return "ns"
        if re.search(r'\bextern\s*$', head):
            return "ns"
        return "other"

    def flush(terminator):
        s = "".join(stmt).strip()
        stmt.clear()
        if not s or not at_ns_scope():
            return
        if NON_VAR_KEYWORDS.match(s):
            return
        guarded = "COSCALE_GUARDED_BY" in s or "COSCALE_PT_GUARDED_BY" in s
        s_clean = re.sub(r"\bCOSCALE_\w+\s*\([^()]*\)", "", s)
        s_clean = re.sub(r"__attribute__\s*\(\(.*?\)\)", "", s_clean).strip()
        if terminator == "}":  # function/class body ended the statement
            return
        if "(" in s_clean:  # function decl/def or ctor-style init
            return
        if not VAR_DEF_RE.match(s_clean):
            return
        if guarded or GLOBAL_EXEMPT_TYPE_RE.match(s_clean):
            return
        findings.append(Finding(
            path, stmt_line, "mutable-global",
            "mutable namespace-scope variable '%s...'; %s"
            % (s_clean.split("=")[0].strip()[:60],
               RULES["mutable-global"]["hint"])))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            if not "".join(stmt).strip():
                stmt_line = line
            stmt.append(" ")
        elif c == "{":
            stack.append(classify_opener(stmt))
            if stack[-1] == "ns":
                stmt.clear()
                stmt_line = line
            else:
                # Skip the body wholesale; statements inside non-ns
                # scopes are function/class internals.
                depth = 1
                i += 1
                while i < n and depth:
                    if text[i] == "{":
                        depth += 1
                    elif text[i] == "}":
                        depth -= 1
                    elif text[i] == "\n":
                        line += 1
                    i += 1
                stack.pop()
                # Peek: `};` (class/init-list) keeps the statement
                # alive until the semicolon; a bare `}` (function)
                # terminates it.
                j = i
                while j < n and text[j] in " \t\n":
                    j += 1
                if j < n and text[j] == ";":
                    stmt.append(" {} ")
                else:
                    flush("}")
                    stmt_line = line
                continue
        elif c == "}":
            if stack:
                stack.pop()
            stmt.clear()
            stmt_line = line
        elif c == ";":
            flush(";")
            stmt_line = line
        else:
            stmt.append(c)
        i += 1


# ---------------------------------------------------------------------------
# missing-field-init: scalar members without default initializers in
# header structs (classes manage invariants in ctors; structs here are
# aggregates filled by designated/partial init on hot paths).
# ---------------------------------------------------------------------------

STRUCT_OPEN_RE = re.compile(
    r"\bstruct\s+(?:COSCALE_\w+(?:\([^)]*\))?\s+)?(\w+)\s*"
    r"(?::[^{;]*)?\{")


def check_missing_field_init(path, code_lines, findings):
    if not path.endswith((".hh", ".h", ".hpp")):
        return
    text = "\n".join(code_lines)
    line_of = []  # char offset -> line precomputed lazily
    offset = 0
    for lineno, l in enumerate(code_lines, 1):
        line_of.append((offset, lineno))
        offset += len(l) + 1

    def lineno_at(pos):
        lo, hi = 0, len(line_of) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_of[mid][0] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return line_of[lo][1]

    for m in STRUCT_OPEN_RE.finditer(text):
        name = m.group(1)
        # Extract the body at depth 1.
        depth = 1
        i = m.end()
        start = i
        while i < len(text) and depth:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        body = text[start:i - 1]
        # Skip structs with user-declared constructors: their members
        # may be initialized there, beyond a textual linter's sight.
        if re.search(r"\b%s\s*\(" % re.escape(name), body):
            continue
        # Walk depth-1 member statements only.
        depth = 0
        stmt_start = 0
        for j, c in enumerate(body):
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    stmt_start = j + 1
            elif c == ";" and depth == 0:
                stmt = body[stmt_start:j + 1].strip()
                stmt_start = j + 1
                sm = SCALAR_RE.match(stmt)
                if not sm:
                    continue
                if re.match(r"^(static|constexpr)\b", stmt):
                    continue
                findings.append(Finding(
                    path, lineno_at(start + j),
                    "missing-field-init",
                    "scalar member '%s %s' of struct %s has no default "
                    "initializer; %s"
                    % (sm.group("type"), sm.group("names"), name,
                       RULES["missing-field-init"]["hint"])))


# ---------------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------------

def apply_suppressions(path, comment_lines, findings):
    allows = {}   # lineno -> (rule, justification, used)
    out = []
    for lineno, comment in enumerate(comment_lines, 1):
        m = ALLOW_RE.search(comment)
        if not m:
            continue
        rule, why = m.group(1), (m.group(2) or "").strip()
        if rule not in RULES:
            out.append(Finding(path, lineno, "bad-suppression",
                               "allow(%s) names an unknown rule" % rule))
            continue
        if not why:
            out.append(Finding(
                path, lineno, "bad-suppression",
                "allow(%s) needs a justification: "
                "`// coscale-lint: allow(%s) -- <reason>`"
                % (rule, rule)))
            continue
        allows[lineno] = [rule, why, False]

    for f in findings:
        suppressed = False
        for at in (f.line, f.line - 1):
            a = allows.get(at)
            if a and a[0] == f.rule:
                a[2] = True
                suppressed = True
                break
        if not suppressed:
            out.append(f)

    for lineno, (rule, _why, used) in sorted(allows.items()):
        if not used:
            out.append(Finding(
                path, lineno, "unused-suppression",
                "allow(%s) suppresses nothing; %s"
                % (rule, RULES["unused-suppression"]["hint"])))
    return out


# ---------------------------------------------------------------------------
# clang-query integration (optional, AST-accurate second opinion).
# Matcher files: tools/lint/matchers/<rule-id>.cql
# ---------------------------------------------------------------------------

MATCHER_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "matchers")
QUERY_LOC_RE = re.compile(r"^(/[^:]+|[^:]+):(\d+):\d+:")


def find_clang_query():
    for cand in ("clang-query", "clang-query-18", "clang-query-17",
                 "clang-query-16", "clang-query-15", "clang-query-14"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def run_clang_query(binary, build_dir, files):
    """Run every matcher file over the TUs; map matches to findings."""
    findings = []
    if not os.path.isdir(MATCHER_DIR):
        return findings
    tus = [f for f in files if f.endswith((".cc", ".cpp"))]
    if not tus:
        return findings
    for mf in sorted(os.listdir(MATCHER_DIR)):
        if not mf.endswith(".cql"):
            continue
        rule = mf[:-len(".cql")]
        if rule not in RULES:
            continue
        cmd = [binary, "-p", build_dir, "-f",
               os.path.join(MATCHER_DIR, mf)] + tus
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write("coscale-lint: clang-query failed: %s\n" % e)
            return findings
        for line in proc.stdout.splitlines():
            m = QUERY_LOC_RE.match(line.strip())
            if m and "binds here" in line:
                path = os.path.relpath(m.group(1), REPO_ROOT) \
                    if os.path.isabs(m.group(1)) else m.group(1)
                findings.append(Finding(
                    path, int(m.group(2)), rule,
                    "%s (clang-query); %s"
                    % (RULES[rule]["desc"], RULES[rule]["hint"])))
    return findings


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def is_exempt(rel, rule):
    """Exempt entries ending in '/' are directory prefixes; the rest
    are exact repo-relative paths. Rules with an `only` list apply
    solely under those directory prefixes (plus the rule's own
    fixture directory, so --self-test can exercise them without
    tripping scoped rules on other rules' fixtures)."""
    only = RULES[rule].get("only")
    if only and not rel.startswith("tools/lint/fixtures/%s/" % rule) \
            and not any(rel.startswith(p) for p in only):
        return True
    for ex in RULES[rule]["exempt"]:
        if ex.endswith("/"):
            if rel.startswith(ex):
                return True
        elif rel == ex:
            return True
    return False


def lint_file(path, rel, enabled):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    code_lines, comment_lines = lex(text)
    raw = []
    check_patterns(rel, code_lines, raw)
    check_unordered_iteration(rel, code_lines, raw)
    check_mutable_globals(rel, code_lines, raw)
    check_missing_field_init(rel, code_lines, raw)
    raw = [f for f in raw
           if f.rule in enabled and not is_exempt(rel, f.rule)]
    return apply_suppressions(rel, comment_lines, raw)


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
            continue
        for dirpath, _dirs, names in os.walk(p):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def self_test():
    """Every rule must fire on its positive fixture and stay silent on
    its negative twin."""
    failures = []
    rules_seen = set()
    for rule in sorted(RULES):
        rdir = os.path.join(FIXTURE_DIR, rule)
        pos = os.path.join(rdir, "positive.cc")
        neg = os.path.join(rdir, "negative.cc")
        # Header-shaped rules use .hh fixtures.
        if not os.path.exists(pos):
            pos = os.path.join(rdir, "positive.hh")
            neg = os.path.join(rdir, "negative.hh")
        if not (os.path.exists(pos) and os.path.exists(neg)):
            failures.append("%s: fixture pair missing under %s"
                            % (rule, rdir))
            continue
        rules_seen.add(rule)
        # All rules stay enabled so a fixture that trips a *different*
        # rule (or leaves a stale suppression) is caught too.
        pf = lint_file(pos, os.path.relpath(pos, REPO_ROOT), set(RULES))
        nf = lint_file(neg, os.path.relpath(neg, REPO_ROOT), set(RULES))
        fired = [f for f in pf if f.rule == rule]
        if not fired:
            failures.append("%s: did NOT fire on %s" % (rule, pos))
        stray = [f for f in pf if f.rule != rule]
        if stray:
            failures.append("%s: positive fixture raised foreign "
                            "findings: %s" % (rule, stray[0]))
        if nf:
            failures.append("%s: fired on negative fixture %s: %s"
                            % (rule, neg, nf[0]))
    for rule, ok in sorted((r, r in rules_seen) for r in RULES):
        status = "ok" if ok and not any(x.startswith(rule + ":")
                                        for x in failures) else "FAIL"
        print("  %-20s %s" % (rule, status))
    if failures:
        print("\nself-test failures:")
        for f in failures:
            print("  " + f)
        return 1
    print("self-test: %d rules, all firing/silent as expected."
          % len(rules_seen))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="coscale_lint.py",
        description="CoScale determinism & correctness invariant "
                    "linter")
    ap.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: src/)")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir with compile_commands.json; "
                         "enables the clang-query AST rules when "
                         "clang-query is installed")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule subset")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the fixture corpus under "
                         "tools/lint/fixtures/")
    ap.add_argument("--require-tools", action="store_true",
                    help="fail (exit 2) if clang-query was requested "
                         "via -p but is not installed")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            r = RULES[rule]
            print("%-20s %s" % (rule, r["desc"]))
            print("%-20s   why: %s" % ("", r["why"]))
            print("%-20s   fix: %s" % ("", r["hint"]))
        return 0

    if args.self_test:
        return self_test()

    enabled = set(RULES)
    if args.rules:
        enabled = set(args.rules.split(","))
        unknown = enabled - set(RULES)
        if unknown:
            sys.stderr.write("coscale-lint: unknown rule(s): %s\n"
                             % ", ".join(sorted(unknown)))
            return 2

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    files = collect_files(paths)
    if not files:
        sys.stderr.write("coscale-lint: no source files under %s\n"
                         % ", ".join(paths))
        return 2

    findings = []
    for path in files:
        rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        findings.extend(lint_file(path, rel, enabled))

    if args.build_dir:
        db = os.path.join(args.build_dir, "compile_commands.json")
        if not os.path.exists(db):
            sys.stderr.write("coscale-lint: %s missing; run cmake "
                             "first\n" % db)
            return 2
        binary = find_clang_query()
        if binary:
            relset = {os.path.relpath(os.path.abspath(p), REPO_ROOT)
                      for p in files}
            ast = [f for f in run_clang_query(binary, args.build_dir,
                                              files)
                   if f.rule in enabled and f.path in relset
                   and not is_exempt(f.path, f.rule)]
            # Route AST findings through the same inline-suppression
            # machinery as the textual ones.
            by_path = {}
            for f in ast:
                by_path.setdefault(f.path, []).append(f)
            for rel, fs in by_path.items():
                with open(os.path.join(REPO_ROOT, rel),
                          encoding="utf-8", errors="replace") as fh:
                    _code, comment_lines = lex(fh.read())
                findings.extend(
                    f for f in apply_suppressions(rel, comment_lines, fs)
                    if f.rule != "unused-suppression")
        elif args.require_tools:
            sys.stderr.write("coscale-lint: clang-query not found but "
                             "--require-tools was given\n")
            return 2
        else:
            sys.stderr.write("coscale-lint: clang-query not found; "
                             "AST rules skipped (textual rules still "
                             "ran)\n")

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    if args.json:
        print(json.dumps([vars(f) for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
        if findings:
            print("coscale-lint: %d finding(s). Suppress a justified "
                  "exception with `// coscale-lint: allow(<rule>) -- "
                  "<reason>`." % len(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
