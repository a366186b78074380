"""wmsn-analyze rule pack — R1-R6 determinism rules + absorbed lint rules.

Each rule documents the hazard and why it breaks the repo's byte-identity
contract (output byte-identical across `--threads`, `--resume`, and worker
crashes). The DESIGN.md "Correctness tooling" table mirrors this registry;
`--list-rules` prints it.
"""

import os
import re

from engine import Finding, build_reachability

DRAW_METHODS = ("next", "uniformInt", "uniform01", "uniform", "chance",
                "normal", "exponential", "shuffle", "pick", "index", "fork")


class Rule:
    __slots__ = ("id", "group", "description", "hazard", "aliases",
                 "inline_ok", "check")

    def __init__(self, id, group, description, hazard, check,
                 aliases=(), inline_ok=False):
        self.id = id
        self.group = group
        self.description = description
        self.hazard = hazard
        self.aliases = aliases
        # inline_ok: legacy wmsn-lint rules keep honouring the historical
        # `// wmsn-lint: allow(<rule>)` comment. The determinism rules
        # R1-R6 accept inline allows ONLY under a grandfathered legacy
        # alias; their own ids suppress exclusively via the ledger.
        self.inline_ok = inline_ok
        self.check = check


class TreeContext:
    """Cross-file state shared by the per-file checks."""

    def __init__(self, files, manifest):
        self.manifest = manifest
        self.by_rel = {f.rel: f for f in files}
        self.sensitive = build_reachability(files, manifest)
        self.unordered_names = {f.rel: collect_unordered_names(f)
                                for f in files}
        self.float_names = {f.rel: collect_float_names(f) for f in files}
        self.rng_names = {f.rel: collect_rng_names(f) for f in files}
        self._closure_cache = {}

    def include_closure(self, rel):
        """rel + every repo file it transitively includes (plus hpp/cpp
        pairs) — the set whose declarations are visible to rel."""
        if rel in self._closure_cache:
            return self._closure_cache[rel]
        seen = set()
        frontier = [rel]
        while frontier:
            r = frontier.pop()
            if r in seen or r not in self.by_rel:
                continue
            seen.add(r)
            f = self.by_rel[r]
            for inc in f.includes:
                t = self._resolve(r, inc)
                if t:
                    frontier.append(t)
            stem = re.sub(r"\.(hpp|h|cpp)$", "", r)
            for ext in (".hpp", ".h"):
                if stem + ext in self.by_rel:
                    frontier.append(stem + ext)
        self._closure_cache[rel] = seen
        return seen

    def _resolve(self, rel, inc):
        inc = inc.replace("\\", "/")
        cand = os.path.normpath(
            os.path.join(os.path.dirname(rel), inc)).replace(os.sep, "/")
        if cand in self.by_rel:
            return cand
        if inc in self.by_rel:
            return inc
        if "src/" + inc in self.by_rel:
            return "src/" + inc
        return None

    def visible_names(self, rel, table):
        names = set()
        for r in self.include_closure(rel):
            names |= table.get(r, set())
        return names


# ---------------------------------------------------------------------------
# Declaration collectors
# ---------------------------------------------------------------------------

_UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
_IDENT_AFTER = re.compile(r"\s*(?:&\s*)?([A-Za-z_]\w*)\s*[;={(,)]")


def _joined(f):
    return "\n".join(f.code_lines)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _skip_template_args(text, pos):
    """pos points at '<'; return index just past the matching '>'."""
    depth = 0
    i = pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return i  # malformed / not a template after all
        i += 1
    return n


def collect_unordered_names(f):
    """Identifiers declared with std::unordered_{map,set,...} type."""
    text = _joined(f)
    names = set()
    for m in _UNORDERED_DECL.finditer(text):
        lt = text.index("<", m.start())
        end = _skip_template_args(text, lt)
        im = _IDENT_AFTER.match(text, end)
        if im:
            names.add(im.group(1))
    return names


_FLOAT_DECL = re.compile(
    r"(?:^|[;{}(,]|\bmutable\s|\bstatic\s|\bconstexpr\s)\s*"
    r"(?:double|float)\s+([A-Za-z_]\w*)\s*[;={]")


def collect_float_names(f):
    """Identifiers declared as raw double/float (accumulator candidates)."""
    return {m.group(1) for m in _FLOAT_DECL.finditer(_joined(f))}


_RNG_DECL = re.compile(
    r"\b(?:wmsn\s*::\s*)?(?:util\s*::\s*)?(?:Rng|SplitMix64)\s*[&*]?\s+"
    r"([A-Za-z_]\w*)\s*[;=({,)]")


def collect_rng_names(f):
    """Identifiers declared with the deterministic Rng / SplitMix64 type
    (locals, members, parameters)."""
    return {m.group(1) for m in _RNG_DECL.finditer(_joined(f))}


# ---------------------------------------------------------------------------
# R1 — unordered-container iteration on output-reachable paths
# ---------------------------------------------------------------------------

_RANGE_FOR = re.compile(
    r"\bfor\s*\([^;()]*?:\s*(?:this\s*->\s*)?((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*"
    r"[A-Za-z_]\w*)\s*\)")
_BEGIN_CALL = re.compile(
    r"\b(?:this\s*->\s*)?((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*[A-Za-z_]\w*)\s*"
    r"(?:\.|->)\s*c?begin\s*\(")


def check_r1(f, ctx, emit):
    if not ctx.manifest.all_classes and f.rel not in ctx.sensitive:
        return
    names = ctx.visible_names(f.rel, ctx.unordered_names)
    if not names:
        return
    for i, line in enumerate(f.code_lines, start=1):
        hits = []
        for m in _RANGE_FOR.finditer(line):
            hits.append((m.group(1), "range-for over"))
        for m in _BEGIN_CALL.finditer(line):
            hits.append((m.group(1), "iterator walk of"))
        for expr, how in hits:
            leaf = re.split(r"\.|->", expr.replace(" ", ""))[-1]
            if leaf in names:
                emit(Finding(
                    "R1-unordered-iteration", f.rel, i,
                    f"{how} std::unordered container '{leaf}' in an "
                    "output-reachable file: hash-bucket order is not part "
                    "of the determinism contract (it shifts with load "
                    "factor, libstdc++ version and insert history). "
                    "Iterate a sorted key snapshot, or switch the "
                    "container to std::map/std::vector"))


# ---------------------------------------------------------------------------
# R2 — pointer-keyed ordering / address hashing
# ---------------------------------------------------------------------------

_PTR_KEY_ORDERED = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[\w:]+(?:\s*<[^<>]*>)?\s*\*")
_PTR_KEY_UNORDERED = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[\w:]+(?:\s*<[^<>]*>)?\s*\*")
_PTR_HASH = re.compile(r"\bstd\s*::\s*hash\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>")
_PTR_LESS = re.compile(r"\bstd\s*::\s*less\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>")


def check_r2(f, ctx, emit):
    text = _joined(f)
    for pat, what in ((_PTR_KEY_ORDERED, "pointer-keyed std::map/set"),
                      (_PTR_KEY_UNORDERED,
                       "pointer-keyed std::unordered_map/set"),
                      (_PTR_HASH, "std::hash over a pointer type"),
                      (_PTR_LESS, "std::less over a pointer type")):
        for m in pat.finditer(text):
            emit(Finding(
                "R2-pointer-keyed-order", f.rel, _line_of(text, m.start()),
                f"{what}: ordering/hashing by heap address varies with "
                "allocator state, ASLR and malloc history, so any walk or "
                "tie-break over it diverges across runs. Key by a stable "
                "id (NodeId, uid, index) instead"))


# ---------------------------------------------------------------------------
# R3 — non-deterministic sources (wall clock, ambient RNG, environment)
# ---------------------------------------------------------------------------

_R3_TOKENS = [
    (re.compile(r"\bstd\s*::\s*rand\b|(?<![\w.:])rand\s*\(\s*\)"),
     "std::rand", "facade"),
    (re.compile(r"\bsrand\s*\("), "srand", "facade"),
    (re.compile(r"\brandom_device\b"), "std::random_device", "facade"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937", "facade"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr)", "facade"),
    (re.compile(r"\bsystem_clock\b"), "wall-clock system_clock", "never"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "high_resolution_clock", "never"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock", "telemetry"),
    (re.compile(r"\b(?:std\s*::\s*)?getenv\s*\("), "getenv", "never"),
]
_R3_BANNED_INCLUDE = re.compile(r'#\s*include\s*<(random|ctime)>')


def check_r3(f, ctx, emit):
    facade = ctx.manifest.is_rng_facade(f.rel)
    telemetry = ctx.manifest.is_clock_telemetry(f.rel)
    for i, line in enumerate(f.code_lines, start=1):
        for pat, label, scope in _R3_TOKENS:
            if not pat.search(line):
                continue
            if scope == "facade" and facade:
                continue
            if scope == "telemetry" and (telemetry or facade):
                continue
            if scope == "telemetry":
                msg = (f"{label} outside the whitelisted telemetry files "
                       "(tools/analyze/manifest.toml [whitelist]): a clock "
                       "read that feeds simulation state or output breaks "
                       "replay; telemetry belongs in obs::ResourceTelemetry")
            elif scope == "facade":
                msg = (f"{label} breaks deterministic replay; all "
                       "simulation randomness flows through wmsn::Rng "
                       "(src/util/random.hpp)")
            else:
                msg = (f"{label}: ambient process state (wall clock, "
                       "environment) leaking into a run makes its bytes "
                       "unreproducible across hosts and reruns")
            emit(Finding("R3-nondet-source", f.rel, i, msg))
        if not facade and _R3_BANNED_INCLUDE.search(line):
            emit(Finding(
                "R3-nondet-source", f.rel, i,
                "<random>/<ctime> only inside src/util/random.* — the "
                "deterministic RNG facade owns the only legitimate use"))


# ---------------------------------------------------------------------------
# R4 — RNG draw-count divergence in conditionals
# ---------------------------------------------------------------------------

_DRAW_CALL = re.compile(
    r"\b([A-Za-z_]\w*)\s*(\(\s*\))?\s*(?:\.|->)\s*(" +
    "|".join(DRAW_METHODS) + r")\s*\(")
_CTRL_OPEN = re.compile(r"\b(if|while|for)\s*\(")


def _same_line_conditional(line, pos):
    """Textual check for conditional constructs the scope tracker's
    line-start snapshot cannot see: same-line if/braceless bodies,
    short-circuit operands, and ternaries."""
    stmt = line[:pos].rsplit(";", 1)[-1]
    last = None
    for m in _CTRL_OPEN.finditer(stmt):
        last = m
    if last is not None:
        after = stmt[last.end() - 1:]
        depth = 0
        closed_at = None
        for j, c in enumerate(after):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    closed_at = j
                    break
        if closed_at is not None:
            # Draw sits in the same-line body. An `if` body is conditional;
            # a for/while body is a LOOP body, which R4 excludes by design
            # (fixed-trip loops draw a fixed count).
            return last.group(1) == "if"
        # Draw inside the condition: conditional only when short-circuited.
        return bool(re.search(r"&&|\|\|", after))
    if re.search(r"&&|\|\|", stmt):
        return True  # short-circuit operand: `ok = alive && rng.chance(p)`
    if "?" in stmt:
        return True  # ternary arm (or condition tail — annotate either way)
    return False


def check_r4(f, ctx, emit):
    # The RNG facade is exempt: it DEFINES the draw-stream semantics
    # (e.g. the Marsaglia spare-normal cache is a documented part of the
    # stream contract), so "conditional draw" is its job description.
    if ctx.manifest.is_rng_facade(f.rel):
        return
    rng_names = ctx.visible_names(f.rel, ctx.rng_names)
    for i, line in enumerate(f.code_lines, start=1):
        for m in _DRAW_CALL.finditer(line):
            recv = m.group(1)
            if "rng" not in recv.lower() and recv not in rng_names:
                continue
            info = f.info(i)
            conditional = (info.conditional_header is not None or
                           _same_line_conditional(line, m.start()))
            if not conditional:
                continue
            if f.fixed_draws_at(i):
                continue
            emit(Finding(
                "R4-rng-draw-divergence", f.rel, i,
                f"'{recv}.{m.group(3)}(...)' draws inside a conditional: "
                "if the branch predicate ever depends on schedule, timing "
                "or telemetry, every later draw in the stream shifts and "
                "the run's bytes diverge. Verify the predicate is a pure "
                "function of simulation state and annotate "
                "`// wmsn:fixed-draws` (on the draw, its conditional "
                "header, or the function header), or hoist the draw out "
                "of the branch"))


# ---------------------------------------------------------------------------
# R5 — floating-point reductions in kernel-parallel files
# ---------------------------------------------------------------------------

_COMPOUND = re.compile(r"\b([A-Za-z_]\w*)\s*[+\-]=")


def check_r5(f, ctx, emit):
    if not ctx.manifest.is_parallel(f.rel):
        return
    names = ctx.visible_names(f.rel, ctx.float_names)
    if not names:
        return
    for i, line in enumerate(f.code_lines, start=1):
        for m in _COMPOUND.finditer(line):
            if m.group(1) not in names:
                continue
            emit(Finding(
                "R5-float-reduction", f.rel, i,
                f"floating-point accumulation into '{m.group(1)}' in a "
                "file the kernel parallelizes (manifest class 'parallel'): "
                "fp addition is not associative, so any future reordering "
                "of this reduction changes bytes. Keep the fold in a "
                "fixed (id-indexed) order, or suppress with a "
                "justification that the accumulator stays per-node-serial"))


# ---------------------------------------------------------------------------
# R6 — WMSN_TRACE / WMSN_PERF / WMSN_INVARIANT macro discipline
# ---------------------------------------------------------------------------

_TRACE_EXEMPT = re.compile(r"^(src/obs/|tests/)")
_TRACE_CALL = re.compile(r"\bemitSpan\s*\(")
_PERF_EXEMPT = re.compile(r"^(src/obs/|tests/)")
_PERF_CALL = re.compile(
    r"\badd\s*\(\s*(?:::\s*)?(?:wmsn\s*::\s*)?(?:obs\s*::\s*)?PerfCounter\b")
_INVARIANT_EXEMPT = re.compile(r"^src/util/require\.hpp$")
_INVARIANT_CALL = re.compile(r"\bWMSN_INVARIANT(?:_MSG)?\s*\(")
_SIDE_EFFECT = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?!=)|"
    r"\b\w+\s*(?:\.|->)\s*(?:" + "|".join(DRAW_METHODS) + r")\s*\(")


def _macro_arg(text, open_paren):
    """First macro argument (up to the top-level ',' or the closing ')')."""
    depth = 0
    out = []
    for i in range(open_paren, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
            if depth == 1:
                continue
        elif c == ")":
            depth -= 1
            if depth == 0:
                break
        elif c == "," and depth == 1:
            break
        if depth >= 1:
            out.append(c)
    return "".join(out)


def check_r6(f, ctx, emit):
    # Trace/perf primitives must ride their null-guarding macros.
    if not _TRACE_EXEMPT.search(f.rel):
        for i, line in enumerate(f.code_lines, start=1):
            if _TRACE_CALL.search(line):
                emit(Finding(
                    "R6-macro-discipline", f.rel, i,
                    "direct emitSpan() outside src/obs/ bypasses "
                    "the WMSN_TRACE null-tracer guard and the "
                    "disabled-tracing zero-cost contract "
                    "(src/obs/packet_trace.hpp)"))
    if not _PERF_EXEMPT.search(f.rel):
        for i, line in enumerate(f.code_lines, start=1):
            if _PERF_CALL.search(line):
                emit(Finding(
                    "R6-macro-discipline", f.rel, i,
                    "direct PerfCounter add() outside src/obs/ bypasses "
                    "the WMSN_PERF null-ledger guard and crashes on "
                    "threads with no active ledger "
                    "(src/obs/perf_stats.hpp)"))
    # WMSN_INVARIANT conditions are compiled out by default: a side effect
    # or an Rng draw inside one makes the invariants build behave (and
    # draw!) differently from the production build.
    if not _INVARIANT_EXEMPT.search(f.rel):
        text = _joined(f)
        for m in _INVARIANT_CALL.finditer(text):
            if re.search(r"#\s*define\s*$",
                         text[max(0, m.start() - 80):m.start()].split("\n")[-1]):
                continue
            arg = _macro_arg(text, text.index("(", m.start()))
            if _SIDE_EFFECT.search(arg):
                emit(Finding(
                    "R6-macro-discipline", f.rel, _line_of(text, m.start()),
                    "side effect (assignment/increment/Rng draw) inside a "
                    "WMSN_INVARIANT condition: the macro compiles out by "
                    "default, so the invariants build would execute "
                    "different state mutations / draw counts than the "
                    "production build"))


# ---------------------------------------------------------------------------
# Absorbed legacy wmsn-lint rules (group "lint")
# ---------------------------------------------------------------------------

_FLOAT_EQ = re.compile(
    r"(?<![=!<>+\-*/&|^])(==|!=)\s*[+-]?\d+\.\d*(?![\w.])"
    r"|[+-]?\d+\.\d*\s*(==|!=)(?![=])")
_GTEST_LINE = re.compile(r"\b(EXPECT|ASSERT)_[A-Z_]+\s*\(")


def check_float_equality(f, ctx, emit):
    for i, line in enumerate(f.code_lines, start=1):
        if _FLOAT_EQ.search(line) and not _GTEST_LINE.search(line):
            emit(Finding(
                "float-equality", f.rel, i,
                "exact ==/!= on a floating-point literal; compare with a "
                "tolerance or an ordered test"))


_MUX_ATTACH = re.compile(r"\b\w*[oO]bservers?_\.attach\s*\(\s*(?P<arg>[^),]*)")
_STRING_LITERAL = re.compile(r'^\s*"')
_SINGLE_SLOT = re.compile(r"std::function\s*<[^;]*>\s*\w*[oO]bserver_\s*[;{=]")


def check_observer_contract(f, ctx, emit):
    for i, line in enumerate(f.code_lines, start=1):
        m = _MUX_ATTACH.search(line)
        if m:
            arg = m.group("arg").strip()
            if not arg and i < len(f.code_lines):
                arg = f.code_lines[i].strip()
            if not _STRING_LITERAL.match(arg):
                emit(Finding(
                    "observer-contract", f.rel, i,
                    "ObserverMux::attach needs a string-literal name at "
                    "the call site (see src/obs/mux.hpp)"))
        if _SINGLE_SLOT.search(line) and "mux.hpp" not in f.rel:
            emit(Finding(
                "observer-contract", f.rel, i,
                "single-slot std::function observer member; fan out "
                "through obs::ObserverMux instead (see src/obs/mux.hpp)"))


_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")


def check_include_guard(f, ctx, emit):
    if not f.is_header:
        return
    head = [l for l in f.raw_lines[:10] if l.strip()]
    if not any(_PRAGMA_ONCE.match(l) for l in head):
        emit(Finding("include-guard", f.rel, 1,
                     "header must start with #pragma once"))


_PROCESS_EXEMPT = re.compile(r"^(src/campaign/|src/util/random\.(cpp|hpp)$)")
_PROCESS_CALL = re.compile(
    r"(?<![\w.>])(?:::)?"
    r"(fork|vfork|execl|execle|execlp|execv|execve|execvp|execvpe"
    r"|posix_spawnp?|popen|system)\s*\(")


def check_process_discipline(f, ctx, emit):
    if _PROCESS_EXEMPT.search(f.rel):
        return
    for i, line in enumerate(f.code_lines, start=1):
        if _PROCESS_CALL.search(line):
            emit(Finding(
                "process-discipline", f.rel, i,
                "process creation is confined to src/campaign/ (the "
                "campaign worker pool owns fork/exec hygiene)"))


_RANGESCAN_EXEMPT = re.compile(r"^(src/(sim|net|mesh)/|tests/|bench/)")
_RANGESCAN_CALL = re.compile(r"[.>]\s*linked\s*\(")
# Raw distance tests are the kernel's and the radio's business: the link
# predicates, the geometry primitive and the one cell index behind the
# sensor adjacency and the set-up BFS (src/net/unit_disk.cpp). Tests keep
# brute-force oracles.
_DISTANCE_EXEMPT = re.compile(
    r"^(src/sim/|src/net/(radio\.cpp|geometry\.hpp|unit_disk\.cpp)$|tests/)")
_DISTANCE_CALL = re.compile(r"(?<!\w)distanceSq\s*\(")


def check_rangescan_discipline(f, ctx, emit):
    linked_ok = _RANGESCAN_EXEMPT.search(f.rel)
    distance_ok = _DISTANCE_EXEMPT.search(f.rel)
    for i, line in enumerate(f.code_lines, start=1):
        if not linked_ok and _RANGESCAN_CALL.search(line):
            emit(Finding(
                "rangescan-discipline", f.rel, i,
                "direct linked() range test re-grows the O(n²) all-pairs "
                "scan; query SensorNetwork::neighborsOf or the sensor "
                "adjacency (docs/KERNEL.md)"))
        if not distance_ok and _DISTANCE_CALL.search(line):
            emit(Finding(
                "rangescan-discipline", f.rel, i,
                "raw distanceSq() range test re-grows the O(n²) all-pairs "
                "scan; use net::unitDiskHops, SensorNetwork::neighborsOf "
                "or net::UnitDiskGraph (docs/KERNEL.md)"))


# Text-to-number conversion goes through wmsn::parseNumber (src/util/
# parse.hpp): std::sto* accepts "30x" as 30, wraps "-1" to 2^64-1 for an
# unsigned, and escapes as std::invalid_argument / std::out_of_range.
_NUMBER_PARSE_EXEMPT = re.compile(r"^(src/util/parse\.(cpp|hpp)$|tests/)")
_STO_CALL = re.compile(r"\bstd::sto(?:i|l|ul|ll|ull|f|d|ld)\s*\(")


def check_number_parse_discipline(f, ctx, emit):
    if _NUMBER_PARSE_EXEMPT.search(f.rel):
        return
    for i, line in enumerate(f.code_lines, start=1):
        if _STO_CALL.search(line):
            emit(Finding(
                "number-parse-discipline", f.rel, i,
                "std::sto* is lenient (trailing junk, wrapped negatives) "
                "and throws std::invalid_argument/out_of_range; use "
                "wmsn::parseNumber or parseFlag (src/util/parse.hpp)"))


# Routing wire formats live in one place: every message's field table in
# src/routing/messages.* drives its encode, decode and MAC input. A protocol
# or attack that serialises with ByteWriter/ByteReader grows a private codec
# the tables cannot see. src/crypto keeps its own byte layouts.
_WIRE_CODEC_SCOPE = re.compile(r"^src/(routing|attacks)/")
_WIRE_CODEC_HOME = re.compile(r"^src/routing/messages\.(cpp|hpp)$")
_WIRE_CODEC_USE = re.compile(r"\bByte(Writer|Reader)\b")


def check_wire_codec_discipline(f, ctx, emit):
    if ctx.manifest.all_classes:
        # Fixture mode: every file is in scope, and a file named messages.*
        # stands in for the codec's home.
        if re.search(r"(^|/)messages\.(cpp|hpp)$", f.rel):
            return
    elif not _WIRE_CODEC_SCOPE.search(f.rel) or _WIRE_CODEC_HOME.search(f.rel):
        return
    for i, line in enumerate(f.code_lines, start=1):
        if _WIRE_CODEC_USE.search(line):
            emit(Finding(
                "wire-codec-discipline", f.rel, i,
                "hand-rolled ByteWriter/ByteReader codec in a protocol; "
                "declare the payload's field table in "
                "src/routing/messages.hpp and use its encode()/decode()"))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RULES = [
    Rule("R1-unordered-iteration", "R1",
         "unordered-container iteration reachable from output paths",
         "hash-bucket order leaks into bytes the determinism diff compares",
         check_r1),
    Rule("R2-pointer-keyed-order", "R2",
         "pointer-keyed map/set, address hashing or ordering",
         "heap addresses vary with ASLR/malloc history; any order over "
         "them diverges across runs",
         check_r2),
    Rule("R3-nondet-source", "R3",
         "wall clock / ambient RNG / getenv outside whitelisted telemetry",
         "ambient process state leaking into a run breaks replay across "
         "hosts and reruns",
         check_r3, aliases=("rng-discipline", "banned-header"),
         inline_ok=False),
    Rule("R4-rng-draw-divergence", "R4",
         "util::Rng draw inside a conditional without // wmsn:fixed-draws",
         "a schedule-dependent branch shifts every later draw in the "
         "stream; the annotation certifies the predicate is pure "
         "simulation state",
         check_r4),
    Rule("R5-float-reduction", "R5",
         "floating-point += / -= accumulation in kernel-parallel files",
         "fp addition is not associative; parallel reduction reorderings "
         "change bytes",
         check_r5),
    Rule("R6-macro-discipline", "R6",
         "WMSN_TRACE / WMSN_PERF riding their null-guard macros; "
         "side-effect-free WMSN_INVARIANT conditions",
         "bypassing the guards crashes unarmed threads or makes the "
         "invariants build execute differently from production",
         check_r6, aliases=("trace-discipline", "perf-discipline"),
         inline_ok=False),
    Rule("float-equality", "lint",
         "raw ==/!= on floating-point values",
         "exact fp comparison is brittle across optimization levels",
         check_float_equality, inline_ok=True),
    Rule("observer-contract", "lint",
         "observer wiring outside the ObserverMux contract",
         "single-slot observers silently evict; non-literal attach names "
         "defeat the double-attach audit",
         check_observer_contract, inline_ok=True),
    Rule("include-guard", "lint",
         "header missing #pragma once",
         "double inclusion breaks the one-definition discipline",
         check_include_guard, inline_ok=True),
    Rule("process-discipline", "lint",
         "fork/exec/system/popen outside src/campaign/",
         "stray process creation duplicates simulator state outside the "
         "pool's crash-isolation hygiene",
         check_process_discipline, inline_ok=True),
    Rule("rangescan-discipline", "lint",
         "direct linked() range test outside src/sim|net|mesh, or raw "
         "distanceSq() outside the radio and the cell index",
         "re-grows the O(n²) all-pairs scan the neighbor index deleted",
         check_rangescan_discipline, inline_ok=True),
    Rule("number-parse-discipline", "lint",
         "std::sto* outside src/util/parse.* and tests/",
         "a lenient or aborting number parse lets bad text run or crash "
         "instead of failing with a message naming the input",
         check_number_parse_discipline, inline_ok=True),
    Rule("wire-codec-discipline", "lint",
         "ByteWriter/ByteReader in src/routing/ or src/attacks/ outside "
         "src/routing/messages.*",
         "a private codec writes a layout a second time, beside the field "
         "table that derives encode, decode and the MAC input",
         check_wire_codec_discipline, inline_ok=True),
]

META_RULES = {
    "stale-suppression":
        "suppressions.toml entry matching no finding (audited ledger)",
    "invalid-suppression":
        "suppressions.toml entry missing file/rule/justification",
}

RULE_IDS = {r.id for r in RULES} | set(META_RULES)


def rules_by_selection(selection=None):
    if not selection:
        return list(RULES)
    wanted = {s.strip() for s in selection}
    out = []
    for r in RULES:
        if r.id in wanted or r.group in wanted or \
                set(r.aliases) & wanted:
            out.append(r)
    return out


def run_rules(files, manifest, rules=None):
    """Run the rule pack; returns all findings (inline-suppressed ones
    already marked)."""
    ctx = TreeContext(files, manifest)
    active = rules if rules is not None else RULES
    findings = []
    for f in files:
        def emit(finding, _f=f):
            rule = next((r for r in RULES if r.id == finding.rule), None)
            # Legacy rules honour the historical inline allow under their
            # own id; absorbed rules (R3/R6) honour it ONLY under their
            # grandfathered legacy alias — the new R-ids suppress
            # exclusively via the ledger.
            names = set()
            if rule is not None:
                if rule.inline_ok:
                    names = {rule.id} | set(rule.aliases)
                else:
                    names = set(rule.aliases)
            if names and _f.inline_allowed(names, finding.line):
                finding.suppressed = "inline"
                finding.reason = "wmsn-lint: allow(...) comment"
            findings.append(finding)
        for rule in active:
            rule.check(f, ctx, emit)
    findings.sort(key=lambda x: (x.file, x.line, x.rule))
    return findings
