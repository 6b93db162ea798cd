#!/usr/bin/env python3
"""Repository lint, registered as the `tools.lint` ctest.

Checks, each with a short rule id used in diagnostics:

  value-on-temporary   `).value()` in src/: calling Result::value() on a
                       temporary means the result can never have been
                       checked with ok() first. Receivers that are named
                       variables (`result.value()`) are fine, as is the
                       explicit `std::move(result).value()` consume of an
                       already-checked result.
  raw-new              `new` outside std::unique_ptr<T>(new T...) (used
                       for classes with private constructors) and leaky
                       `static T* x = new T...` singletons. Everything
                       else should use std::make_unique / containers.
  std-endl             std::endl flushes; use '\n'.
  missing-override     gtest virtual hooks (SetUp/TearDown) must be
                       marked `override`; `virtual` on a member already
                       marked `override` is redundant.
  include-order        within each contiguous #include block, <angle>
                       includes come before "quote" includes and both
                       groups are sorted (the first block of a .cc may
                       start with its own header).
  plan-node-construction
                       physical-plan nodes (plan/plan_ir.h) constructed
                       outside src/plan/: schema and planner-size rules
                       live in plan::PlanBuilder, so everything else must
                       go through its factories. (The constructors are
                       private too; this catches friend-ship creep and
                       make_unique workarounds before the compiler.)
  raw-concurrency      std::mutex / lock guards / condition variables (or
                       their headers) outside src/common/mutex.{h,cc}.
                       All locking goes through the annotated
                       prost::Mutex layer so Clang's thread-safety
                       analysis and the debug lock-rank checker see every
                       acquisition. std::thread and std::atomic stay
                       allowed.
  thread-detach        std::thread::detach(): a detached thread outlives
                       every shutdown contract in the codebase; join it
                       (the ThreadPool pattern) instead.
  raw-socket           BSD socket headers (<sys/socket.h>, <netinet/*>,
                       <arpa/inet.h>, <netdb.h>) or socket(2) calls
                       outside src/net/. All wire I/O goes through
                       net::Socket / net::ListenSocket so deadlines,
                       EINTR handling, and shutdown semantics stay in
                       one audited place.
  stats-in-engine      `stats::` (or a "stats/..." include) inside
                       src/engine/. The engine executes physical plans;
                       cardinality estimation and characteristic sets
                       feed the planner, which communicates its
                       conclusions through plan-node annotations
                       (estimated_rows, planner_bytes). An engine
                       operator consulting statistics directly would
                       bypass the plan as the single source of planning
                       truth.
  relation-planner-size
                       `planner` (any case) in src/engine/relation.{h,cc},
                       or a `set_planner_bytes(` / `PlannerBytes(` call
                       anywhere in src/. The broadcast/shuffle decision is
                       a plan fact, resolved from PlanNode::planner_bytes
                       (engine::ResolveJoinStrategy); a run-time copy of
                       the planner size on Relation is the duplicate it
                       replaced, and must not return.
  buffer-pool-internals
                       buffer-pool page internals (PageFrame / PageKey /
                       PageKeyHash, or the pool's frame-map and LRU
                       members) referenced outside src/columnar/. The
                       pool's pin protocol (state machine, pin counts,
                       eviction ticks) is invariant-heavy; everything
                       outside the columnar layer holds pages only
                       through the PinnedPage RAII handle and the
                       BufferPool public API.
  parallel-for         `ParallelFor(` in src/ outside the thread pool
                       (src/common/thread_pool.*) and the one engine task
                       loop (src/engine/task_loop.*). Scans and operators
                       run their tasks through engine::RunTasks, which
                       runs them inline without a pool, so there is one
                       execution shape and no serial/parallel fork.
  mutable-unguarded    in a header whose class owns a prost::Mutex, a
                       `mutable` field with no PROST_GUARDED_BY
                       annotation. `mutable` is exactly the marker that
                       const methods mutate it concurrently, so it must
                       either name its guard or carry an "internally
                       synchronized" comment (e.g. it is itself a
                       MetricsRegistry).
  net-decode           `DecodeRows(`, `ParseTerm(` or `DecodeTerm(` in
                       src/net/. The result writer turns each id's
                       dictionary bytes into JSON or TSV directly; decoding
                       rows into strings and re-parsing them into Terms is
                       the slow path it replaced, and must not return.
                       The result-document readers (ParseJson, ParseTsv)
                       may parse terms: they read a client's text.
  pt-row-at-a-time     `engine::Row` in src/core/scan_support.cc, the
                       file that holds the one paged scan kernel. It
                       refines a selection vector and unnests list cells
                       by offsets (engine/kernels.h); a per-row partial
                       binding is the row-at-a-time path it replaced, and
                       must not return.
  one-scan             `Pin(` in src/ outside the columnar layer
                       (src/columnar/) and src/core/scan_support.cc. VP
                       and Property Table partitions are scanned by one
                       function (core::ScanRowGroups), the only place
                       outside the pool that pins pages; a second pin
                       loop is a second scan path.
  whole-result-copy    a call to `engine::Project(` or `engine::Limit(`
                       in src/core/ whose first argument is not
                       `std::move(`. Both take their relation by value
                       and hand its columns over; an lvalue argument
                       silently copies the whole intermediate result
                       (for WatDiv C2, 498,504 rows) before the operator
                       runs.

  test-only-api        a free function, or a static member function,
                       declared in a src/ header that no program names:
                       every one must appear in a non-test C++ file
                       under src/, bench/, perfbench/, tools/ or
                       examples/ on a line other than a declaration or
                       definition of that name. Names are matched as
                       identifiers, so a same-named member counts as a
                       use. TEST_SUPPORT_API lists the few functions
                       kept for tests on purpose, each with the test
                       that needs it.

Exit status 0 when clean, 1 with one "path:line: [rule] message" per
violation otherwise.
"""

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".h", ".cc", ".cpp"}
ALL_DIRS = ["src", "tests", "bench", "examples", "tools"]


def code_lines(text):
    """Yields (line_number, line) with comments and string/char literals
    blanked out, so lexical rules do not fire inside them."""
    out = []
    in_block_comment = False
    for number, line in enumerate(text.splitlines(), start=1):
        result = []
        i = 0
        while i < len(line):
            if in_block_comment:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block_comment = False
                    i = end + 2
                continue
            two = line[i : i + 2]
            if two == "/*":
                in_block_comment = True
                i += 2
            elif two == "//":
                break
            elif line[i] in "\"'":
                quote = line[i]
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                    elif line[i] == quote:
                        i += 1
                        break
                    else:
                        i += 1
                result.append(quote + quote)
            else:
                result.append(line[i])
                i += 1
        out.append((number, "".join(result)))
    return out


VALUE_ON_TEMPORARY = re.compile(r"\)\s*\.\s*value\(\)")
MOVED_VALUE = re.compile(r"std::move\s*\([^()]*\)\s*\.\s*value\(\)")
RAW_NEW = re.compile(r"\bnew\b\s*[\w:<(]")
SMART_POINTER_NEW = re.compile(
    r"(?:std::)?(?:unique_ptr|shared_ptr)\s*<[^;]*>\s*[({][^;]*\bnew\b"
)
STATIC_SINGLETON_NEW = re.compile(r"\bstatic\b[^;=]*=\s*new\b")
PLAN_NODE_NAMES = (
    "VpScanNode|PtScanNode|HashJoinNode|FilterNode|ProjectNode|"
    "OrderByNode|AggregateNode|DistinctNode|LimitNode"
)
PLAN_NODE_CONSTRUCTION = re.compile(
    rf"\b(?:{PLAN_NODE_NAMES})\s*[({{]"
    rf"|\bmake_unique\s*<\s*(?:plan\s*::\s*)?(?:{PLAN_NODE_NAMES})\b"
)
GTEST_HOOK = re.compile(r"\bvoid\s+(SetUp|TearDown)\s*\(\s*\)")
REDUNDANT_VIRTUAL = re.compile(r"\bvirtual\b[^;{]*\boverride\b")
INCLUDE = re.compile(r'^\s*#\s*include\s*(<[^>]+>|"[^"]+")')
RAW_CONCURRENCY = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
)
THREAD_DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")
STATS_IN_ENGINE = re.compile(r"\bstats\s*::|#\s*include\s*\"stats/")
RAW_SOCKET = re.compile(
    r"#\s*include\s*<(sys/socket\.h|netinet/[^>]+|arpa/inet\.h|netdb\.h)>"
    r"|(?<![\w:.])(?:::)?\s*\bsocket\s*\(\s*AF_"
)
BUFFER_POOL_INTERNALS = re.compile(
    r"\b(?:columnar\s*::\s*)?(?:PageFrame|PageKey|PageKeyHash)\b"
    r"|\blru_tick_?\b|\bframes_\b"
)
MUTEX_MEMBER = re.compile(r"\bMutex\s*<\s*(?:\w+::)*LockRank::")
MUTABLE_FIELD = re.compile(r"^\s*mutable\s")
MUTABLE_SYNC_PRIMITIVE = re.compile(r"^\s*mutable\s[\w:<,\s>]*"
                                    r"\b(Mutex\s*<|CondVar\b)")
# code_lines() blanks comments, so the suppression marker is checked on
# the raw source line: a field documented "internally synchronized"
# (its type owns its own locking, e.g. obs::MetricsRegistry) needs no
# PROST_GUARDED_BY.
INTERNALLY_SYNCHRONIZED = re.compile(r"[Ii]nternally\s+synchronized")


def lint_lexical(path, lines, failures, check_value_rule, check_plan_rule):
    previous = ""
    for number, line in lines:
        # A smart-pointer constructor call often wraps, leaving `new` at
        # the start of a continuation line; judge raw-new against the
        # joined pair.
        joined = previous + " " + line
        previous = line
        if check_value_rule and VALUE_ON_TEMPORARY.search(line):
            stripped = MOVED_VALUE.sub("", line)
            if VALUE_ON_TEMPORARY.search(stripped):
                failures.append(
                    f"{path}:{number}: [value-on-temporary] Result::value() "
                    "on a temporary can never have been checked; bind the "
                    "result first or use a Must* accessor"
                )
        if RAW_NEW.search(line):
            if not SMART_POINTER_NEW.search(joined) and not (
                STATIC_SINGLETON_NEW.search(joined)
            ):
                failures.append(
                    f"{path}:{number}: [raw-new] raw `new` outside "
                    "std::unique_ptr construction or a static singleton; "
                    "use std::make_unique or a container"
                )
        if check_plan_rule and PLAN_NODE_CONSTRUCTION.search(line):
            failures.append(
                f"{path}:{number}: [plan-node-construction] plan nodes are "
                "constructed only inside src/plan/; use the "
                "plan::PlanBuilder factories"
            )
        if "std::endl" in line:
            failures.append(
                f"{path}:{number}: [std-endl] std::endl forces a flush; "
                "use '\\n'"
            )
        if GTEST_HOOK.search(line) and "override" not in line:
            failures.append(
                f"{path}:{number}: [missing-override] gtest hook must be "
                "marked override"
            )
        if REDUNDANT_VIRTUAL.search(line):
            failures.append(
                f"{path}:{number}: [missing-override] `virtual` is "
                "redundant on a member marked override"
            )


def lint_concurrency(path, lines, raw_lines, failures, in_mutex_layer,
                     in_net_layer, in_columnar_layer):
    """Concurrency and I/O-layer rules. `lines` are comment/string-blanked,
    `raw_lines` the original text (the mutable-unguarded suppression marker
    lives in doc comments)."""
    for number, line in lines:
        if not in_mutex_layer and RAW_CONCURRENCY.search(line):
            failures.append(
                f"{path}:{number}: [raw-concurrency] std synchronization "
                "primitives live behind the annotated layer; use "
                "prost::Mutex / MutexLock / CondVar from common/mutex.h"
            )
        if not in_net_layer and RAW_SOCKET.search(line):
            failures.append(
                f"{path}:{number}: [raw-socket] BSD socket APIs live "
                "behind src/net/; use net::Socket / net::ListenSocket / "
                "net::Client"
            )
        if THREAD_DETACH.search(line):
            failures.append(
                f"{path}:{number}: [thread-detach] detached threads escape "
                "every shutdown contract; join them instead"
            )
        if not in_columnar_layer and BUFFER_POOL_INTERNALS.search(line):
            failures.append(
                f"{path}:{number}: [buffer-pool-internals] page frames and "
                "pool internals live inside src/columnar/; hold pages via "
                "columnar::PinnedPage and the BufferPool public API"
            )
    # mutable-unguarded: headers only — a class that owns an annotated
    # Mutex must say what guards each of its mutable fields. A field is
    # exempt when it is itself a synchronization primitive, carries
    # PROST_GUARDED_BY, or a doc comment within the three preceding lines
    # (or the line itself) says "internally synchronized".
    if path.suffix != ".h":
        return
    if not any(MUTEX_MEMBER.search(line) for _, line in lines):
        return
    for index, (number, line) in enumerate(lines):
        if not MUTABLE_FIELD.match(line):
            continue
        if MUTABLE_SYNC_PRIMITIVE.match(line):
            continue
        if "PROST_GUARDED_BY" in line:
            continue
        context = raw_lines[max(0, index - 3) : index + 1]
        if any(INTERNALLY_SYNCHRONIZED.search(raw) for raw in context):
            continue
        failures.append(
            f"{path}:{number}: [mutable-unguarded] mutable field in a "
            "Mutex-owning class needs PROST_GUARDED_BY(<mutex>) or an "
            '"internally synchronized" doc comment'
        )


def lint_stats_in_engine(path, lines, raw_lines, failures):
    """The engine must not consult statistics directly: planning
    conclusions reach it only as plan-node annotations. `stats::` is
    checked on blanked lines (comments may discuss it), the include on
    raw lines (blanking empties string literals)."""
    for number, line in lines:
        if re.search(r"\bstats\s*::", line):
            failures.append(
                f"{path}:{number}: [stats-in-engine] the engine executes "
                "plans; statistics inform the planner, which speaks "
                "through plan-node annotations"
            )
    for number, raw in enumerate(raw_lines, start=1):
        if re.match(r'\s*#\s*include\s*"stats/', raw):
            failures.append(
                f"{path}:{number}: [stats-in-engine] src/engine/ must not "
                "include stats/ headers"
            )


RELATION_FILES = ("src/engine/relation.h", "src/engine/relation.cc")
PLANNER_SIZE_CALL = re.compile(r"\b(set_planner_bytes|PlannerBytes)\s*\(")


def lint_relation_planner_size(path, lines, raw_lines, failures):
    """Relations carry no planner size: join decisions are resolved from
    the plan. Relation's own files are checked on raw lines (not even a
    comment should promise one), calls on blanked lines."""
    if path.as_posix() in RELATION_FILES:
        for number, raw in enumerate(raw_lines, start=1):
            if re.search(r"planner", raw, re.IGNORECASE):
                failures.append(
                    f"{path}:{number}: [relation-planner-size] "
                    "engine::Relation carries no planner size; join "
                    "decisions come from PlanNode::planner_bytes"
                )
    for number, line in lines:
        match = PLANNER_SIZE_CALL.search(line)
        if match:
            failures.append(
                f"{path}:{number}: [relation-planner-size] "
                f"{match.group(1)}( stamps a run-time planner size; resolve "
                "join decisions from the plan (engine::ResolveJoinStrategy)"
            )


NET_DECODE = re.compile(r"\b(DecodeRows|ParseTerm|DecodeTerm)\s*\(")
NET_READER = re.compile(r"\bSparqlResultWriter::Parse(?:Json|Tsv)\s*\(")


def lint_net_decode(path, lines, failures):
    """src/net/ writes results from dictionary bytes; the decode and
    re-parse round trip stays out of it. The bodies of the result
    document readers (SparqlResultWriter::ParseJson / ParseTsv) are
    exempt: they check a client's text, which has no dictionary ids."""
    in_reader = False
    for number, line in lines:
        if NET_READER.search(line):
            in_reader = True
        elif line.startswith("}"):
            in_reader = False
        match = NET_DECODE.search(line)
        if match and not in_reader:
            failures.append(
                f"{path}:{number}: [net-decode] {match.group(1)}( in "
                "src/net/; write cells from Dictionary::LookupId bytes "
                "instead of decoding and re-parsing them"
            )


PT_ROW = re.compile(r"\bengine::Row\b")
SCAN_KERNEL_FILE = "src/core/scan_support.cc"


def lint_pt_row_at_a_time(path, lines, failures):
    """The paged scan kernel runs on selection vectors and offsets; a
    per-row partial binding stays out of it."""
    for number, line in lines:
        if PT_ROW.search(line):
            failures.append(
                f"{path}:{number}: [pt-row-at-a-time] engine::Row in the "
                "scan kernel; refine a selection vector and unnest list "
                "cells with engine::kernels instead of per-row partials"
            )


PIN_CALL = re.compile(r"\bPin\s*\(")


def lint_one_scan(path, lines, failures):
    """Only the columnar layer and the one paged scan may pin pages."""
    if path.parts[:2] == ("src", "columnar") or (
        path.as_posix() == SCAN_KERNEL_FILE
    ):
        return
    for number, line in lines:
        if PIN_CALL.search(line):
            failures.append(
                f"{path}:{number}: [one-scan] Pin( outside the columnar "
                "layer; scan paged partitions through core::ScanRowGroups "
                "(core/scan_support.h)"
            )


WHOLE_RESULT_CALL = re.compile(r"\bengine\s*::\s*(Project|Limit)\s*\(")
MOVED_ARGUMENT = re.compile(r"\s*std\s*::\s*move\s*\(")


def lint_whole_result_copy(path, lines, failures):
    """engine::Project and engine::Limit take their relation by value:
    src/core/ callers move it in. The first argument may start on the
    line after the call's parenthesis."""
    for index, (number, line) in enumerate(lines):
        for match in WHOLE_RESULT_CALL.finditer(line):
            argument = line[match.end():]
            if not argument.strip() and index + 1 < len(lines):
                argument = lines[index + 1][1]
            if not MOVED_ARGUMENT.match(argument):
                failures.append(
                    f"{path}:{number}: [whole-result-copy] "
                    f"engine::{match.group(1)}( copies its whole input "
                    "relation; pass std::move(relation)"
                )


PARALLEL_FOR = re.compile(r"\bParallelFor\s*\(")
PARALLEL_FOR_OWNERS = (
    "src/common/thread_pool.h",
    "src/common/thread_pool.cc",
    "src/engine/task_loop.h",
    "src/engine/task_loop.cc",
)


def lint_parallel_for(path, lines, failures):
    """Only the pool and the engine task loop may call ParallelFor: every
    other parallel region goes through engine::RunTasks."""
    if path.as_posix() in PARALLEL_FOR_OWNERS:
        return
    for number, line in lines:
        if PARALLEL_FOR.search(line):
            failures.append(
                f"{path}:{number}: [parallel-for] run tasks through "
                "engine::RunTasks (engine/task_loop.h), which also runs "
                "them inline when there is no pool"
            )


# Free and static member functions declared in src/ headers that only
# tests call, kept on purpose: name -> the test that needs it.
TEST_SUPPORT_API = {
    "ParseNTriplesToVector": "tests/rdf_test.cpp (N-Triples parsing)",
    "WriteNTriples": "tests/rdf_test.cpp (write/parse round trip)",
    "ToNTriplesText": "tests/watdiv_test.cpp (watdiv:: generator output)",
    "ParseQuerySet": "tests/watdiv_test.cpp (watdiv:: query-set text)",
    "ProfileJson": "tests/obs_test.cpp (obs:: profile JSON shape)",
    "EncodingToString": "tests/columnar_test.cpp (hostile-input messages)",
    "RankHeldDepth": "tests/common_test.cpp (lock-rank checker depth)",
    "ParseTsv": "tests/net_test.cpp (the oracle that reads TSV bodies)",
}
PROGRAM_DIRS = ["src", "bench", "perfbench", "tools", "examples"]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
FUNCTION_NAME = re.compile(r"([A-Za-z_]\w*)\s*\($")
NOT_FUNCTIONS = re.compile(
    r"^\s*(?:using|typedef|class|struct|union|enum|namespace|"
    r"static_assert)\b"
)
TEMPLATE_HEAD = re.compile(r"^\s*template\s*<")


def strip_template_heads(statement):
    """Drops leading `template <...>` heads (angle brackets balanced)."""
    while TEMPLATE_HEAD.match(statement):
        start = statement.index("<")
        depth = 0
        for i in range(start, len(statement)):
            if statement[i] == "<":
                depth += 1
            elif statement[i] == ">":
                depth -= 1
                if depth == 0:
                    statement = statement[i + 1 :]
                    break
        else:
            return statement
    return statement


CLASS_HEAD = re.compile(r"\b(?:class|struct|union)\b")
ACCESS_LABELS = re.compile(r"^(?:\s*(?:public|protected|private)\s*:)+")
STATIC_MEMBER = re.compile(r"^\s*static\s")


def scope_functions(lines):
    """Yields (name, line_number, qualified) for every function declared
    or defined at namespace scope in `lines` (comment/string-blanked),
    and for every static member function a class body declares. Braces
    are tracked as namespace, class or other; text inside enum and
    function bodies is skipped. Preprocessor lines are ignored."""
    scopes = []  # "namespace", "class" or "other" per open brace.
    statement = ""  # Declaration text since the last ; { or }.
    name_lines = []  # (offset into statement, line number) per line.
    continued = False
    for number, line in lines:
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip().endswith("\\")
            continue
        for char in line:
            tracked = all(s != "other" for s in scopes)
            in_class = tracked and bool(scopes) and scopes[-1] == "class"
            if char in ";{}" and tracked:
                found = None
                if in_class:
                    member = ACCESS_LABELS.sub("", statement)
                    if STATIC_MEMBER.match(member):
                        found = function_name(statement, name_lines,
                                              len(statement) - len(member))
                else:
                    found = function_name(statement, name_lines)
                if found is not None:
                    yield found
            if char == "{":
                kind = "other"
                if tracked and re.search(r"\bnamespace\b|\bextern\b",
                                         statement):
                    kind = "namespace"
                elif (tracked and CLASS_HEAD.search(statement) and
                      "(" not in statement and
                      not re.search(r"\benum\b", statement)):
                    kind = "class"
                scopes.append(kind)
            elif char == "}":
                if scopes:
                    scopes.pop()
            if char in ";{}":
                statement = ""
                name_lines = []
            elif all(s != "other" for s in scopes):
                if not name_lines or name_lines[-1][1] != number:
                    name_lines.append((len(statement), number))
                statement += char
        if all(s != "other" for s in scopes):
            statement += " "


def function_name(statement, name_lines, skip=0):
    """The (name, line, qualified) a statement declares, when it declares
    or defines a function; None otherwise. `qualified` marks an
    out-of-line member definition such as `Result<T>::Get(`. The first
    `skip` characters (access labels) are not part of the declaration."""
    body = strip_template_heads(statement[skip:])
    if NOT_FUNCTIONS.match(body):
        return None
    offset = len(statement) - len(body)
    paren = body.find("(")
    if paren < 0 or "=" in body[:paren]:
        return None  # No call syntax, or a variable's initializer.
    match = FUNCTION_NAME.search(body[: paren + 1])
    if match is None or match.group(1) == "operator":
        return None
    head = body[: match.start(1)].strip()
    if not head or head.endswith("operator"):
        return None  # A macro invocation: no return type precedes it.
    position = offset + match.start(1)
    number = max(n for start, n in name_lines if start <= position)
    return match.group(1), number, head.endswith("::")


def lint_test_only_api(root, failures):
    """Every free or static member function a src/ header declares must
    be named by some program: src/, bench/, perfbench/, tools/ or
    examples/."""
    declared = {}  # name -> first (path, line) of a header declaration.
    definition_sites = set()  # (path, line, name) of every declaration.
    blanked = {}  # path -> comment/string-blanked lines.
    for directory in PROGRAM_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in CPP_SUFFIXES:
                continue
            relative = path.relative_to(root)
            lines = code_lines(path.read_text(encoding="utf-8"))
            blanked[relative] = lines
            for name, number, qualified in scope_functions(lines):
                definition_sites.add((relative, number, name))
                if (relative.parts[0] == "src" and path.suffix == ".h"
                        and not qualified):
                    declared.setdefault(name, (relative, number))
    used = {
        name
        for relative, lines in blanked.items()
        for number, line in lines
        for name in IDENTIFIER.findall(line)
        if name in declared
        and (relative, number, name) not in definition_sites
    }
    for name, (path, number) in sorted(declared.items(),
                                       key=lambda item: item[1]):
        if name in used or name in TEST_SUPPORT_API:
            continue
        failures.append(
            f"{path}:{number}: [test-only-api] {name}() is named by no "
            "program (src/, bench/, perfbench/, tools/, examples/); "
            "delete it with its tests, or list it in TEST_SUPPORT_API "
            "with the test that needs it"
        )
    for name in sorted(set(TEST_SUPPORT_API) - set(declared)):
        failures.append(
            f"tools/lint.py:1: [test-only-api] TEST_SUPPORT_API names "
            f"{name}(), which no src/ header declares"
        )


def lint_include_order(path, text, failures):
    blocks = []
    current = []
    for number, line in enumerate(text.splitlines(), start=1):
        match = INCLUDE.match(line)
        if match:
            current.append((number, match.group(1)))
        elif line.strip() == "":
            if current:
                blocks.append(current)
                current = []
        else:
            # #ifdef guards, macros or code interrupt the include region;
            # close the block but keep scanning for later ones.
            if current:
                blocks.append(current)
                current = []
    if current:
        blocks.append(current)
    own_header_block = path.suffix != ".h"
    for block in blocks:
        if own_header_block:
            own_header_block = False
            if len(block) == 1:
                continue  # The conventional lone own-header include.
        angles = [(n, i) for n, i in block if i.startswith("<")]
        quotes = [(n, i) for n, i in block if i.startswith('"')]
        if angles and quotes and angles[0][0] > quotes[0][0]:
            failures.append(
                f"{path}:{angles[0][0]}: [include-order] <system> includes "
                "belong before \"project\" includes within a block"
            )
            continue
        for group in (angles, quotes):
            names = [i for _, i in group]
            if names != sorted(names):
                failures.append(
                    f"{path}:{group[0][0]}: [include-order] includes in "
                    "this block are not sorted"
                )
                break


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = Path(args.root)

    failures = []
    for directory in ALL_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in CPP_SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8")
            relative = path.relative_to(root)
            lines = code_lines(text)
            in_plan = relative.parts[:2] == ("src", "plan")
            in_mutex_layer = relative.as_posix() in (
                "src/common/mutex.h",
                "src/common/mutex.cc",
            )
            in_net_layer = relative.parts[:2] == ("src", "net")
            in_columnar_layer = relative.parts[:2] == ("src", "columnar")
            lint_lexical(relative, lines, failures,
                         check_value_rule=directory == "src",
                         check_plan_rule=not in_plan)
            lint_concurrency(relative, lines, text.splitlines(), failures,
                             in_mutex_layer, in_net_layer, in_columnar_layer)
            if relative.parts[:2] == ("src", "engine"):
                lint_stats_in_engine(relative, lines, text.splitlines(),
                                     failures)
            if directory == "src":
                lint_parallel_for(relative, lines, failures)
                lint_one_scan(relative, lines, failures)
                lint_relation_planner_size(relative, lines,
                                           text.splitlines(), failures)
            if in_net_layer:
                lint_net_decode(relative, lines, failures)
            if relative.parts[:2] == ("src", "core"):
                lint_whole_result_copy(relative, lines, failures)
            if relative.as_posix() == SCAN_KERNEL_FILE:
                lint_pt_row_at_a_time(relative, lines, failures)
            lint_include_order(relative, text, failures)
    lint_test_only_api(root, failures)

    for failure in failures:
        print(failure)
    if failures:
        print(f"lint: {len(failures)} violation(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
