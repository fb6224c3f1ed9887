#!/usr/bin/env python3
"""Project invariant linter: layer 3 of the gaurast static-analysis stack.

Rules (see --list-rules):

  raw-concurrency      Raw std:: threading primitives (std::thread,
                       std::mutex, std::condition_variable, lock types, ...)
                       are confined to src/common/ and src/runtime/. All
                       other library code must go through the annotated
                       wrappers (common::Mutex, common::MutexLock,
                       common::CondVar) or the fork-join helper
                       (common::parallel_for_workers) so Clang's
                       -Wthread-safety analysis sees every lock.
  check-in-kernel-loop GAURAST_CHECK / GAURAST_CHECK_MSG (always-on, throwing)
                       must not sit inside loop bodies in the kernel
                       directories (src/pipeline/, src/gsmath/). Per-element
                       hot-path validation belongs to GAURAST_DCHECK /
                       GAURAST_DCHECK_MSG, which compile out of release
                       builds.
  backend-registration Every concrete engine::RenderBackend subclass under
                       src/ must be constructed (std::make_unique<...>) in
                       src/engine/registry.cpp, so no backend silently
                       drops out of the registry-based engine API.
  raw-sockets          Raw BSD socket / epoll syscalls (socket, bind, listen,
                       accept, connect, send*, recv*, epoll_*, ...) are
                       confined to src/net/, the one module that owns wire
                       I/O. Everything else talks to the network through
                       net::Server / net::Client, so socket lifetimes and
                       protocol framing stay in one reviewed place.
  mutex-guard-coverage Every common::Mutex member declared in a header under
                       src/ must have at least one GAURAST_GUARDED_BY /
                       GAURAST_PT_GUARDED_BY / GAURAST_REQUIRES /
                       GAURAST_EXCLUDES reference in the same file - a mutex
                       nothing is annotated against protects nothing the
                       analysis can see.
  process-spawn        Process lifecycle syscalls (fork, vfork, the exec*
                       family, posix_spawn*, waitpid, waitid) are
                       confined to src/cluster/, the one module that
                       supervises worker processes (cluster::Spawner).
                       Everything else must not fork: a stray fork in
                       library code duplicates threads, locks, and fds in
                       states the rest of the stack never reasons about.
  fault-points         Fault-plan arming (fault::arm, fault::disarm,
                       fault::arm_from_env, fault::parse_plan) and
                       GAURAST_FAULT_PLAN env reads are confined to
                       src/common/fault.cpp within src/. Production code
                       marks its seams with GAURAST_FAULT_POINT /
                       fault::evaluate only; a library path that arms a
                       plan could inject faults into a production
                       process. Tests and tools/ arm plans freely (they
                       are outside the scanned tree).
  half-confinement     The raw fp16 bit conversions (float_to_half_bits,
                       half_bits_to_float) are confined within src/ to
                       src/common/half.hpp, src/common/half.cpp, and
                       src/scene/quantized.cpp (the one production
                       consumer that stores raw bit patterns). Everything
                       else uses common::Half / common::round_to_half, so
                       rounding mode and NaN/Inf handling stay in one
                       reviewed place.
  simd-confinement     Explicit SIMD (<*intrin.h> includes, _mm* intrinsics
                       and __m64/__m128/__m256/__m512 types, vector_size
                       lane types, and target("...") function attributes)
                       is confined within src/ to
                       src/pipeline/raster_fast.cpp, the one translation
                       unit built with -ffp-contract=off. Elsewhere a
                       contracted a*b + c (an FMA, rounded once) would
                       silently change the bits the fast kernel must share
                       with the reference kernel and the hardware model.
  orphan-module        Every header under src/ must be included from
                       src/ (its own .cpp does not count), tools/, bench/,
                       examples/ or perfbench/. A header only its own
                       tests include is library code nothing ships; delete
                       it with its tests. Includer trees are read even
                       when linting a subset of files.

A finding can be waived for one line with a trailing comment:

    std::mutex legacy_;  // lint-invariants: allow(raw-concurrency)

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import posixpath
import re
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

# Directories allowed to touch raw std:: threading primitives. common/ hosts
# the annotated wrappers themselves; runtime/ hosts the thread pool, whose
# workers_ vector is the one sanctioned std::thread owner.
RAW_CONCURRENCY_EXEMPT_DIRS = ("src/common", "src/runtime")

# Kernel (hot-loop) directories for the CHECK-vs-DCHECK policy.
KERNEL_DIRS = ("src/pipeline", "src/gsmath")

# The one module allowed to make raw socket / epoll syscalls.
RAW_SOCKETS_EXEMPT_DIRS = ("src/net",)

# The one module allowed to fork/exec/reap worker processes.
PROCESS_SPAWN_EXEMPT_DIRS = ("src/cluster",)

# The one file allowed to arm/parse fault plans: the fault module itself
# (fault::arm_from_env is the sanctioned GAURAST_FAULT_PLAN reader).
FAULT_POINTS_EXEMPT_FILES = ("src/common/fault.cpp",)

# The files allowed to call the raw fp16 bit conversions: the half module
# itself (common::Half and round_to_half wrap them) and the scene quantizer,
# the one production consumer that stores raw fp16 bit patterns. Everything
# else goes through common::Half / round_to_half so rounding mode and
# NaN/Inf policy stay in one reviewed place.
HALF_CONFINEMENT_EXEMPT_FILES = (
    "src/common/half.hpp",
    "src/common/half.cpp",
    "src/scene/quantized.cpp",
)

# The one translation unit allowed to hold explicit SIMD code: the fast
# raster kernel, compiled with -ffp-contract=off (src/pipeline/CMakeLists.txt).
SIMD_CONFINEMENT_EXEMPT_FILES = ("src/pipeline/raster_fast.cpp",)

# The single sanctioned construction site for engine backends.
REGISTRY_SOURCE = "src/engine/registry.cpp"

# Trees whose includes keep a src/ header alive (orphan-module). tests/ is
# deliberately absent: a header that only its own tests include is dead.
INCLUDER_DIRS = ("src", "tools", "bench", "examples", "perfbench")

CPP_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

RAW_CONCURRENCY_TYPES = (
    "thread",
    "jthread",
    "mutex",
    "timed_mutex",
    "recursive_mutex",
    "recursive_timed_mutex",
    "shared_mutex",
    "shared_timed_mutex",
    "condition_variable",
    "condition_variable_any",
    "lock_guard",
    "unique_lock",
    "scoped_lock",
    "shared_lock",
    "counting_semaphore",
    "binary_semaphore",
    "barrier",
    "latch",
)

RAW_CONCURRENCY_RE = re.compile(
    r"\bstd::(?:" + "|".join(RAW_CONCURRENCY_TYPES) + r")\b(?!::hardware_concurrency)"
)

# Raw socket / epoll entry points. Free-call syscall spellings only: the
# lookbehind rejects member/qualified calls (conn.send(...), net::send(...)),
# and `shutdown` is deliberately absent — as a bare name it collides with
# ordinary shutdown() methods far too often to lint on.
RAW_SOCKET_FUNCTIONS = (
    "socket",
    "socketpair",
    "bind",
    "listen",
    "accept",
    "accept4",
    "connect",
    "send",
    "sendto",
    "sendmsg",
    "recv",
    "recvfrom",
    "recvmsg",
    "setsockopt",
    "getsockopt",
    "getsockname",
    "getpeername",
    "epoll_create",
    "epoll_create1",
    "epoll_ctl",
    "epoll_wait",
)

# Matches bare calls (`socket(...)`) and global-scope calls (`::socket(...)`)
# while rejecting member and namespace-qualified spellings (`conn.send(...)`,
# `asio::connect(...)`): the optional `::` must not itself be preceded by an
# identifier character.
RAW_SOCKETS_RE = re.compile(
    r"(?<![\w.:>])(?:::\s*)?(?:" + "|".join(RAW_SOCKET_FUNCTIONS) + r")\s*\("
)

# Process lifecycle entry points. Same free-call-only matching as the socket
# rule: the lookbehind rejects member and qualified calls. Bare `wait` is
# deliberately absent — a method *declaration* like `void wait(MutexLock&)`
# is indistinguishable from a free call to the syscall, and CondVar::wait
# makes that collision a certainty; waitpid/waitid cover reaping.
PROCESS_SPAWN_FUNCTIONS = (
    "fork",
    "vfork",
    "execl",
    "execlp",
    "execle",
    "execv",
    "execve",
    "execvp",
    "execvpe",
    "posix_spawn",
    "posix_spawnp",
    "waitpid",
    "waitid",
)

PROCESS_SPAWN_RE = re.compile(
    r"(?<![\w.:>])(?:::\s*)?(?:" + "|".join(PROCESS_SPAWN_FUNCTIONS) + r")\s*\("
)

# Plan arming/parsing entry points, always spelled fault::-qualified by
# callers (the fault module itself, where they are unqualified, is exempt).
# evaluate()/armed()/inject()/GAURAST_FAULT_POINT are deliberately NOT here:
# marking a seam is exactly what production code is supposed to do.
FAULT_ARMING_RE = re.compile(
    r"\b(?:gaurast\s*::\s*)?fault\s*::\s*"
    r"(arm_from_env|arm|disarm|parse_plan)\s*\("
)

# getenv in any spelling; each match is then checked against the *raw* text
# (string literals are blanked in the scrubbed view) for GAURAST_FAULT_PLAN,
# so reads of unrelated environment variables stay out of scope.
FAULT_GETENV_RE = re.compile(r"(?<![\w.:>])(?:std\s*::\s*|::\s*)?getenv\s*\(")

# The raw fp16 bit conversions, in bare and namespace-qualified spellings.
# The lookbehind rejects member calls (`obj.float_to_half_bits(...)` does
# not exist, but stay consistent with the other free-call rules).
HALF_BITS_RE = re.compile(
    r"(?<![\w.:>])(?:::\s*)?(?:(?:gaurast\s*::\s*)?common\s*::\s*)?"
    r"(float_to_half_bits|half_bits_to_float)\s*\("
)

# Explicit SIMD spellings: x86 intrinsic headers (<immintrin.h>,
# <emmintrin.h>, <xmmintrin.h>, ...), _mm/_mm256/_mm512 intrinsic calls,
# the __m* register types, GCC/Clang vector_size lane types, and per-function
# target attributes in both spellings. Matched on the scrubbed text, so a
# target("avx") whose literal is blanked still shows as `target(`.
SIMD_RE = re.compile(
    r"#\s*include\s*<\s*(\w*intrin\.h)\s*>"
    r"|\b(_mm(?:256|512)?_\w+)\s*\("
    r"|\b(__m(?:64|128|256|512)[di]?)\b"
    r"|\b(__attribute__\s*\(\(\s*(?:target|vector_size)\s*\()"
    r"|(\[\[\s*gnu\s*::\s*(?:target|vector_size)\s*\()"
)

INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)

WAIVER_RE = re.compile(r"//\s*lint-invariants:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

BACKEND_SUBCLASS_RE = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*public\s+"
    r"(?:gaurast::)?(?:engine::)?RenderBackend\b"
)

MUTEX_MEMBER_RE = re.compile(
    r"(?:^|[\s;{}])(?:mutable\s+)?(?:gaurast::)?(?:common::)?Mutex\s+(\w+)\s*;"
)


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str


class SourceFile(NamedTuple):
    path: Path  # absolute
    rel: str  # posix path relative to root
    text: str  # raw contents
    scrubbed: str  # comments/strings blanked, newlines preserved
    waivers: dict[int, set[str]]  # line -> waived rule ids
    includes: frozenset[str]  # src/ headers this file includes


def scrub_cpp(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines.

    Keeps every surviving character at its original offset so line numbers
    computed on the scrubbed text match the raw file. Handles //, /* */,
    "..." (with escapes), '...' and basic raw strings R"delim(...)delim".
    """
    out = list(text)
    i = 0
    n = len(text)

    def blank(start: int, end: int) -> None:
        for k in range(start, end):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                end = text.find("\n", i)
                end = n if end == -1 else end
                blank(i, end)
                i = end
                continue
            if text[i + 1] == "*":
                end = text.find("*/", i + 2)
                end = n if end == -1 else end + 2
                blank(i, end)
                i = end
                continue
        if c == '"':
            # Raw string literal: R"delim( ... )delim"
            m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[max(0, i - 1) : i + 20])
            if i > 0 and text[i - 1] == "R" and m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + 1)
                end = n if end == -1 else end + len(closer)
                blank(i + 1, end - 1)
                i = end
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
            continue
        i += 1
    return "".join(out)


def collect_waivers(text: str) -> dict[int, set[str]]:
    waivers: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = WAIVER_RE.search(line)
        if m:
            waivers[lineno] = {r.strip() for r in m.group(1).split(",")}
    return waivers


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def collect_includes(text: str, scrubbed: str) -> frozenset[str]:
    """The src/ paths named by quoted #includes outside comments.

    Project headers are always included relative to src/, the include root.
    """
    found = set()
    for m in INCLUDE_RE.finditer(text):
        # A commented-out include is blanked in the scrubbed view.
        if scrubbed[m.start() : m.start(1)] == text[m.start() : m.start(1)]:
            found.add(posixpath.normpath("src/" + m.group(1)))
    return frozenset(found)


def load_source(root: Path, path: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8", errors="replace")
    scrubbed = scrub_cpp(text)
    return SourceFile(
        path=path,
        rel=path.relative_to(root).as_posix(),
        text=text,
        scrubbed=scrubbed,
        waivers=collect_waivers(text),
        includes=collect_includes(text, scrubbed),
    )


def in_dirs(rel: str, dirs: Iterable[str]) -> bool:
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


# --------------------------------------------------------------------------
# Rule: raw-concurrency
# --------------------------------------------------------------------------


def check_raw_concurrency(src: SourceFile, _all: list[SourceFile]) -> list[Finding]:
    if not src.rel.startswith("src/") or in_dirs(src.rel, RAW_CONCURRENCY_EXEMPT_DIRS):
        return []
    findings = []
    for m in RAW_CONCURRENCY_RE.finditer(src.scrubbed):
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "raw-concurrency",
                f"{m.group(0)} outside src/common//src/runtime/; use the "
                "annotated wrappers in common/mutex.hpp or "
                "common::parallel_for_workers",
            )
        )
    return findings


# --------------------------------------------------------------------------
# Rule: raw-sockets
# --------------------------------------------------------------------------


def check_raw_sockets(src: SourceFile, _all: list[SourceFile]) -> list[Finding]:
    if not src.rel.startswith("src/") or in_dirs(src.rel, RAW_SOCKETS_EXEMPT_DIRS):
        return []
    findings = []
    for m in RAW_SOCKETS_RE.finditer(src.scrubbed):
        call = m.group(0).rstrip("( \t").lstrip(": \t")
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "raw-sockets",
                f"raw socket call {call}() outside src/net/; wire I/O goes "
                "through net::Server / net::Client so framing and fd "
                "lifetimes stay in one module",
            )
        )
    return findings


# --------------------------------------------------------------------------
# Rule: process-spawn
# --------------------------------------------------------------------------


def check_process_spawn(src: SourceFile, _all: list[SourceFile]) -> list[Finding]:
    if not src.rel.startswith("src/") or in_dirs(src.rel, PROCESS_SPAWN_EXEMPT_DIRS):
        return []
    findings = []
    for m in PROCESS_SPAWN_RE.finditer(src.scrubbed):
        call = m.group(0).rstrip("( \t").lstrip(": \t")
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "process-spawn",
                f"process lifecycle call {call}() outside src/cluster/; "
                "forking/reaping workers belongs to cluster::Spawner so "
                "child-process state stays in one supervised place",
            )
        )
    return findings


# --------------------------------------------------------------------------
# Rule: fault-points
# --------------------------------------------------------------------------


def check_fault_points(src: SourceFile, _all: list[SourceFile]) -> list[Finding]:
    if not src.rel.startswith("src/") or src.rel in FAULT_POINTS_EXEMPT_FILES:
        return []
    findings = []
    for m in FAULT_ARMING_RE.finditer(src.scrubbed):
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "fault-points",
                f"fault-plan arming call fault::{m.group(1)}() outside "
                "src/common/fault.cpp; production code marks seams with "
                "GAURAST_FAULT_POINT / fault::evaluate only — arming "
                "belongs to the fault module and test code",
            )
        )
    for m in FAULT_GETENV_RE.finditer(src.scrubbed):
        # The scrubbed match proves this is code (not a comment/string);
        # the raw window recovers the blanked literal argument.
        if "GAURAST_FAULT_PLAN" not in src.text[m.start() : m.start() + 200]:
            continue
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "fault-points",
                "GAURAST_FAULT_PLAN env read outside src/common/fault.cpp; "
                "the one sanctioned reader is fault::arm_from_env()",
            )
        )
    return findings


# --------------------------------------------------------------------------
# Rule: half-confinement
# --------------------------------------------------------------------------


def check_half_confinement(
    src: SourceFile, _all: list[SourceFile]
) -> list[Finding]:
    if not src.rel.startswith("src/") or src.rel in HALF_CONFINEMENT_EXEMPT_FILES:
        return []
    findings = []
    for m in HALF_BITS_RE.finditer(src.scrubbed):
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "half-confinement",
                f"raw fp16 bit conversion {m.group(1)}() outside "
                "src/common/half.{hpp,cpp} and src/scene/quantized.cpp; "
                "use common::Half / common::round_to_half so rounding and "
                "NaN/Inf policy stay in the half module",
            )
        )
    return findings


# --------------------------------------------------------------------------
# Rule: simd-confinement
# --------------------------------------------------------------------------


def check_simd_confinement(
    src: SourceFile, _all: list[SourceFile]
) -> list[Finding]:
    if not src.rel.startswith("src/") or src.rel in SIMD_CONFINEMENT_EXEMPT_FILES:
        return []
    findings = []
    for m in SIMD_RE.finditer(src.scrubbed):
        what = next(g for g in m.groups() if g is not None)
        findings.append(
            Finding(
                src.path,
                line_of(src.scrubbed, m.start()),
                "simd-confinement",
                f"explicit SIMD ({what}) outside "
                "src/pipeline/raster_fast.cpp; only that file is built with "
                "-ffp-contract=off, which keeps a*b + c from becoming an FMA "
                "and changing bits the reference kernel must match",
            )
        )
    return findings


# --------------------------------------------------------------------------
# Rule: check-in-kernel-loop
# --------------------------------------------------------------------------

_LOOP_TOKEN_RE = re.compile(
    r"GAURAST_DCHECK_MSG|GAURAST_DCHECK|GAURAST_CHECK_MSG|GAURAST_CHECK"
    r"|\bfor\b|\bwhile\b|\bdo\b|[{}();]"
)


def check_kernel_loops(src: SourceFile, _all: list[SourceFile]) -> list[Finding]:
    if not in_dirs(src.rel, KERNEL_DIRS):
        return []
    findings = []
    depth = 0
    loop_body_depths: list[int] = []
    # pending states: None | "head" (inside for/while parens) | "body"
    # (head parsed, loop body is the next statement or brace block).
    pending: str | None = None
    paren_depth = 0
    for m in _LOOP_TOKEN_RE.finditer(src.scrubbed):
        tok = m.group(0)
        if tok in ("for", "while"):
            pending, paren_depth = "head", 0
        elif tok == "do":
            pending = "body"
        elif tok == "(":
            if pending == "head":
                paren_depth += 1
        elif tok == ")":
            if pending == "head":
                paren_depth -= 1
                if paren_depth == 0:
                    pending = "body"
        elif tok == "{":
            depth += 1
            if pending == "body":
                loop_body_depths.append(depth)
                pending = None
        elif tok == "}":
            if loop_body_depths and loop_body_depths[-1] == depth:
                loop_body_depths.pop()
            depth = max(0, depth - 1)
        elif tok == ";":
            # Ends a braceless loop body ("for (...) stmt;") or a do-while
            # tail ("} while (cond);").
            if pending == "body":
                pending = None
        elif tok in ("GAURAST_CHECK", "GAURAST_CHECK_MSG"):
            if loop_body_depths or pending == "body":
                findings.append(
                    Finding(
                        src.path,
                        line_of(src.scrubbed, m.start()),
                        "check-in-kernel-loop",
                        f"{tok} inside a kernel loop body; per-element "
                        "validation must use GAURAST_DCHECK so release "
                        "builds stay branch-free",
                    )
                )
        # GAURAST_DCHECK*: explicitly matched so it can't alias a loop token;
        # always allowed.
    return findings


# --------------------------------------------------------------------------
# Rule: backend-registration
# --------------------------------------------------------------------------


def check_backend_registration(
    src: SourceFile, all_sources: list[SourceFile]
) -> list[Finding]:
    if not src.rel.startswith("src/"):
        return []
    subclasses = list(BACKEND_SUBCLASS_RE.finditer(src.scrubbed))
    if not subclasses:
        return []
    registry = next((s for s in all_sources if s.rel == REGISTRY_SOURCE), None)
    registry_text = registry.scrubbed if registry else ""
    findings = []
    for m in subclasses:
        name = m.group(1)
        ctor = re.compile(r"\bmake_unique<\s*" + re.escape(name) + r"\s*>")
        if not ctor.search(registry_text):
            findings.append(
                Finding(
                    src.path,
                    line_of(src.scrubbed, m.start()),
                    "backend-registration",
                    f"RenderBackend subclass {name} is not constructed in "
                    f"{REGISTRY_SOURCE}; register it (or it is unreachable "
                    "through the engine backend API)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: mutex-guard-coverage
# --------------------------------------------------------------------------


def check_mutex_guard_coverage(
    src: SourceFile, _all: list[SourceFile]
) -> list[Finding]:
    if not src.rel.startswith("src/") or not src.rel.endswith((".hpp", ".h")):
        return []
    if in_dirs(src.rel, ("src/common",)):
        return []  # the wrapper's own home; nothing is guarded there
    findings = []
    for m in MUTEX_MEMBER_RE.finditer(src.scrubbed):
        name = re.escape(m.group(1))
        used = re.search(
            r"GAURAST_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
            r"TRY_ACQUIRE|EXCLUDES)\s*\([^)]*\b" + name + r"\b",
            src.scrubbed,
        )
        if not used:
            findings.append(
                Finding(
                    src.path,
                    line_of(src.scrubbed, m.start(1)),
                    "mutex-guard-coverage",
                    f"mutex member {m.group(1)} has no GAURAST_GUARDED_BY / "
                    "REQUIRES / EXCLUDES reference in this header; annotate "
                    "the state it protects",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: orphan-module
# --------------------------------------------------------------------------


def check_orphan_module(
    src: SourceFile, all_sources: list[SourceFile]
) -> list[Finding]:
    if not src.rel.startswith("src/") or not src.rel.endswith((".hpp", ".h")):
        return []
    own_cpp = posixpath.splitext(src.rel)[0] + ".cpp"
    for other in all_sources:
        if other.rel in (src.rel, own_cpp) or not in_dirs(other.rel, INCLUDER_DIRS):
            continue
        if src.rel in other.includes:
            return []
    return [
        Finding(
            src.path,
            1,
            "orphan-module",
            f"{src.rel} has no includer in src/ (besides its own .cpp), "
            "tools/, bench/, examples/ or perfbench/; nothing ships it, so "
            "delete it with the tests that only exercise it",
        )
    ]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RuleFn = Callable[[SourceFile, list[SourceFile]], list[Finding]]

RULES: dict[str, tuple[str, RuleFn]] = {
    "raw-concurrency": (
        "raw std:: threading primitives outside src/common//src/runtime/",
        check_raw_concurrency,
    ),
    "raw-sockets": (
        "raw socket / epoll syscalls outside src/net/",
        check_raw_sockets,
    ),
    "process-spawn": (
        "fork/exec*/wait* process syscalls outside src/cluster/",
        check_process_spawn,
    ),
    "fault-points": (
        "fault-plan arming / GAURAST_FAULT_PLAN reads outside src/common/fault.cpp",
        check_fault_points,
    ),
    "half-confinement": (
        "raw fp16 bit conversions outside src/common/half and the quantizer",
        check_half_confinement,
    ),
    "simd-confinement": (
        "explicit SIMD (intrinsics, vector types, target attributes) outside "
        "src/pipeline/raster_fast.cpp",
        check_simd_confinement,
    ),
    "check-in-kernel-loop": (
        "GAURAST_CHECK inside loop bodies in src/pipeline//src/gsmath/",
        check_kernel_loops,
    ),
    "backend-registration": (
        "RenderBackend subclass not constructed in src/engine/registry.cpp",
        check_backend_registration,
    ),
    "mutex-guard-coverage": (
        "common::Mutex header member with no thread-safety annotation",
        check_mutex_guard_coverage,
    ),
    "orphan-module": (
        "src/ header with no includer outside tests/ and its own .cpp",
        check_orphan_module,
    ),
}


def cpp_files(root: Path, tops: Iterable[str]) -> list[Path]:
    files = []
    for top in tops:
        base = root / top
        if base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*")) if p.suffix in CPP_SUFFIXES
            )
    return files


def discover(root: Path) -> list[Path]:
    return cpp_files(root, ("src",))


def lint(root: Path, paths: list[Path]) -> list[Finding]:
    sources = [load_source(root, p) for p in paths]
    # backend-registration needs registry.cpp and orphan-module needs every
    # includer tree, even when linting a subset of files. These context
    # files are read but not linted.
    loaded = {s.rel for s in sources}
    context_only = set()
    for path in cpp_files(root, INCLUDER_DIRS):
        rel = path.relative_to(root).as_posix()
        if rel not in loaded:
            sources.append(load_source(root, path))
            context_only.add(rel)

    findings: list[Finding] = []
    for src in sources:
        if src.rel in context_only:
            continue
        for rule_id, (_desc, fn) in RULES.items():
            for f in fn(src, sources):
                if rule_id in src.waivers.get(f.line, set()):
                    continue
                findings.append(f)
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_invariants.py",
        description="gaurast project invariant linter (static-analysis layer 3)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="specific files to lint (default: all C++ sources under <root>/src)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, (desc, _fn) in RULES.items():
            print(f"{rule_id:22} {desc}")
        return 0

    root = args.root.resolve()
    if not root.is_dir():
        print(f"lint_invariants.py: no such root: {root}", file=sys.stderr)
        return 2

    if args.paths:
        paths = []
        for p in args.paths:
            p = p.resolve()
            if not p.is_file():
                print(f"lint_invariants.py: no such file: {p}", file=sys.stderr)
                return 2
            if p.suffix in CPP_SUFFIXES and root in p.parents:
                paths.append(p)
    else:
        paths = discover(root)

    findings = lint(root, paths)
    for f in findings:
        rel = f.path.relative_to(root).as_posix()
        print(f"{rel}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"lint_invariants.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants.py: {len(paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
