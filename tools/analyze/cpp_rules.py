"""The concrete project-invariant rules.

Each rule maps to a bug class this codebase has actually been designed
against (rule -> bug-class table in DESIGN.md section 16). The first
five are ports of the historical tools/lint.py rules onto the real
lexer; the rest encode contracts that earlier PRs stated only in prose.

Path scoping is repo-relative posix. Fixture tests under
tools/analyze/fixtures/ pin both the firing and the non-firing side of
every rule; change a rule here and the fixtures tell you what you
changed.
"""

from __future__ import annotations

import posixpath
import re
from typing import Iterator

from tools.analyze.rules import Finding, SourceFile, register

# --- shared path scopes ----------------------------------------------------

# Files allowed to allocate directly: the pool implementations.
POOL_FILES = {
    "src/sim/request_pool.h",
}

# std::function is banned here: the simulator core and the allocator's
# per-candidate hot paths.
HOT_PATH_PREFIXES = (
    "src/sim/",
    "src/alloc/delta_price",
    "src/alloc/share_policy",
    "src/alloc/assign_distribute",
    "src/alloc/reassign",
)

# Test sources may use assert/gtest/raw threads/raw mutexes freely:
# exercising concurrency from the outside is their job.
TEST_PREFIXES = ("tests/",)

# The only home for SIMD lane types and intrinsics (see common/simd.h).
SIMD_HOME_PREFIXES = ("src/common/",)

# The only home for raw thread spawning (see dist/thread_pool.h).
THREAD_HOME_PREFIXES = ("src/dist/",)

# The only home for raw std::mutex / std::condition_variable: the
# annotated capability wrappers.
SYNC_HOME = "src/common/sync.h"

# Kernel translation units where sequential float accumulation order is
# part of the bit-identity contract (DESIGN.md sections 8/13).
KERNEL_PREFIXES = ("src/queueing/", "src/alloc/", "src/model/", "src/sim/")


def _in_src(rel: str) -> bool:
    return rel.startswith("src/")


def _is_test(rel: str) -> bool:
    return rel.startswith(TEST_PREFIXES)


# --- ported rules ----------------------------------------------------------

_NAKED_NEW_RE = re.compile(r"(?:^|[^:_\w.])new\s+[A-Za-z_(]|\bmalloc\s*\(")


@register(
    "naked-new",
    "direct heap allocation outside the dedicated pool allocators")
def naked_new(source: SourceFile) -> Iterator[Finding]:
    if source.rel in POOL_FILES:
        return
    for line in source.lines:
        if _NAKED_NEW_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "naked-new",
                "direct heap allocation; use the pool allocators or a "
                "container (see sim/request_pool.h)")


_STD_FUNCTION_RE = re.compile(r"\bstd::function\b")


@register(
    "std-function",
    "type-erased callables in the simulator core / allocator hot paths")
def std_function(source: SourceFile) -> Iterator[Finding]:
    if not source.rel.startswith(HOT_PATH_PREFIXES):
        return
    for line in source.lines:
        if _STD_FUNCTION_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "std-function",
                "type-erased callable in a hot path; use a template "
                "parameter or the typed-event core (sim/event.h)")


_BARE_ASSERT_RE = re.compile(r"(?:^|[^_\w.])assert\s*\(")


@register(
    "bare-assert",
    "assert() in non-test sources vanishes under NDEBUG")
def bare_assert(source: SourceFile) -> Iterator[Finding]:
    if _is_test(source.rel):
        return
    for line in source.lines:
        if _BARE_ASSERT_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "bare-assert",
                "assert() vanishes under NDEBUG; use CHECK/CHECK_MSG "
                "from common/check.h")


_RAW_INTRINSICS_RE = re.compile(
    r"immintrin\.h|\b_mm\d*_\w+|__m(?:128|256|512)[id]?\b"
    r"|__builtin_ia32_\w+|\bvector_size\b")


@register(
    "raw-intrinsics",
    "SIMD intrinsics / vector extensions outside common/simd.h's home")
def raw_intrinsics(source: SourceFile) -> Iterator[Finding]:
    if source.rel.startswith(SIMD_HOME_PREFIXES):
        return
    for line in source.lines:
        if _RAW_INTRINSICS_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "raw-intrinsics",
                "raw intrinsics / vector extensions outside src/common/; "
                "write kernels against common/simd.h so the bit-identity "
                "contract holds")


# std::thread spawns; the lookahead spares
# std::thread::hardware_concurrency (a query, not a spawn).
_RAW_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!::)|\bstd::async\s*\(")


@register(
    "raw-thread",
    "ad-hoc std::thread/std::async outside the fan-out pool's home")
def raw_thread(source: SourceFile) -> Iterator[Finding]:
    if _is_test(source.rel) or source.rel.startswith(THREAD_HOME_PREFIXES):
        return
    for line in source.lines:
        if _RAW_THREAD_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "raw-thread",
                "ad-hoc thread spawn outside src/dist/; run work through "
                "dist::ThreadPool (shared() for repeated solves) so "
                "determinism and exception contracts hold")


# --- new rules -------------------------------------------------------------

_NAKED_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable(?:_any)?)\b")


@register(
    "naked-mutex",
    "raw std:: synchronization primitives outside common/sync.h")
def naked_mutex(source: SourceFile) -> Iterator[Finding]:
    """common/sync.h wraps every primitive with Clang Thread Safety
    Analysis capability annotations; a naked std::mutex elsewhere opts
    its critical sections out of -Wthread-safety entirely. Tests are
    exempt (they exercise concurrency from the outside)."""
    if not _in_src(source.rel) or source.rel == SYNC_HOME:
        return
    for line in source.lines:
        if _NAKED_MUTEX_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "naked-mutex",
                "raw std:: synchronization primitive outside "
                "common/sync.h; use sync::Mutex / sync::MutexLock / "
                "sync::CondVar so clang -Wthread-safety sees the lock "
                "discipline")


_UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*"
    r"(?P<name>\w+)\s*[;({=]")
_UNORDERED_TYPE_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*(?P<expr>[^)]+)\)")
_BEGIN_CALL_RE = re.compile(r"\b(?P<name>\w+)\s*\.\s*c?begin\s*\(")


@register(
    "unordered-iteration",
    "iteration over unordered containers in deterministic paths")
def unordered_iteration(source: SourceFile) -> Iterator[Finding]:
    """Hash-map iteration order is libstdc++-version- and seed-dependent;
    anything it feeds — profits, reports, wire bytes — stops being
    bit-reproducible. Point lookups are fine; iteration is not. The
    scope is all of src/ because every src/ path can feed profit or a
    serialized report (the seed tree is fully ordered-container based).
    """
    if not _in_src(source.rel):
        return
    declared: set[str] = set()
    for line in source.lines:
        for m in _UNORDERED_DECL_RE.finditer(line.code):
            declared.add(m.group("name"))
        for m in _RANGE_FOR_RE.finditer(line.code):
            expr = m.group("expr").strip()
            token = re.sub(r"[&*\s]", "", expr.split(".")[0].split("->")[0])
            if token in declared or _UNORDERED_TYPE_RE.search(expr):
                yield Finding(
                    source.rel, line.lineno, "unordered-iteration",
                    "range-for over an unordered container: iteration "
                    "order is not deterministic; use std::map/std::vector "
                    "or sort the keys first")
        for m in _BEGIN_CALL_RE.finditer(line.code):
            if m.group("name") in declared:
                yield Finding(
                    source.rel, line.lineno, "unordered-iteration",
                    "iterator walk over an unordered container: iteration "
                    "order is not deterministic; use std::map/std::vector "
                    "or sort the keys first")


# Copy-construction forms: `Allocation x = y;` (initializer with no call
# parens) and `Allocation x(y)` / `Allocation x{y}` with a lone
# identifier argument. Arguments naming the cloud are the explicit
# from-Cloud constructor, not a copy.
_ALLOC_COPY_INIT_RE = re.compile(
    r"\b(?:model::)?Allocation\s+\w+\s*=\s*(?P<init>[^;(]+);")
_ALLOC_COPY_CTOR_RE = re.compile(
    r"\b(?:model::)?Allocation\s+\w+\s*[({]\s*(?P<arg>\w+)\s*[)}]")
_CLONE_CALL_RE = re.compile(r"\.\s*clone\s*\(\s*\)")


@register(
    "allocation-copy",
    "Allocation deep copies outside the documented clone boundaries")
def allocation_copy(source: SourceFile) -> Iterator[Finding]:
    """An Allocation copy is thirteen server-length arrays plus the
    per-client placement rows — the exact traffic PRs 2-3 removed from
    the hot paths. The only sanctioned copies are the two documented
    clone() boundaries (agent snapshot, greedy-base construction), each
    carrying an inline waiver. clone() calls are only attributed in
    files that mention Allocation at all, so other types' clone()
    methods (e.g. epoch predictors) never false-positive."""
    if not _in_src(source.rel) or source.rel == "src/model/allocation.h":
        return
    mentions_allocation = "Allocation" in source.code_text()
    for line in source.lines:
        m = _ALLOC_COPY_INIT_RE.search(line.code)
        if m is not None:
            yield Finding(
                source.rel, line.lineno, "allocation-copy",
                "Allocation copy-initialization from an lvalue; price "
                "deltas against the existing state (alloc::MoveEngine) "
                "or go through a documented clone() boundary")
        m = _ALLOC_COPY_CTOR_RE.search(line.code)
        if m is not None and "cloud" not in m.group("arg").lower():
            yield Finding(
                source.rel, line.lineno, "allocation-copy",
                "Allocation copy construction; price deltas against the "
                "existing state (alloc::MoveEngine) or go through a "
                "documented clone() boundary")
        if mentions_allocation and _CLONE_CALL_RE.search(line.code):
            yield Finding(
                source.rel, line.lineno, "allocation-copy",
                "clone() outside the documented boundaries (agent "
                "snapshot, greedy-base construction); new boundaries "
                "need a waiver with a justification")


@register(
    "float-accumulate",
    "std::accumulate over floats in kernel translation units")
def float_accumulate(source: SourceFile) -> Iterator[Finding]:
    """std::accumulate's fold order and init-type promotion are easy to
    change silently (an int init truncates doubles; a refactor to a
    different execution policy reorders the sum). Kernel TUs carry the
    bit-identity contract, so sums there are written as explicit
    sequential loops (or through common/simd.h horizontal adds, which
    pin the lane-reduction order)."""
    if not source.rel.startswith(KERNEL_PREFIXES):
        return
    for line in source.lines:
        if "std::accumulate" in line.code:
            yield Finding(
                source.rel, line.lineno, "float-accumulate",
                "std::accumulate in a kernel TU; write the reduction as "
                "an explicit sequential loop so the fold order is part "
                "of the code, not the library")


# --- layering --------------------------------------------------------------

# Include-graph layers, lowest first. An include is legal iff the target
# layer is <= the including file's layer. Derived from the actual
# dependency structure (DESIGN.md section 16):
#
#   common -> queueing -> model -> opt -> workload
#     -> [exec infra: thread_pool / parallel_eval / mailbox]
#     -> alloc -> {dist, baselines, epoch, sim} -> multitier -> serve
#
# The dist/ directory deliberately spans two layers: the execution
# infrastructure (ThreadPool, ParallelEval, Mailbox) sits BELOW alloc —
# the allocator fans out onto it — while the message-passing manager /
# agents / protocol sit above alloc. The file-level overrides encode
# that split; everything else is directory-granular.
DIR_LAYERS = {
    "common": 0,
    "queueing": 10,
    "model": 20,
    "opt": 25,
    "workload": 30,
    "alloc": 40,
    "dist": 50,
    "baselines": 50,
    "epoch": 50,
    "sim": 50,
    "multitier": 55,
    "serve": 60,
}

FILE_LAYERS = {
    "dist/thread_pool.h": 35,
    "dist/thread_pool.cpp": 35,
    "dist/parallel_eval.h": 35,
    "dist/mailbox.h": 35,
}


def _layer_of(rel_to_src: str) -> int | None:
    if rel_to_src in FILE_LAYERS:
        return FILE_LAYERS[rel_to_src]
    top = rel_to_src.split("/", 1)[0]
    return DIR_LAYERS.get(top)


@register(
    "layering",
    "include-graph back-edges against the documented layer order")
def layering(source: SourceFile) -> Iterator[Finding]:
    if not _in_src(source.rel):
        return
    rel_to_src = posixpath.relpath(source.rel, "src")
    own = _layer_of(rel_to_src)
    if own is None:
        return
    for line in source.lines:
        if line.include is None or "/" not in line.include:
            continue  # system headers and flat includes are out of scope
        target = _layer_of(line.include)
        if target is None:
            continue
        if target > own:
            yield Finding(
                source.rel, line.lineno, "layering",
                f"include of '{line.include}' (layer {target}) from layer "
                f"{own}: back-edge against the documented layer order "
                "(see DESIGN.md section 16); invert the dependency or "
                "move the shared piece down")
