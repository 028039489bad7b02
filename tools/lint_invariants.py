#!/usr/bin/env python3
"""Repo-invariant linter for dbscout.

Enforces, statically, the contracts that the compiler cannot:

  simd-fma           No FMA intrinsics, std::fma, or fp-contract overrides in
                     src/simd/ (the distance kernels' bit-exactness contract,
                     DESIGN.md section 7: FMA rounds once and can flip
                     `<= eps2` decisions on boundary points, so scalar and
                     SIMD variants would disagree).
  simd-cap-boundary  Early-exit `cap` comparisons in src/simd/ must sit at
                     batch boundaries, asserted by a
                     `kernel-cap: batch-boundary` marker comment on or
                     directly above the comparison. A cap check inside the
                     per-point tail loop would make the amount of work (and
                     thus the returned count) variant-dependent.
  raw-thread         No raw std::thread / std::jthread / std::async /
                     pthread_create outside src/common/thread_pool.*; all
                     parallelism must flow through ThreadPool so sanitizer
                     runs, shutdown, and reentrancy rules cover it.
                     (Querying std::thread::hardware_concurrency and
                     std::this_thread are allowed.)
  pool-fanout        No ThreadPool::Submit( or WaitIdle( in src/ outside
                     src/common/thread_pool.*, src/service/server.cc and
                     src/service/service.cc. Loops fan out through
                     ParallelForDynamic / RunTasks (common/thread_pool.h),
                     which wait for their own tasks and nest per pool;
                     Submit and WaitIdle are for the long-lived accept,
                     session and apply loops and their shutdown, where a
                     pool-wide barrier cannot wait on someone else's work.
  raw-rng            No rand()/srand()/std::random_device/drand48 outside
                     src/common/rng.*; experiments must be reproducible from
                     a seed.
  discarded-status   Status/Result must stay [[nodiscard]] in the headers,
                     and a statement consisting solely of a call to a
                     function declared to return Status/Result<T> (a
                     best-effort, single-line heuristic; the compiler is the
                     real enforcement) is flagged.
  phase-logic-locality
                     The Lemma 1/2 decision logic (phases 2-5) lives only in
                     src/core/phases/. Engine and grid code must not
                     re-derive the verdicts: no comparisons against min_pts
                     other than literal validation (call phases::IsDense /
                     CrossesDensityThreshold), no branching on the
                     cell_dense[]/cell_core[] flag arrays (populating them
                     is fine; read them through phases::IsDenseCell /
                     IsCoreCell or pass them to the cell kernels), and no
                     call of the per-cell phase kernels CoreScanCell,
                     OutlierScanCell, CountCoreCell or FillSparseCoreCell
                     (engines run phases 2-5 through phases::RunPhases, so
                     the phase loop exists once). Scope:
                     src/core (minus src/core/phases/), src/external,
                     src/grid, src/service (the serving layer answers from
                     snapshots and must not re-classify), src/storage (WAL
                     replay re-applies points through the normal pipeline
                     and must not re-derive labels); baselines are
                     independent implementations by design and exempt.
  hot-path-purity    The scan kernels must stay wait-free and silent: no
                     DBSCOUT_LOG / DBSCOUT_CHECK streaming and no mutex
                     acquisition (std::mutex, lock_guard, unique_lock,
                     scoped_lock, shared_mutex, .lock(), pthread_mutex_*)
                     inside src/simd/ or the phase kernels
                     (src/core/phases/phase_kernels.* and the sharded-apply
                     insert kernels src/core/phases/insert_kernels.*, which
                     run inside concurrent slab-block shard tasks where a
                     lock would serialize the waves). Observability for
                     these paths flows through the sharded obs::Counter
                     cells and the PhaseRecorder, which publish outside the
                     scan loops.
                     phase_recorder.h / driver.* orchestrate around the
                     kernels and are out of scope.
  neighbor-discovery-locality
                     Every engine finds neighbor cells (Definition 8)
                     through grid::NeighborCells or grid::CellIndex, whose
                     cost is bounded by the occupied cells. No iteration over
                     NeighborStencil::offsets and no GetNeighborStencil
                     call in src/ outside src/grid/ (the stencil's home,
                     Grid::ForEachNeighborCell, and grid::CellIndex, the
                     live detector's sorted cell index, which finds a new
                     cell's neighbors with the same gap-pruned descent).

A finding on a given line is waived by `lint:allow(<rule>)` in a comment on
that line; use sparingly and justify next to the waiver.

Usage:
  lint_invariants.py --root /path/to/repo   # lint the tree (default: cwd)
  lint_invariants.py --self-test            # verify each rule catches a
                                            # seeded violation and passes a
                                            # clean snippet

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterable, List, NamedTuple, Tuple

CXX_EXTENSIONS = (".cc", ".cpp", ".h", ".hpp")
SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")

WAIVER_RE = re.compile(r"lint:allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

CAP_MARKER = "kernel-cap: batch-boundary"


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line: str) -> str:
    """Drops a trailing // comment (naive: ignores // inside string
    literals, which does not occur in this codebase's flagged patterns)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def waived(line: str, rule: str) -> bool:
    m = WAIVER_RE.search(line)
    if not m:
        return False
    rules = [r.strip() for r in m.group(1).split(",")]
    return rule in rules


# ---------------------------------------------------------------------------
# Rule: simd-fma
# ---------------------------------------------------------------------------

FMA_TOKEN_RE = re.compile(
    r"(_mm\d*_f(?:n?m(?:add|sub))_p[sd]"  # _mm256_fmadd_pd etc.
    r"|\bvf?n?madd\d*[ps][sd]\b"  # raw mnemonics in asm blocks
    r"|std::fmaf?\b"
    r"|__builtin_fmaf?\b)"
)
FMA_TARGET_RE = re.compile(r"target\s*\(\s*\"[^\"]*\bfma\b[^\"]*\"")
FP_CONTRACT_SRC_RE = re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+(ON|DEFAULT)")
FP_CONTRACT_FLAG_RE = re.compile(r"-ffp-contract=(?!off\b)\w+")


def check_simd_fma(path: str, lines: List[str]) -> Iterable[Finding]:
    rule = "simd-fma"
    is_cmake = os.path.basename(path).startswith("CMakeLists")
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        if is_cmake:
            m = FP_CONTRACT_FLAG_RE.search(line.split("#", 1)[0])
            if m:
                yield Finding(path, i, rule,
                              f"fp-contract override '{m.group(0)}' in SIMD "
                              "build flags (only -ffp-contract=off is allowed)")
            continue
        code = strip_line_comment(line)
        m = FMA_TOKEN_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"FMA operation '{m.group(0)}' violates the "
                          "kernel bit-exactness contract (use separate "
                          "mul+add)")
        m = FMA_TARGET_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          "function target enables the fma instruction set; "
                          "kernels must be compiled without FMA codegen")
        m = FP_CONTRACT_SRC_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          "FP_CONTRACT pragma re-enables contraction inside "
                          "the kernel translation unit")


# ---------------------------------------------------------------------------
# Rule: simd-cap-boundary
# ---------------------------------------------------------------------------

CAP_COMPARE_RE = re.compile(
    r"(\bcap\s*(==|!=|<=|>=|<|>)|(==|!=|<=|>=|<|>)\s*cap\b)")


def check_simd_cap_boundary(path: str, lines: List[str]) -> Iterable[Finding]:
    rule = "simd-cap-boundary"
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        code = strip_line_comment(line)
        if not CAP_COMPARE_RE.search(code):
            continue
        # The marker must appear on the line itself or one of the two lines
        # directly above (the marker comment may be two physical lines).
        window = lines[max(0, i - 3):i]
        if not any(CAP_MARKER in w for w in window):
            yield Finding(
                path, i, rule,
                "cap comparison without a preceding "
                f"'// {CAP_MARKER}' marker: early exit is only allowed "
                "between kKernelBatch-sized batches so every kernel variant "
                "performs identical work")


# ---------------------------------------------------------------------------
# Rule: raw-thread
# ---------------------------------------------------------------------------

RAW_THREAD_RE = re.compile(
    r"(std::thread\b(?!::hardware_concurrency)"
    r"|std::jthread\b"
    r"|std::async\b"
    r"|\bpthread_create\b)")
THREAD_POOL_FILES = ("src/common/thread_pool.h", "src/common/thread_pool.cc")


def check_raw_thread(path: str, lines: List[str]) -> Iterable[Finding]:
    rule = "raw-thread"
    if path.replace(os.sep, "/") in THREAD_POOL_FILES:
        return
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        code = strip_line_comment(line)
        m = RAW_THREAD_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"raw '{m.group(0)}' outside "
                          "src/common/thread_pool.*: route parallelism "
                          "through ThreadPool (sanitizer coverage, shutdown "
                          "and reentrancy guarantees)")


# ---------------------------------------------------------------------------
# Rule: pool-fanout
# ---------------------------------------------------------------------------

POOL_FANOUT_RE = re.compile(r"\b(?:Submit|WaitIdle)\s*\(")
POOL_FANOUT_HOMES = THREAD_POOL_FILES + ("src/service/server.cc",
                                         "src/service/service.cc")


def check_pool_fanout(path: str, lines: List[str]) -> Iterable[Finding]:
    rule = "pool-fanout"
    norm = path.replace(os.sep, "/")
    if not norm.startswith("src/") or norm in POOL_FANOUT_HOMES:
        return
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        m = POOL_FANOUT_RE.search(strip_line_comment(line))
        if m:
            yield Finding(path, i, rule,
                          f"'{m.group(0).strip()}' outside the long-lived "
                          "server and apply loops: fan a loop out with "
                          "RunTasks / ParallelForDynamic "
                          "(common/thread_pool.h), which wait for their own "
                          "tasks only and nest per pool")


# ---------------------------------------------------------------------------
# Rule: raw-rng
# ---------------------------------------------------------------------------

RAW_RNG_RE = re.compile(
    r"(\bs?rand\s*\(|std::random_device\b|\bdrand48\s*\(|\brandom\s*\(\s*\))")
RNG_FILES = ("src/common/rng.h", "src/common/rng.cc")


def check_raw_rng(path: str, lines: List[str]) -> Iterable[Finding]:
    rule = "raw-rng"
    if path.replace(os.sep, "/") in RNG_FILES:
        return
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        code = strip_line_comment(line)
        m = RAW_RNG_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"non-deterministic RNG '{m.group(0).strip()}' "
                          "outside src/common/rng.*: use dbscout::Rng so "
                          "every run is reproducible from a seed")


# ---------------------------------------------------------------------------
# Rule: discarded-status
# ---------------------------------------------------------------------------

# Declarations like `<ReturnType> Foo(...)`, possibly preceded by
# static/virtual/friend/etc. The return type is captured so names can be
# partitioned into "returns Status/Result" vs "returns something else";
# names with overloads in both camps are ambiguous to a text-level check
# and are skipped (the compiler's [[nodiscard]] still covers them).
FN_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|friend\s+|inline\s+|constexpr\s+)*"
    r"((?:::)?[A-Za-z_][\w:]*(?:<[^;(){}]*>)?(?:\s*[&*])?)\s+"
    r"([A-Za-z_]\w*)\s*\(")
STATUS_TYPE_RE = re.compile(r"^(?:::)?(?:dbscout::)?(?:Status|Result<)")
DECL_NON_NAMES = {"if", "for", "while", "switch", "return", "else", "case",
                  "new", "delete", "sizeof", "do"}

# A statement that is nothing but a (possibly qualified) call:
#   Foo(...);   obj.Foo(...);   ns::Foo(...);   ptr->Foo(...);
BARE_CALL_TMPL = (r"^\s*(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*"
                  r"({names})\s*\(.*\)\s*;\s*$")

NODISCARD_REQUIRED = {
    "src/common/status.h": "class [[nodiscard]] Status",
    "src/common/result.h": "class [[nodiscard]] Result",
}

DISCARD_SCAN_SKIP_NAMES = {"Result", "Status", "OK"}


def collect_status_returning_names(files: Iterable[Tuple[str, List[str]]]
                                   ) -> set:
    status_names = set()
    other_names = set()
    for path, lines in files:
        if not path.endswith((".h", ".hpp")):
            continue
        for line in lines:
            m = FN_DECL_RE.match(strip_line_comment(line))
            if not m or m.group(2) in DECL_NON_NAMES:
                continue
            if STATUS_TYPE_RE.match(m.group(1)):
                status_names.add(m.group(2))
            else:
                other_names.add(m.group(2))
    return status_names - other_names - DISCARD_SCAN_SKIP_NAMES


def is_fresh_statement(lines: List[str], i: int) -> bool:
    """True when 1-based line i starts a new statement (the previous code
    line ended one): guards against flagging the continuation lines of a
    multi-line call or macro invocation such as DBSCOUT_ASSIGN_OR_RETURN."""
    for j in range(i - 2, -1, -1):
        prev = strip_line_comment(lines[j]).strip()
        if not prev:
            continue
        return prev.endswith((";", "{", "}", ":")) or prev.startswith("#")
    return True


def make_check_discarded_status(files: List[Tuple[str, List[str]]]
                                ) -> Callable[[str, List[str]],
                                              Iterable[Finding]]:
    names = collect_status_returning_names(files)
    bare_call_re = (re.compile(
        BARE_CALL_TMPL.format(names="|".join(sorted(names))))
        if names else None)

    def check(path: str, lines: List[str]) -> Iterable[Finding]:
        rule = "discarded-status"
        norm = path.replace(os.sep, "/")
        if norm in NODISCARD_REQUIRED:
            needle = NODISCARD_REQUIRED[norm]
            if not any(needle in line for line in lines):
                yield Finding(path, 1, rule,
                              f"expected '{needle}' — the [[nodiscard]] "
                              "attribute is the compile-time half of this "
                              "check and must not be dropped")
        if bare_call_re is None:
            return
        for i, line in enumerate(lines, 1):
            if waived(line, rule):
                continue
            code = strip_line_comment(line)
            m = bare_call_re.match(code)
            if (m and code.count("(") == code.count(")")
                    and is_fresh_statement(lines, i)):
                yield Finding(path, i, rule,
                              f"return value of '{m.group(1)}' (Status/"
                              "Result) is discarded; check it, propagate "
                              "it, or cast to void with a comment")

    return check


# ---------------------------------------------------------------------------
# Rule: phase-logic-locality
# ---------------------------------------------------------------------------

PHASE_HOME = "src/core/phases/"
PHASE_SCOPE_PREFIXES = ("src/core/", "src/external/", "src/grid/",
                        "src/service/", "src/storage/")

# A comparison operator that is not part of ->, <<, >>, <=>, or a template
# bracket pair is close enough for the flagged patterns in this codebase.
_CMP = r"(?:==|!=|<=|>=|(?<![<>=\-])<(?![<=])|(?<![<>=\-])>(?![=>]))"
_NUM_LITERAL_RE = re.compile(r"\d+[uUlL]*")

MIN_PTS_LEFT_RE = re.compile(r"\bmin_pts\w*\s*(" + _CMP + r")\s*([^\s;)]+)")
MIN_PTS_RIGHT_RE = re.compile(r"([^\s(!&|]+)\s*(" + _CMP + r")\s*min_pts\w*\b")
# The arrays themselves or a dereferenced broadcast of one: cell_dense[c],
# (*cell_core)[c].
_CELL_FLAG = r"(?:\(\s*\*\s*)?\b(cell_dense|cell_core)(?:\s*\))?\s*\["
CELL_FLAG_RE = re.compile(_CELL_FLAG)
CELL_FLAG_ASSIGN_RE = re.compile(_CELL_FLAG + r"[^\]]*\]\s*=(?!=)")
# The per-cell kernels of phases 3-5, which only phases::RunPhases loops
# over.
CELL_KERNEL_CALL_RE = re.compile(
    r"\b(CoreScanCell|OutlierScanCell|CountCoreCell|FillSparseCoreCell)"
    r"\s*\(")


def in_phase_scope(path: str) -> bool:
    norm = path.replace(os.sep, "/")
    return (norm.startswith(PHASE_SCOPE_PREFIXES)
            and not norm.startswith(PHASE_HOME))


def check_phase_logic_locality(path: str, lines: List[str]
                               ) -> Iterable[Finding]:
    rule = "phase-logic-locality"
    if not in_phase_scope(path):
        return
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        code = strip_line_comment(line)

        # Family 1: density decisions re-derived from min_pts. Comparisons
        # against a numeric literal are parameter validation, not Lemma 1.
        for m in MIN_PTS_LEFT_RE.finditer(code):
            if not _NUM_LITERAL_RE.fullmatch(m.group(2)):
                yield Finding(path, i, rule,
                              "comparison against min_pts re-derives the "
                              "Lemma 1 density verdict; call "
                              "core::phases::IsDense (or "
                              "CrossesDensityThreshold for insert "
                              "transitions)")
        for m in MIN_PTS_RIGHT_RE.finditer(code):
            if not _NUM_LITERAL_RE.fullmatch(m.group(1)):
                yield Finding(path, i, rule,
                              "comparison against min_pts re-derives the "
                              "Lemma 1 density verdict; call "
                              "core::phases::IsDense (or "
                              "CrossesDensityThreshold for insert "
                              "transitions)")

        # Family 2: branching on the per-cell flag arrays outside the
        # kernels. Writing them (the engines populate kernel input and the
        # dataflow engine's broadcast maps) is the intended interface;
        # reads are phase-3/5 logic and go through phases::IsDenseCell /
        # IsCoreCell.
        assigns = {m.start() for m in CELL_FLAG_ASSIGN_RE.finditer(code)}
        for m in CELL_FLAG_RE.finditer(code):
            if m.start() not in assigns:
                yield Finding(path, i, rule,
                              f"read of {m.group(1)}[] outside "
                              "src/core/phases/ re-implements a phase "
                              "decision; engines only populate these arrays "
                              "and read them through phases::IsDenseCell / "
                              "IsCoreCell or the cell kernels")

        # Family 3: an engine's own loop over the per-cell phase kernels.
        # Phases 2-5 run once, in phases::RunPhases, over whatever cell
        # ranges the engine owns.
        for m in CELL_KERNEL_CALL_RE.finditer(code):
            yield Finding(path, i, rule,
                          f"call of {m.group(1)} outside src/core/phases/ "
                          "forks the phase loop; run phases 2-5 through "
                          "core::phases::RunPhases over the engine's "
                          "eligible and owned cell ranges")


# ---------------------------------------------------------------------------
# Rule: hot-path-purity
# ---------------------------------------------------------------------------

HOT_PATH_FILE_RE = re.compile(
    r"^(src/simd/[^/]+\.(?:cc|cpp|h|hpp)"
    r"|src/core/phases/(?:phase_kernels|insert_kernels)\.(?:cc|cpp|h|hpp))$")
HOT_PATH_LOG_RE = re.compile(r"\bDBSCOUT_(?:LOG|CHECK)\b")
HOT_PATH_MUTEX_RE = re.compile(
    r"(std::(?:recursive_|shared_|timed_)*mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\.\s*(?:try_)?lock(?:_shared)?\s*\("
    r"|\b(?:dbscout::)?(?:Mutex|MutexLock|CondVar)\b"
    r"|\bpthread_mutex_\w+)")
# Trace stamping stays above the kernels: spans wrap whole phases in the
# service/apply layers, never per-point or per-cell work. A kernel that
# takes a RequestContext or writes to the span ring would put clock reads
# and ring CAS traffic inside the distance loops that bench_kernels gates.
HOT_PATH_TRACE_RE = re.compile(
    r"(\b(?:obs::)?TraceCollector\b"
    r"|\bAdd(?:Traced)?Span\s*\("
    r"|\b(?:service::)?RequestContext\b"
    r"|\bNextTraceId\s*\()")


def check_hot_path_purity(path: str, lines: List[str]) -> Iterable[Finding]:
    rule = "hot-path-purity"
    if not HOT_PATH_FILE_RE.match(path.replace(os.sep, "/")):
        return
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        code = strip_line_comment(line)
        m = HOT_PATH_LOG_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"'{m.group(0)}' in a scan kernel: the hot path "
                          "must stay silent; record through PhaseRecorder / "
                          "obs counters and log from the driver")
        m = HOT_PATH_MUTEX_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"mutex acquisition '{m.group(0).strip()}' in a "
                          "scan kernel: the hot path must stay wait-free; "
                          "use the sharded atomic cells in obs::Counter or "
                          "aggregate after the loop")
        m = HOT_PATH_TRACE_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"trace plumbing '{m.group(0).strip()}' in a scan "
                          "kernel: spans wrap whole phases in the service "
                          "and apply layers; kernels must not read clocks "
                          "or touch the span ring per element")


# ---------------------------------------------------------------------------
# Rule: neighbor-discovery-locality
# ---------------------------------------------------------------------------

NEIGHBOR_STENCIL_HOMES = ("src/grid/",)
# `stencil->offsets`, `stencil.offsets`, `(*stencil)->offsets`, and the
# accessor that hands out a stencil in the first place.
STENCIL_OFFSETS_RE = re.compile(r"stencil\w*\)?\s*(?:->|\.)\s*offsets\b",
                                re.IGNORECASE)
GET_STENCIL_RE = re.compile(r"\bGetNeighborStencil\s*\(")


def check_neighbor_discovery_locality(path: str, lines: List[str]
                                      ) -> Iterable[Finding]:
    rule = "neighbor-discovery-locality"
    norm = path.replace(os.sep, "/")
    if not norm.startswith("src/") or norm.startswith(NEIGHBOR_STENCIL_HOMES):
        return
    for i, line in enumerate(lines, 1):
        if waived(line, rule):
            continue
        code = strip_line_comment(line)
        m = STENCIL_OFFSETS_RE.search(code) or GET_STENCIL_RE.search(code)
        if m:
            yield Finding(path, i, rule,
                          f"'{m.group(0).strip()}' probes all k_d stencil "
                          "offsets per cell; find neighbor cells with "
                          "grid::NeighborCells (batch) or grid::CellIndex "
                          "(live), whose cost is bounded by the occupied "
                          "cells")


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def in_simd(path: str) -> bool:
    return path.replace(os.sep, "/").startswith("src/simd/")


def load_tree(root: str) -> List[Tuple[str, List[str]]]:
    files = []
    for top in SCAN_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames if not d.startswith("build")]
            for fn in sorted(filenames):
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                if fn.endswith(CXX_EXTENSIONS) or (
                        in_simd(rel) and fn.startswith("CMakeLists")):
                    with open(os.path.join(dirpath, fn), "r",
                              encoding="utf-8", errors="replace") as f:
                        files.append((rel, f.read().splitlines()))
    return files


def lint_files(files: List[Tuple[str, List[str]]],
               regex_purity: bool = True) -> List[Finding]:
    """Runs every textual rule. When `regex_purity` is False the caller is
    delegating hot-path-purity to the AST analyzer (tools/analyzer/), which
    sees through transitive calls the line regexes cannot."""
    check_discarded = make_check_discarded_status(files)
    findings: List[Finding] = []
    for path, lines in files:
        if in_simd(path):
            findings.extend(check_simd_fma(path, lines))
            findings.extend(check_simd_cap_boundary(path, lines))
        if os.path.basename(path).startswith("CMakeLists"):
            continue
        findings.extend(check_raw_thread(path, lines))
        findings.extend(check_pool_fanout(path, lines))
        findings.extend(check_raw_rng(path, lines))
        findings.extend(check_phase_logic_locality(path, lines))
        findings.extend(check_neighbor_discovery_locality(path, lines))
        if regex_purity:
            findings.extend(check_hot_path_purity(path, lines))
        findings.extend(check_discarded(path, lines))
    return findings


def ast_purity_findings(root: str, build_dir: str):
    """hot-path-purity via the libclang analyzer; None when unavailable
    (no bindings, no libclang, or no compile_commands.json) so the caller
    can fall back to the regex rule."""
    tools_dir = os.path.dirname(os.path.abspath(__file__))
    if tools_dir not in sys.path:
        sys.path.insert(0, tools_dir)
    try:
        from analyzer import checks as ast_checks
        from analyzer import core as ast_core
    except ImportError:
        return None
    if ast_core.load_cindex() is None:
        return None
    compdb = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(compdb):
        return None
    cindex = ast_core.load_cindex()
    src_root = os.path.normpath(os.path.abspath(os.path.join(root, "src")))
    sources = ast_core.load_compdb(build_dir)
    if not sources:
        return None
    graph = ast_core.build_graph(cindex, sources, src_root)
    raw = ast_checks.check_purity(graph, ast_core.WaiverIndex())
    root_prefix = os.path.normpath(os.path.abspath(root)) + os.sep
    out: List[Finding] = []
    for f in sorted(set(raw), key=lambda f: (f.file, f.line, f.message)):
        path = f.file
        if path.startswith(root_prefix):
            path = path[len(root_prefix):]
        out.append(Finding(path, f.line, "hot-path-purity", f.message))
    return out


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on a
# clean snippet. Run as a ctest so a regression in the linter itself fails
# the suite.
# ---------------------------------------------------------------------------

def self_test() -> int:
    def lines(s: str) -> List[str]:
        return s.splitlines()

    failures = []

    def expect(rule: str, findings: List[Finding], want: int, label: str):
        got = [f for f in findings if f.rule == rule]
        if len(got) != want:
            failures.append(
                f"{rule}/{label}: expected {want} finding(s), got "
                f"{len(got)}: {[str(f) for f in got]}")

    # simd-fma
    bad = lines("x = _mm256_fmadd_pd(a, b, c);\n"
                "double y = std::fma(a, b, c);\n")
    expect("simd-fma", list(check_simd_fma("src/simd/k.cc", bad)), 2, "seeded")
    ok = lines("acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));\n")
    expect("simd-fma", list(check_simd_fma("src/simd/k.cc", ok)), 0, "clean")
    cmake_bad = lines('set_source_files_properties(k.cc PROPERTIES '
                      'COMPILE_OPTIONS "-ffp-contract=fast")')
    expect("simd-fma",
           list(check_simd_fma("src/simd/CMakeLists.txt", cmake_bad)), 1,
           "cmake-seeded")
    cmake_ok = lines('COMPILE_OPTIONS "-ffp-contract=off"')
    expect("simd-fma",
           list(check_simd_fma("src/simd/CMakeLists.txt", cmake_ok)), 0,
           "cmake-clean")

    # simd-cap-boundary
    bad = lines("for (; i < count; ++i) {\n"
                "  if (hits >= cap) return hits;\n"
                "}\n")
    expect("simd-cap-boundary",
           list(check_simd_cap_boundary("src/simd/k.cc", bad)), 1, "seeded")
    ok = lines("// kernel-cap: batch-boundary (contract)\n"
               "if (cap != 0 && hits >= cap) return hits;\n")
    expect("simd-cap-boundary",
           list(check_simd_cap_boundary("src/simd/k.cc", ok)), 0, "clean")

    # raw-thread
    bad = lines("std::thread t([] {});\n"
                "auto f = std::async(std::launch::async, [] {});\n")
    expect("raw-thread", list(check_raw_thread("src/core/x.cc", bad)), 2,
           "seeded")
    ok = lines("size_t n = std::thread::hardware_concurrency();\n"
               "std::thread t([] {});  // lint:allow(raw-thread) testing\n")
    expect("raw-thread", list(check_raw_thread("src/core/x.cc", ok)), 0,
           "clean")
    exempt = lines("std::vector<std::thread> threads_;\n")
    expect("raw-thread",
           list(check_raw_thread("src/common/thread_pool.h", exempt)), 0,
           "exempt-file")
    service_bad = lines("std::thread session([this] { Serve(); });\n")
    expect("raw-thread",
           list(check_raw_thread("src/service/server.cc", service_bad)), 1,
           "service-in-scope")
    storage_bad = lines("std::thread fsyncer([this] { SyncLoop(); });\n")
    expect("raw-thread",
           list(check_raw_thread("src/storage/store.cc", storage_bad)), 1,
           "storage-in-scope")

    # pool-fanout
    bad = lines("pool->Submit([&] { run_block(b); });\n"
                "pool->WaitIdle();\n"
                "ctx->pool().Submit ([] {});\n")
    expect("pool-fanout", list(check_pool_fanout("src/core/incremental.cc",
                                                 bad)), 3, "seeded")
    ok = lines("RunTasks(pool, blocks.size(), [&](size_t t) {\n"
               "// a per-block Submit and WaitIdle() barrier used to run here\n"
               "SubmitBatch(batch);\n"
               "pool->WaitIdle();  // lint:allow(pool-fanout) drains a loop\n")
    expect("pool-fanout", list(check_pool_fanout("src/core/incremental.cc",
                                                 ok)), 0, "clean")
    for home in ("src/common/thread_pool.cc", "src/service/server.cc",
                 "src/service/service.cc"):
        expect("pool-fanout", list(check_pool_fanout(home, bad)), 0,
               "home:" + home)
    expect("pool-fanout", list(check_pool_fanout("src/service/client.cc",
                                                 bad)), 3,
           "other-service-file-in-scope")
    expect("pool-fanout", list(check_pool_fanout(
        "tests/common/thread_pool_test.cc", bad)), 0, "tests-exempt")

    # raw-rng
    bad = lines("int x = rand() % 6;\n"
                "std::random_device rd;\n")
    expect("raw-rng", list(check_raw_rng("tests/foo_test.cc", bad)), 2,
           "seeded")
    ok = lines("Rng rng(42);\n")
    expect("raw-rng", list(check_raw_rng("tests/foo_test.cc", ok)), 0,
           "clean")

    # phase-logic-locality
    bad = lines("if (count >= min_pts) {\n"
                "  mark_core(p);\n"
                "}\n"
                "if (++neighbor_counts_[q] == min_pts) promote(q);\n"
                "if (cell_core[c]) continue;\n"
                "if (cell_dense[rec.first]) return false;\n"
                "return (*cell_core)[rec.first] != 0;\n")
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/core/parallel.cc", bad)), 5,
           "seeded")
    ok = lines("if (min_pts < 1) return Status::InvalidArgument(\"\");\n"
               "dense.push_back(phases::IsDense(n, min_pts));\n"
               "cell_dense[c] = eligible[c] && phases::IsDense(sz, min_pts);\n"
               "(*cell_core)[c] = 1;\n"
               "return phases::IsDenseCell(cell_dense->data(), rec.first);\n"
               "if (count >= min_pts) {  // lint:allow(phase-logic-locality)\n")
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/external/y.cc", ok)), 0,
           "clean")
    batched = lines("if (old + added >= min_pts) promoted.push_back(q);\n")
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/core/x.cc", batched)), 1,
           "batched-threshold-seeded")
    exempt = lines("if (count >= min_pts) mark(c);\n")
    expect("phase-logic-locality",
           list(check_phase_logic_locality(
               "src/core/phases/phase_kernels.cc", exempt)), 0, "phase-home")
    expect("phase-logic-locality",
           list(check_phase_logic_locality(
               "src/core/phases/insert_kernels.h", exempt)), 0,
           "insert-kernels-home")
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/baselines/dbscan.cc",
                                           exempt)), 0, "out-of-scope")
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/service/service.cc",
                                           exempt)), 1, "service-in-scope")
    # Durable replay feeds recovered points back through the apply
    # pipeline; deciding density during replay would fork the phase logic.
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/storage/store.cc",
                                           exempt)), 1, "storage-in-scope")
    flag_read = lines("if (cell_dense[c]) ++dense;\n")
    expect("phase-logic-locality",
           list(check_phase_logic_locality("src/grid/grid.cc", flag_read)), 1,
           "flag-read-in-grid")
    kernel_loop = lines(
        "return phases::CoreScanCell(g, neighbors, kernels, eps2, min_pts, c,\n"
        "                            cell_dense.data(), is_core.data());\n")
    expect("phase-logic-locality",
           list(check_phase_logic_locality(
               "src/external/external_detector.cc", kernel_loop)), 1,
           "kernel-call-in-external")
    expect("phase-logic-locality",
           list(check_phase_logic_locality(
               "src/core/phases/driver.cc", kernel_loop)), 0,
           "kernel-call-in-phase-home")

    # hot-path-purity
    bad = lines("DBSCOUT_LOG(kDebug) << \"cell \" << c;\n"
                "std::lock_guard<std::mutex> g(mu_);\n"
                "counts_mu_.lock();\n"
                "DBSCOUT_CHECK(count <= n);\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/simd/distance_kernel.cc", bad)),
           4, "simd-seeded")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/core/phases/phase_kernels.cc",
                                      bad)), 4, "kernels-seeded")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/core/phases/insert_kernels.h",
                                      bad)), 4, "insert-kernels-seeded")
    ok = lines("hits += CountNeighborsBatch(pts, i, eps2);\n"
               "counter->Increment();  // sharded atomic cell, wait-free\n"
               "std::atomic<uint64_t> total{0};\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/simd/distance_kernel.cc", ok)), 0,
           "clean")
    traced = lines("void Scan(const service::RequestContext& ctx);\n"
                   "trace->AddTracedSpan(\"cell\", \"simd\", id, s, dt);\n"
                   "obs::TraceCollector* trace_;\n"
                   "const uint64_t id = NextTraceId();\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/simd/distance_kernel.h", traced)),
           4, "trace-seeded")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/core/phases/insert_kernels.cc",
                                      traced)), 4, "trace-kernels-seeded")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/service/service.cc", traced)), 0,
           "trace-service-exempt")
    trace_ok = lines("// spans are emitted by the driver around this call\n"
                     "const double elapsed = timer.ElapsedSeconds();\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/simd/distance_kernel.cc",
                                      trace_ok)), 0, "trace-clean")
    waived_line = lines(
        "std::mutex mu;  // lint:allow(hot-path-purity) cold init path\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/simd/distance_kernel.h",
                                      waived_line)), 0, "waived")
    out_of_scope = lines("std::lock_guard<std::mutex> g(mu_);\n"
                         "DBSCOUT_LOG(kInfo) << \"publishing\";\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/core/phases/phase_recorder.h",
                                      out_of_scope)), 0, "recorder-exempt")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/obs/metrics.cc", out_of_scope)),
           0, "obs-exempt")
    wrappers = lines("MutexLock lock(mu_);\n"
                     "dbscout::CondVar cv;\n"
                     "Mutex merge_mu;\n")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/simd/distance_kernel.cc",
                                      wrappers)), 3, "dbscout-wrappers")
    expect("hot-path-purity",
           list(check_hot_path_purity("src/grid/regions.h", bad)), 0,
           "regions-out-of-scope")

    # neighbor-discovery-locality
    bad = lines("DBSCOUT_ASSIGN_OR_RETURN(const grid::NeighborStencil* stencil,\n"
                "                         grid::GetNeighborStencil(d));\n"
                "for (const grid::CellOffset& offset : stencil->offsets) {\n"
                "for (const auto& o : (*stencil)->offsets) {\n"
                "for (const auto& o : stencil.offsets) {\n")
    expect("neighbor-discovery-locality",
           list(check_neighbor_discovery_locality("src/core/parallel.cc",
                                                  bad)), 4, "seeded")
    expect("neighbor-discovery-locality",
           list(check_neighbor_discovery_locality(
               "src/baselines/rp_dbscan.cc", bad)), 4, "baselines-in-scope")
    ok = lines("for (const grid::CellRun& run : neighbors.Of(c)) {\n"
               "  for (uint32_t nc = run.begin; nc < run.end; ++nc) {\n"
               "const grid::NeighborCells lists =\n"
               "    grid::NeighborCells::Build(g.CellCoords(), scan);\n"
               "csr->begin[c + 1] = offsets[c];\n"
               "// probing stencil->offsets costs k_d lookups per cell\n")
    expect("neighbor-discovery-locality",
           list(check_neighbor_discovery_locality("src/core/parallel.cc",
                                                  ok)), 0, "clean")
    expect("neighbor-discovery-locality",
           list(check_neighbor_discovery_locality("src/core/incremental.cc",
                                                  bad)), 4, "live-detector")
    for home in ("src/grid/grid.h", "src/grid/neighborhood.cc",
                 "src/grid/cell_index.cc"):
        expect("neighbor-discovery-locality",
               list(check_neighbor_discovery_locality(home, bad)), 0,
               "home:" + home)
    expect("neighbor-discovery-locality",
           list(check_neighbor_discovery_locality(
               "tests/grid/neighborhood_test.cc", bad)), 0, "tests-exempt")

    # discarded-status
    header = ("src/api.h", lines("Status Frobnicate(int x);\n"
                                 "Result<int> Load(const char* p);\n"
                                 "Result<int> Add(int x);\n"
                                 "void Add(double x);\n"))
    clean_status_h = ("src/common/status.h",
                      lines("class [[nodiscard]] Status {"))
    clean_result_h = ("src/common/result.h",
                      lines("class [[nodiscard]] Result {"))
    bad_body = ("src/api.cc", lines("void F() {\n"
                                    "  Frobnicate(1);\n"
                                    "  obj.Load(\"x\");\n"
                                    "}\n"))
    ok_body = ("src/ok.cc",
               lines("Status s = Frobnicate(1);\n"
                     "DBSCOUT_RETURN_IF_ERROR(Frobnicate(2));\n"
                     "(void)Frobnicate(3);  // best-effort cleanup\n"
                     "return Frobnicate(4);\n"
                     "ps.Add(7);\n"  # ambiguous overload: skipped
                     "DBSCOUT_ASSIGN_OR_RETURN(auto v,\n"
                     "    Load(p));\n"  # continuation line: skipped
                     "int z = 0;\n"))
    corpus = [header, clean_status_h, clean_result_h, bad_body, ok_body]
    check = make_check_discarded_status(corpus)
    expect("discarded-status", list(check(*bad_body)), 2, "seeded")
    expect("discarded-status", list(check(*ok_body)), 0, "clean")
    stripped_h = ("src/common/status.h", lines("class Status {"))
    check2 = make_check_discarded_status([stripped_h])
    expect("discarded-status", list(check2(*stripped_h)), 1,
           "nodiscard-removed")

    if failures:
        print("lint_invariants self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("lint_invariants self-test passed "
          "(every rule fires on seeded violations and passes clean code)")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repo root to lint (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule self-test instead of linting")
    parser.add_argument("--purity", choices=("auto", "regex", "ast"),
                        default="auto",
                        help="hot-path-purity backend: 'ast' delegates to "
                             "tools/analyzer (transitive, needs libclang + "
                             "compile_commands.json), 'regex' keeps the "
                             "textual rule, 'auto' (default) prefers ast "
                             "and falls back to regex")
    parser.add_argument("--build-dir", default="build",
                        help="build tree with compile_commands.json for "
                             "--purity=ast/auto (default: build)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"lint_invariants: no src/ under '{args.root}' "
              "(wrong --root?)", file=sys.stderr)
        return 2

    purity_findings = None
    if args.purity in ("auto", "ast"):
        purity_findings = ast_purity_findings(args.root, args.build_dir)
        if purity_findings is None and args.purity == "ast":
            print("lint_invariants: --purity=ast but the analyzer is "
                  "unavailable (need python clang bindings, libclang, and "
                  f"{args.build_dir}/compile_commands.json)",
                  file=sys.stderr)
            return 2

    files = load_tree(args.root)
    findings = lint_files(files, regex_purity=purity_findings is None)
    if purity_findings is not None:
        findings.extend(purity_findings)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
