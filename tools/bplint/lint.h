/**
 * @file
 * bplint: repo-specific invariant linter for the bertprof tree.
 *
 * v2 is a two-phase semantic analyzer. Phase 1 (model.h) tokenizes
 * each TU into a lightweight statement/scope/function model; phase 2
 * merges the TUs into a cross-TU ProjectModel (real include graph,
 * class/method facts, BERTPROF_* env-read sites) so rules can reason
 * about dataflow and project structure, not just tokens:
 *
 *   wall-clock            no std::chrono::system_clock /
 *                         high_resolution_clock in measured code;
 *                         util/stopwatch.h (steady_clock) is the one
 *                         sanctioned timer.
 *   libc-rand             no rand()/srand(); util/rng.h only, so
 *                         every stream is seeded and reproducible.
 *   kernel-stats          every public kernel entry in src/ops/ .cc
 *                         that touches Tensors returns KernelStats
 *                         (or a stats-bearing result struct) — the
 *                         operator accounting the perf model trusts.
 *   op-entry-contract     every such entry states preconditions via
 *                         BP_REQUIRE / BP_CHECK_* before computing.
 *   parallel-capture-race any write (assignment, ++/--, non-const
 *                         member call, pass-by-non-const-ref) to a
 *                         by-reference captured variable not
 *                         subscripted by a body-local index inside a
 *                         parallelFor/parallelFor2d body.
 *   hot-loop-alloc        no Tensor construction or heap allocation
 *                         in parallelFor bodies or ScopedKernel
 *                         regions (src/): buffers are allocated
 *                         before hot code, so allocator time never
 *                         lands in a kernel's timing.
 *   must-check-io         an IoStatus-returning call whose result is
 *                         neither bound-and-read nor returned drops
 *                         an I/O failure on the floor (src/ .cc).
 *                         (void)-casts still fire: intentional drops
 *                         need an allow() comment with a rationale.
 *   env-registry          two-way sync between BERTPROF_* knobs read
 *                         in src/ (envInt/envString/getenv) and the
 *                         README's authoritative table. Active only
 *                         when an env doc is supplied (--env-doc).
 *   include-hygiene       src/<layer> may only directly include the
 *                         layers below it in the dependency DAG.
 *   include-dag           the same ordering enforced transitively
 *                         over the real include graph, plus include
 *                         cycle detection.
 *   unchecked-io          no raw fopen/fwrite/fread/ofstream/fstream
 *                         in src/ outside src/io/ — file writes must
 *                         go through the crash-safe, checked I/O
 *                         layer (io/binary_io.h).
 *
 * Suppressions (per line, or whole file near the top):
 *   // bplint: allow(rule-name)
 *   // bplint: allow-file(rule-name)
 *
 * Incremental adoption: --baseline subtracts previously-recorded
 * findings (file|rule|message keys, line-number independent) and
 * --sarif emits a SARIF 2.1.0 artifact for code-scanning UIs.
 *
 * The library half is linked by tests/test_bplint.cc so each rule is
 * unit-tested against known-bad snippets without shelling out.
 */

#ifndef BERTPROF_TOOLS_BPLINT_LINT_H
#define BERTPROF_TOOLS_BPLINT_LINT_H

#include <string>
#include <vector>

#include "model.h"

namespace bplint {

/** One rule violation at a source location. */
struct Finding {
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

/** Names of every implemented rule, in report order. */
std::vector<std::string> ruleNames();

/** Options for a project-wide lint. */
struct LintOptions {
    /// Report path of the env-knob document (README.md). Empty text
    /// disables the env-registry rule entirely.
    std::string envDocPath;
    std::string envDocText;
};

/**
 * Lint a set of translation units as one project: builds the cross-TU
 * ProjectModel, runs every rule, applies suppressions, and returns
 * the findings sorted by (file, line, rule). Paths are repo-relative
 * (used for reporting and for path-scoped rules).
 */
std::vector<Finding> lintProject(const std::vector<SourceFile> &files,
                                 const LintOptions &opts);

/**
 * Lint one translation unit in isolation (a single-file project).
 * Cross-TU rules see only this file's own facts.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text);

/** Lint a file on disk (path used for scoping as in lintSource). */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &reportPath);

/**
 * Replace comments and string/char literals with spaces, preserving
 * newlines (so findings keep their line numbers). Exposed for tests.
 */
std::string stripCommentsAndStrings(const std::string &text);

/** Render findings: "file:line: [rule] message" per line. */
std::string formatText(const std::vector<Finding> &findings);

/** Render findings as a JSON array (machine-readable). */
std::string formatJson(const std::vector<Finding> &findings);

/** Render findings as a SARIF 2.1.0 log. */
std::string formatSarif(const std::vector<Finding> &findings);

/** Baseline key of one finding: "file|rule|message" (no line). */
std::string baselineKey(const Finding &f);

/** Render findings as sorted baseline lines (one key per line). */
std::string formatBaseline(const std::vector<Finding> &findings);

/**
 * Subtract a baseline: each baseline line excuses one matching
 * finding (multiset semantics). Returns the findings that remain.
 */
std::vector<Finding> applyBaseline(const std::vector<Finding> &findings,
                                   const std::string &baselineText);

} // namespace bplint

#endif // BERTPROF_TOOLS_BPLINT_LINT_H
