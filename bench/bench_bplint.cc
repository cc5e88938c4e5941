/**
 * @file
 * Throughput benchmark for the bplint v2 semantic analyzer: reads the
 * real repository scan set (src bench tests tools examples plus the
 * README env-knob table), then times whole-project lintProject()
 * passes — phase-1 TU models, the cross-TU ProjectModel, and all
 * eleven rules per pass. The linter guards every build, so it carries
 * an explicit latency budget: a pass over the full tree must stay
 * under 2 seconds, and the process exits nonzero when the median pass
 * blows it (the lint-labeled smoke test turns a regression into a
 * test failure).
 *
 * Usage: bench_bplint [--quick] [--json <path>]
 *   --quick runs 3 passes instead of 10.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "lint.h"

namespace fs = std::filesystem;

namespace {

constexpr double kBudgetMs = 2000.0;

/** The tree-wide scan set, with report paths relative to the root. */
std::vector<bplint::SourceFile>
readScanSet(const fs::path &root)
{
    const char *dirs[] = {"src", "bench", "tests", "tools", "examples"};
    std::vector<bplint::SourceFile> files;
    for (const char *dir : dirs) {
        const fs::path base = root / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".h" && ext != ".cc")
                continue;
            std::ifstream in(entry.path());
            std::ostringstream buf;
            buf << in.rdbuf();
            files.push_back(
                {fs::relative(entry.path(), root).generic_string(),
                 buf.str()});
        }
    }
    std::sort(files.begin(), files.end(),
              [](const bplint::SourceFile &a, const bplint::SourceFile &b) {
                  return a.path < b.path;
              });
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace bench = bertprof::bench;
    const bench::Args args = bench::parseArgs(argc, argv);

    const fs::path root(BERTPROF_SOURCE_DIR);
    const std::vector<bplint::SourceFile> files = readScanSet(root);
    if (files.empty()) {
        std::fprintf(stderr, "no scan set under %s\n",
                     root.string().c_str());
        return 1;
    }

    bplint::LintOptions opts;
    {
        std::ifstream in(root / "README.md");
        std::ostringstream buf;
        buf << in.rdbuf();
        opts.envDocPath = "README.md";
        opts.envDocText = buf.str();
    }

    std::size_t bytes = 0;
    std::size_t lines = 0;
    for (const auto &f : files) {
        bytes += f.text.size();
        lines += static_cast<std::size_t>(
            std::count(f.text.begin(), f.text.end(), '\n'));
    }

    const int reps = args.quick ? 3 : 10;
    std::size_t findings = 0;
    const bench::Stats pass = bench::runRoundRobin(
        {{nullptr,
          [&] { findings = bplint::lintProject(files, opts).size(); }}},
        reps)[0];

    bench::Report report("bench_bplint", args);
    report.config("reps", reps);
    report.config("files", static_cast<double>(files.size()));
    report.config("lines", static_cast<double>(lines));
    report.config("bytes", static_cast<double>(bytes));
    report.config("budget_ms", kBudgetMs);
    report.millis("lint.pass_ms", pass);
    report.rate("lint.throughput", "MB/s", static_cast<double>(bytes) / 1e6,
                pass);
    report.value("lint.findings", static_cast<double>(findings), "count");
    const int status = report.emit();

    const double median_ms = pass.median * 1e3;
    const bool within = median_ms < kBudgetMs;
    std::printf("budget: median %.1f ms %s %.0f ms limit\n", median_ms,
                within ? "within" : "EXCEEDS", kBudgetMs);
    return within ? status : 1;
}
