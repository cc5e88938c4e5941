#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "model.h"
#include "rules.h"

namespace bplint {

namespace {

// ---------------------------------------------------------------------------
// Token rules: wall-clock, libc-rand
// ---------------------------------------------------------------------------

void
checkForbiddenTokens(const TuModel &tu, std::vector<Finding> &out)
{
    const std::string &s = tu.stripped;
    const std::string &path = tu.path;
    std::size_t i = 0;
    while (i < s.size()) {
        if (!isIdentChar(s[i]) ||
            std::isdigit(static_cast<unsigned char>(s[i]))) {
            ++i;
            continue;
        }
        std::size_t b = i;
        while (i < s.size() && isIdentChar(s[i]))
            ++i;
        const std::string tok = s.substr(b, i - b);

        auto nextNonSpace = [&]() -> char {
            std::size_t j = i;
            while (j < s.size() &&
                   std::isspace(static_cast<unsigned char>(s[j]))) {
                ++j;
            }
            return j < s.size() ? s[j] : '\0';
        };
        auto isMemberAccess = [&]() {
            std::size_t j = b;
            while (j > 0 &&
                   std::isspace(static_cast<unsigned char>(s[j - 1]))) {
                --j;
            }
            if (j == 0)
                return false;
            if (s[j - 1] == '.')
                return true;
            return j >= 2 && s[j - 2] == '-' && s[j - 1] == '>';
        };

        if (tok == "system_clock" || tok == "high_resolution_clock" ||
            tok == "gettimeofday") {
            out.push_back({path, lineOf(s, b), "wall-clock",
                           "'" + tok +
                               "' is wall-clock time; measured code must "
                               "use util/stopwatch.h (steady_clock)"});
        } else if (tok == "clock" && nextNonSpace() == '(' &&
                   !isMemberAccess()) {
            out.push_back({path, lineOf(s, b), "wall-clock",
                           "libc clock() is unsanctioned; use "
                           "util/stopwatch.h (steady_clock)"});
        } else if ((tok == "rand" || tok == "srand") &&
                   nextNonSpace() == '(' && !isMemberAccess()) {
            out.push_back({path, lineOf(s, b), "libc-rand",
                           "'" + tok +
                               "()' breaks seeded reproducibility; use "
                               "util/rng.h (Rng)"});
        }
    }
}

// ---------------------------------------------------------------------------
// Rules: kernel-stats, op-entry-contract (src/ops/*.cc only)
// ---------------------------------------------------------------------------

void
checkOpsKernels(const TuModel &tu, std::vector<Finding> &out)
{
    if (tu.path.find("src/ops/") == std::string::npos ||
        tu.path.size() <= 3 ||
        tu.path.compare(tu.path.size() - 3, 3, ".cc") != 0) {
        return;
    }
    for (const FuncFact &f : tu.funcs) {
        if (f.anonOrStatic || !hasToken(f.params, "Tensor"))
            continue;
        const std::string body = tu.stripped.substr(
            f.bodyBegin, f.bodyEnd - f.bodyBegin);
        const bool reports = hasToken(f.ret, "KernelStats") ||
                             f.ret.find("Result") != std::string::npos;
        if (!reports) {
            out.push_back(
                {tu.path, f.line, "kernel-stats",
                 "kernel entry '" + f.name +
                     "' takes Tensors but does not return KernelStats "
                     "(or a *Result carrying stats); the perf model's "
                     "operator accounting depends on it"});
        }
        if (!hasToken(body, "BP_REQUIRE") &&
            body.find("BP_CHECK_") == std::string::npos) {
            out.push_back(
                {tu.path, f.line, "op-entry-contract",
                 "kernel entry '" + f.name +
                     "' has no BP_REQUIRE/BP_CHECK_* precondition; "
                     "every public op must validate shapes/aliasing "
                     "before computing"});
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-io
// ---------------------------------------------------------------------------

void
checkUncheckedIo(const TuModel &tu, std::vector<Finding> &out)
{
    // Raw file I/O outside src/io/ bypasses the crash-safe write
    // protocol (temp + fsync + atomic rename), the typed IoStatus
    // errors, and the io.* fault-injection sites. The io layer is
    // the one place allowed to touch stdio/fstream directly.
    const std::string &path = tu.path;
    const std::string &s = tu.stripped;
    const std::size_t sp = path.rfind("src/");
    if (sp == std::string::npos)
        return;
    if (path.compare(sp, 7, "src/io/") == 0)
        return;
    static const std::set<std::string> primitives = {
        "fopen", "fwrite", "fread", "ofstream", "fstream"};
    std::size_t i = 0;
    while (i < s.size()) {
        if (!isIdentChar(s[i]) ||
            std::isdigit(static_cast<unsigned char>(s[i]))) {
            ++i;
            continue;
        }
        std::size_t b = i;
        while (i < s.size() && isIdentChar(s[i]))
            ++i;
        const std::string tok = s.substr(b, i - b);
        if (!primitives.count(tok))
            continue;
        out.push_back(
            {path, lineOf(s, b), "unchecked-io",
             "'" + tok +
                 "' outside src/io/ bypasses the crash-safe, "
                 "checked I/O layer; route file writes through "
                 "io/binary_io.h (writeFileAtomic / writeTextFile)"});
    }
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene (direct includes; include-dag covers transitive)
// ---------------------------------------------------------------------------

void
checkIncludeHygiene(const TuModel &tu, std::vector<Finding> &out)
{
    const std::size_t sp = tu.path.rfind("src/");
    if (sp == std::string::npos)
        return; // hygiene applies to the library tree only
    const std::string rel = tu.path.substr(sp + 4);
    const std::size_t slash = rel.find('/');
    if (slash == std::string::npos)
        return;
    const std::string layer = rel.substr(0, slash);
    const auto it = layerMap().find(layer);
    if (it == layerMap().end())
        return;

    for (const IncludeEdge &inc : tu.includes) {
        const std::size_t tslash = inc.target.find('/');
        if (tslash == std::string::npos)
            continue; // same-directory include
        const std::string tlayer = inc.target.substr(0, tslash);
        if (!layerMap().count(tlayer))
            continue; // not a layer-qualified include
        if (it->second.count(tlayer) ||
            layerExceptions().count(inc.target)) {
            continue;
        }
        out.push_back(
            {tu.path, inc.line, "include-hygiene",
             "src/" + layer + " must not include \"" + inc.target +
                 "\": layer '" + tlayer +
                 "' is not below it in the dependency DAG (route "
                 "shared functionality through a lower layer or "
                 "src/core)"});
    }
}

void
sortFindings(std::vector<Finding> &v)
{
    std::sort(v.begin(), v.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
}

} // namespace

const std::map<std::string, std::set<std::string>> &
layerMap()
{
    static const std::map<std::string, std::set<std::string>> m = {
        {"util", {"util"}},
        {"tensor", {"tensor", "util"}},
        {"trace", {"trace", "tensor", "util"}},
        {"runtime", {"runtime", "trace", "util"}},
        {"io", {"io", "runtime", "tensor", "trace", "util"}},
        {"ops", {"ops", "runtime", "tensor", "util"}},
        {"perf", {"perf", "trace", "tensor", "util"}},
        {"nn",
         {"nn", "io", "ops", "runtime", "tensor", "trace", "util"}},
        {"optim",
         {"optim", "io", "nn", "ops", "runtime", "tensor", "trace",
          "util"}},
        {"data",
         {"data", "io", "nn", "ops", "runtime", "tensor", "trace",
          "util"}},
        {"train",
         {"train", "data", "io", "nn", "ops", "optim", "runtime",
          "telemetry", "tensor", "trace", "util"}},
        // Telemetry (trace recorder + metrics) sits on the io and
        // runtime layers. The compute layers (ops/nn/optim) must
        // never include it — observability hooks flow through the
        // runtime profiler's sink, not direct dependencies, so the
        // substrate stays recordable without being recorder-aware.
        {"telemetry", {"telemetry", "io", "runtime", "trace", "util"}},
        {"dist", {"dist", "perf", "trace", "tensor", "util"}},
        {"nmc", {"nmc", "dist", "perf", "trace", "tensor", "util"}},
        // The serving runtime sits beside core at the top of the
        // model stack: it may use the model layers and the execution
        // runtime, but nothing may depend on it except bench/tests —
        // in particular core must stay serving-free, so embedding the
        // substrate never drags in the server.
        {"serve",
         {"serve", "nn", "io", "ops", "runtime", "telemetry",
          "tensor", "trace", "util"}},
        {"core",
         {"core", "data", "dist", "io", "nmc", "nn", "optim", "ops",
          "perf", "runtime", "telemetry", "tensor", "trace", "train",
          "util"}},
    };
    return m;
}

const std::set<std::string> &
layerExceptions()
{
    // KernelStats is the one shared vocabulary type the upper model
    // layers may pull from ops without owning a full ops dependency.
    static const std::set<std::string> exceptions = {
        "ops/kernel_stats.h"};
    return exceptions;
}

std::vector<std::string>
ruleNames()
{
    return {"wall-clock",         "libc-rand",
            "kernel-stats",       "op-entry-contract",
            "parallel-capture-race", "hot-loop-alloc",
            "must-check-io",      "env-registry",
            "include-hygiene",    "include-dag",
            "unchecked-io"};
}

std::vector<Finding>
lintProject(const std::vector<SourceFile> &files, const LintOptions &opts)
{
    ProjectModel pm = buildProjectModel(files);

    std::map<std::string, int> docKnobs;
    if (!opts.envDocText.empty())
        docKnobs = parseEnvDoc(opts.envDocText);

    std::vector<Finding> raw;
    for (const TuModel &tu : pm.tus) {
        checkForbiddenTokens(tu, raw);
        checkOpsKernels(tu, raw);
        checkUncheckedIo(tu, raw);
        checkIncludeHygiene(tu, raw);
        checkParallelCaptureRace(pm, tu, raw);
        checkHotLoopAlloc(tu, raw);
        checkMustCheckIo(pm, tu, raw);
        if (!opts.envDocText.empty())
            checkEnvReads(tu, docKnobs, raw);
    }
    if (!opts.envDocText.empty())
        checkEnvDoc(pm, opts.envDocPath, docKnobs, raw);
    checkIncludeDag(pm, raw);

    // Suppressions apply per finding at the file it is reported in.
    std::map<std::string, const Suppressions *> suppByPath;
    for (const TuModel &tu : pm.tus)
        suppByPath[tu.path] = &tu.supp;

    std::vector<Finding> kept;
    for (auto &fd : raw) {
        const auto si = suppByPath.find(fd.file);
        if (si != suppByPath.end() &&
            si->second->allows(fd.rule, fd.line)) {
            continue;
        }
        kept.push_back(std::move(fd));
    }
    sortFindings(kept);
    return kept;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &text)
{
    return lintProject({SourceFile{path, text}}, LintOptions{});
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &reportPath)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {{reportPath, 0, "io", "cannot read file"}};
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return lintSource(reportPath.empty() ? path : reportPath, ss.str());
}

std::string
stripCommentsAndStrings(const std::string &text)
{
    return buildTuModel("x.cc", text).stripped;
}

std::string
formatText(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    for (const auto &f : findings) {
        os << f.file << ':' << f.line << ": [" << f.rule << "] "
           << f.message << '\n';
    }
    return os.str();
}

std::string
formatJson(const std::vector<Finding> &findings)
{
    auto esc = [](const std::string &s) {
        std::string r;
        for (char c : s) {
            if (c == '"' || c == '\\')
                r += '\\';
            r += c;
        }
        return r;
    };
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const auto &f = findings[i];
        os << "  {\"file\": \"" << esc(f.file) << "\", \"line\": "
           << f.line << ", \"rule\": \"" << esc(f.rule)
           << "\", \"message\": \"" << esc(f.message) << "\"}"
           << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

std::string
formatSarif(const std::vector<Finding> &findings)
{
    auto esc = [](const std::string &s) {
        std::string r;
        for (char c : s) {
            if (c == '"' || c == '\\')
                r += '\\';
            r += c;
        }
        return r;
    };
    std::ostringstream os;
    os << "{\n"
       << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [\n"
       << "    {\n"
       << "      \"tool\": {\n"
       << "        \"driver\": {\n"
       << "          \"name\": \"bplint\",\n"
       << "          \"informationUri\": "
          "\"tools/bplint\",\n"
       << "          \"rules\": [\n";
    const auto rules = ruleNames();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        os << "            {\"id\": \"" << rules[i] << "\"}"
           << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    os << "          ]\n"
       << "        }\n"
       << "      },\n"
       << "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const auto &f = findings[i];
        os << "        {\n"
           << "          \"ruleId\": \"" << esc(f.rule) << "\",\n"
           << "          \"level\": \"error\",\n"
           << "          \"message\": {\"text\": \"" << esc(f.message)
           << "\"},\n"
           << "          \"locations\": [\n"
           << "            {\n"
           << "              \"physicalLocation\": {\n"
           << "                \"artifactLocation\": {\"uri\": \""
           << esc(f.file) << "\"},\n"
           << "                \"region\": {\"startLine\": "
           << std::max(1, f.line) << "}\n"
           << "              }\n"
           << "            }\n"
           << "          ]\n"
           << "        }" << (i + 1 < findings.size() ? "," : "")
           << "\n";
    }
    os << "      ]\n"
       << "    }\n"
       << "  ]\n"
       << "}\n";
    return os.str();
}

std::string
baselineKey(const Finding &f)
{
    // Line numbers are deliberately excluded so a baseline survives
    // unrelated edits above a carried finding.
    return f.file + "|" + f.rule + "|" + f.message;
}

std::string
formatBaseline(const std::vector<Finding> &findings)
{
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const auto &f : findings)
        keys.push_back(baselineKey(f));
    std::sort(keys.begin(), keys.end());
    std::string out;
    for (const auto &k : keys)
        out += k + "\n";
    return out;
}

std::vector<Finding>
applyBaseline(const std::vector<Finding> &findings,
              const std::string &baselineText)
{
    std::multiset<std::string> baseline;
    std::istringstream is(baselineText);
    std::string ln;
    while (std::getline(is, ln)) {
        while (!ln.empty() && (ln.back() == '\r' || ln.back() == '\n'))
            ln.pop_back();
        if (!ln.empty())
            baseline.insert(ln);
    }
    std::vector<Finding> kept;
    for (const auto &f : findings) {
        const auto it = baseline.find(baselineKey(f));
        if (it != baseline.end()) {
            baseline.erase(it); // multiset: each entry excuses one hit
            continue;
        }
        kept.push_back(f);
    }
    return kept;
}

} // namespace bplint
