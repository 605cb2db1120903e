/**
 * @file
 * perfbench — one command that runs a named workload from a seed,
 * golden-checks every simulated result, and prints each metric with its
 * unit and sample count.
 *
 *   perfbench --workload figures|mesh16|serve [--seed N] [--seconds S]
 *             [--trace 0|1] [--spec BENCHMARK.json] [--scratch DIR]
 *             [--git-rev REV]
 *
 * The metric names, units, workloads and default run length (--seconds)
 * come from the spec file (BENCHMARK.json at the repository root). With
 * --trace 0 the last line carries every end-to-end metric, with --trace 1
 * every per-layer metric; the lines before it give the human-readable
 * summary, every metric with its sample count, and a record of the host,
 * build and simulated-result digest. A metric a workload does not
 * exercise reads 0.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/artifact_cache.hh"
#include "perfbench.hh"
#include "server/json.hh"
#include "support/log.hh"

namespace {

using namespace perfbench;

struct SpecMetric
{
    std::string name;
    std::string unit;
};

struct Spec
{
    double runSeconds = 0.0;
    std::vector<std::string> workloads;
    std::vector<SpecMetric> endToEnd;
    std::vector<SpecMetric> perLayer;
};

bool
load_spec(const std::string &path, Spec &spec, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    voltron::JsonValue root;
    if (!voltron::JsonValue::parse(text.str(), root, &err))
        return false;
    auto metrics = [&](const char *key, std::vector<SpecMetric> &out) {
        const voltron::JsonValue *list = root.find(key);
        if (!list || !list->isArray())
            return false;
        for (const voltron::JsonValue &m : list->items())
            out.push_back({m.str("name"), m.str("unit")});
        return !out.empty();
    };
    spec.runSeconds = root.f64At("run_seconds");
    const voltron::JsonValue *workloads = root.find("workloads");
    if (workloads && workloads->isArray())
        for (const voltron::JsonValue &w : workloads->items())
            spec.workloads.push_back(w.str("name"));
    if (!(spec.runSeconds > 0.0) || spec.workloads.empty() ||
        !metrics("end_to_end", spec.endToEnd) ||
        !metrics("per_layer", spec.perLayer)) {
        err = path + " lacks run_seconds, workloads, end_to_end or per_layer";
        return false;
    }
    return true;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex64(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--spec FILE] [--scratch DIR]"
                 " [--git-rev REV]\n";
    return 2;
}

/** Removes the per-run scratch directory however the run ends. */
struct ScratchDir
{
    std::string path;
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string spec_path = "BENCHMARK.json";
    std::string scratch_root = ".bench_build/tmp";
    std::string git_rev = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = val;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(val.c_str(), &end, 0);
            if (*end != '\0')
                return usage();
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0))
                return usage();
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage();
            options.trace = val == "1";
        } else if (arg == "--spec") {
            spec_path = val;
        } else if (arg == "--scratch") {
            scratch_root = val;
        } else if (arg == "--git-rev") {
            git_rev = val;
        } else {
            return usage();
        }
    }

    Spec spec;
    std::string err;
    if (!load_spec(spec_path, spec, err)) {
        std::cerr << "perfbench: " << err << "\n";
        return 2;
    }
    if (std::find(spec.workloads.begin(), spec.workloads.end(),
                  options.workload) == spec.workloads.end()) {
        std::cerr << "perfbench: unknown workload '" << options.workload
                  << "'\n";
        return usage();
    }
    if (options.seconds == 0.0)
        options.seconds = spec.runSeconds;

    // Pin what the workload sees: the environment's cache directory,
    // budget and log filter never apply; each workload sets the artifact
    // cache state it needs explicitly.
    voltron::Logger::instance().configure("warn");
    voltron::ArtifactCache::instance().setDiskDir(std::string());
    voltron::ArtifactCache::instance().setDiskBudget(u64{0});

    ScratchDir scratch{scratch_root + "/" + options.workload + "-" +
                       std::to_string(::getpid())};
    std::filesystem::create_directories(scratch.path);
    options.scratchDir = scratch.path;

    Report report;
    report.facts["workload"] = options.workload;
    report.facts["seed"] = std::to_string(options.seed);
    report.facts["trace"] = options.trace ? "1" : "0";
    report.facts["host_cores"] = std::to_string(host_cores());
    report.facts["build_type"] = PERFBENCH_BUILD_TYPE;
    report.facts["git_rev"] = git_rev;
    try {
        if (options.workload == "figures")
            run_figures(options, report);
        else if (options.workload == "mesh16")
            run_mesh16(options, report);
        else
            run_serve(options, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    // Layers the workload bypasses read 0; an end-to-end metric it did
    // not produce is a bug in this harness.
    for (const SpecMetric &m : spec.perLayer)
        if (!report.metrics.count(m.name))
            report.set(m.name, 0.0, m.unit, 0);
    const std::vector<SpecMetric> &wanted =
        options.trace ? spec.perLayer : spec.endToEnd;
    for (const std::vector<SpecMetric> *list :
         {&spec.endToEnd, &spec.perLayer}) {
        for (const SpecMetric &m : *list) {
            auto it = report.metrics.find(m.name);
            if (list == &wanted && it == report.metrics.end()) {
                std::cerr << "perfbench: " << options.workload
                          << " did not produce " << m.name << "\n";
                return 1;
            }
            if (it != report.metrics.end() && it->second.unit != m.unit) {
                std::cerr << "perfbench: " << m.name << " is in "
                          << it->second.unit << ", spec says " << m.unit
                          << "\n";
                return 1;
            }
        }
    }

    for (const std::string &line : report.summary)
        std::cout << line << "\n";
    std::cout << "metrics (value unit, samples):\n";
    for (const SpecMetric &m : wanted) {
        const Metric &v = report.metrics.at(m.name);
        std::cout << "  " << m.name << " = " << number(v.value) << " "
                  << v.unit << "  (n=" << v.samples << ")\n";
    }
    const double error_rate = Report::ratio(
        static_cast<double>(report.failed),
        static_cast<double>(report.attempted));
    std::cout << "record {";
    for (const auto &[key, value] : report.facts)
        std::cout << "\"" << key << "\":\"" << voltron::json_escape(value)
                  << "\",";
    std::cout << "\"digest\":\"" << hex64(report.digest.value)
              << "\",\"error_rate\":" << number(error_rate) << "}\n";

    std::cout << "{\"correct\":"
              << (report.failed == 0 && report.attempted > 0 ? "true"
                                                             : "false")
              << ",\"attempted\":" << report.attempted
              << ",\"failed\":" << report.failed << ",\"metrics\":{";
    bool first = true;
    for (const SpecMetric &m : wanted) {
        const Metric &v = report.metrics.at(m.name);
        std::cout << (first ? "" : ",") << "\"" << m.name
                  << "\":{\"value\":" << number(v.value) << ",\"unit\":\""
                  << v.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}
