/**
 * @file
 * The figures and mesh16 workloads: suite points driven through
 * VoltronSystem's public entry points.
 *
 * figures regenerates every point behind Figs. 3 and 10-14 and the three
 * §4.2 kernels from a cold in-process artifact cache, once per pass, on
 * a pool of min(4, nproc) threads. mesh16 compiles the suite for a 4x4
 * mesh in set-up and times only VoltronSystem::run, on the same pool.
 *
 * Layers are timed from outside: the VoltronSystem constructor on a cold
 * cache is the golden interpreter pass, the first compile() per option
 * set is the compiler, and run() on a compiled option set is the
 * simulator plus golden verification.
 */

#include <array>
#include <atomic>
#include <cstdio>
#include <memory>

#include "core/voltron.hh"
#include "perfbench.hh"
#include "trace/metrics.hh"
#include "workloads/archetypes.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace voltron;

constexpr u64 kDefaultSeed = 0xb0157a;
constexpr size_t kNumStalls = static_cast<size_t>(StallCat::NumCats);
constexpr unsigned kMaxPasses = 64;
constexpr int kFiguresBuildReps = 51; // a build takes ~3 ms
constexpr int kMesh16SetupReps = 5;

/** One simulated point: a strategy on a machine shape. */
struct PointSpec
{
    Strategy strategy;
    u16 cores;
    u16 meshRows = 0; //!< 0/0: the default shape for @ref cores
    u16 meshCols = 0;

    CompileOptions
    options() const
    {
        CompileOptions o;
        o.strategy = strategy;
        o.numCores = cores;
        o.meshRows = meshRows;
        o.meshCols = meshCols;
        return o;
    }
};

/** A program and the points run on it, in order. */
struct Item
{
    std::string name;
    Program program;
    std::vector<PointSpec> points;
};

struct PointResult
{
    bool ok = false;
    u64 cycles = 0;
    u64 ops = 0;
    u64 exitValue = 0;
    double latencyS = 0.0; //!< as the worker waited for it
    MachineResult result;  //!< stall breakdown for the traced counters
    SelectionReport selection;
    MetricsRegistry metrics; //!< traced passes only
};

/**
 * The §4.2 case-study program: main calls one archetype phase. Mirrors
 * bench/sec42_kernel_casestudies.cc.
 */
Program
kernel_program(Archetype archetype, const PhaseParams &pp, u64 seed)
{
    Rng rng(seed);
    ProgramBuilder b("case");
    b.beginFunction("main");
    b.emitHalt(b.emitImm(0));
    b.endFunction();
    FuncId f = emit_phase(b, archetype, archetype_name(archetype), pp, rng);
    Program prog = b.take();
    Function &main_fn = prog.function(0);
    main_fn.blocks.clear();
    main_fn.addBlock("entry");
    BasicBlock &bb = main_fn.block(0);
    bb.append(ops::movi(gpr(1), 3));
    RegId bt = main_fn.freshReg(RegClass::BTR);
    bb.append(ops::pbr(bt, CodeRef::to_function(f)));
    bb.append(ops::call(bt));
    bb.append(ops::halt(gpr(0)));
    return prog;
}

struct Kernel
{
    const char *label;
    Archetype archetype;
    Strategy strategy;
    PhaseParams params;
};

std::vector<Kernel>
sec42_kernels()
{
    PhaseParams doall;
    doall.trips = 2048;
    PhaseParams strand;
    strand.trips = 16384;
    strand.width = 6;
    PhaseParams ilp;
    ilp.trips = 1024;
    ilp.elems = 256;
    ilp.width = 8;
    return {{"DOALL", Archetype::DoallStream, Strategy::LlpOnly, doall},
            {"strands", Archetype::StrandMatch, Strategy::TlpOnly, strand},
            {"ILP", Archetype::IlpWide, Strategy::IlpOnly, ilp}};
}

/** The figures item list: 25 suite rows of 9 points, 3 kernels of 2. */
std::vector<Item>
build_figures_items(u64 seed)
{
    SuiteScale scale;
    scale.seed = seed;
    std::vector<Item> items;
    for (const std::string &name : benchmark_names()) {
        Item item{name, build_benchmark(name, scale), {}};
        item.points.push_back({Strategy::SerialOnly, 1});
        for (u16 cores : {u16{2}, u16{4}})
            for (Strategy s : {Strategy::IlpOnly, Strategy::TlpOnly,
                               Strategy::LlpOnly, Strategy::Hybrid})
                item.points.push_back({s, cores});
        items.push_back(std::move(item));
    }
    // The default seed reproduces the harness's fixed kernel seed.
    const u64 kernel_seed = 0xCAFE ^ seed ^ kDefaultSeed;
    for (const Kernel &k : sec42_kernels()) {
        Item item{std::string("sec42.") + k.label,
                  kernel_program(k.archetype, k.params, kernel_seed),
                  {{Strategy::SerialOnly, 1}, {k.strategy, 2}}};
        items.push_back(std::move(item));
    }
    return items;
}

std::vector<Item>
build_mesh16_items(u64 seed)
{
    SuiteScale scale;
    scale.seed = seed;
    std::vector<Item> items;
    for (const std::string &name : benchmark_names()) {
        Item item{name, build_benchmark(name, scale), {}};
        for (Strategy s : {Strategy::IlpOnly, Strategy::TlpOnly,
                           Strategy::LlpOnly, Strategy::Hybrid})
            item.points.push_back({s, 16, 4, 4});
        items.push_back(std::move(item));
    }
    return items;
}

size_t
point_count(const std::vector<Item> &items)
{
    size_t n = 0;
    for (const Item &item : items)
        n += item.points.size();
    return n;
}

/**
 * Simulate one point on @p sys (compiling it first, as its own span,
 * when @p compile is set) and fill @p r. Its latency runs from
 * @p start to the end of the run.
 */
void
run_point(VoltronSystem &sys, const Item &item, const PointSpec &spec,
          Clock::time_point start, bool compile, SpanRecorder *spans,
          u64 group, PointResult &r)
{
    ScopedSpan point(spans, "point", group);
    try {
        const CompileOptions opts = spec.options();
        if (compile) {
            ScopedSpan span(spans, "compiler.compile", group, point.index());
            sys.compile(opts);
        }
        RunOutcome o;
        {
            ScopedSpan span(spans,
                            std::string("sim.run.") +
                                strategy_name(spec.strategy),
                            group, point.index());
            o = sys.run(opts, std::nullopt, spans ? &r.metrics : nullptr);
        }
        r.ok = o.correct();
        r.cycles = o.result.cycles;
        r.ops = o.result.dynamicOps;
        r.exitValue = o.result.exitValue;
        if (spans) {
            r.result = std::move(o.result);
            r.selection = std::move(o.selection);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s %s@%u: %s\n", item.name.c_str(),
                     strategy_name(spec.strategy),
                     static_cast<unsigned>(spec.cores), e.what());
        r.ok = false;
    }
    r.latencyS = seconds_since(start);
}

/**
 * What every pass produced, for checking and for the metrics. Pass times
 * are at the reference speed (HostTime); the raw wall times are kept for
 * the run record.
 */
struct PassLog
{
    std::vector<std::vector<PointResult>> untraced; //!< per pass
    std::vector<std::vector<PointResult>> traced;
    std::vector<double> untracedWall;
    std::vector<double> untracedCpu;
    std::vector<double> untracedSpeed; //!< host_speed() per pass
    std::vector<double> rawWall;
    std::vector<double> tracedWall;
    CacheGrowth cache; //!< over the traced passes
    u64 goldenOps = 0; //!< interpreted ops of one pass's golden runs
    double peakRssMb = 0.0;

    void
    beginPass(bool is_traced)
    {
        if (is_traced)
            cache.begin();
    }

    void
    endPass(bool is_traced, std::vector<PointResult> results,
            const HostTime &t)
    {
        if (!is_traced) {
            untraced.push_back(std::move(results));
            untracedWall.push_back(t.wall());
            untracedCpu.push_back(t.cpu());
            untracedSpeed.push_back(t.speed);
            rawWall.push_back(t.rawWall);
            return;
        }
        cache.end();
        traced.push_back(std::move(results));
        tracedWall.push_back(t.wall());
    }
};

/**
 * Golden results and cross-pass determinism: every point must be correct
 * and read the same cycles, ops and exit value in every pass. Feeds the
 * digest from the first pass.
 */
void
check_points(const std::vector<Item> &items, const PassLog &log,
             Report &report)
{
    std::vector<const std::vector<PointResult> *> passes;
    for (const auto &p : log.untraced)
        passes.push_back(&p);
    for (const auto &p : log.traced)
        passes.push_back(&p);
    const std::vector<PointResult> &ref = *passes.front();
    size_t idx = 0;
    for (const Item &item : items) {
        for (const PointSpec &spec : item.points) {
            const PointResult &r0 = ref[idx];
            report.digest.add(item.name);
            report.digest.add(std::string(strategy_name(spec.strategy)));
            report.digest.add(spec.cores);
            report.digest.add(r0.cycles);
            report.digest.add(r0.ops);
            report.digest.add(r0.exitValue);
            for (const std::vector<PointResult> *pass : passes) {
                const PointResult &r = (*pass)[idx];
                ++report.attempted;
                if (!r.ok || r.cycles != r0.cycles || r.ops != r0.ops ||
                    r.exitValue != r0.exitValue)
                    ++report.failed;
            }
            ++idx;
        }
    }
}

/** Mean speedup over serial of @p strategy at @p cores across the suite
 * rows (the first benchmark_names().size() items), as Figs. 10-13
 * average it. */
double
mean_speedup(const std::vector<Item> &items,
             const std::vector<PointResult> &pass,
             const std::vector<Cycle> &serial, Strategy strategy, u16 cores)
{
    std::vector<double> speedups;
    size_t idx = 0;
    for (size_t i = 0; i < benchmark_names().size(); ++i) {
        for (const PointSpec &spec : items[i].points) {
            if (spec.strategy == strategy && spec.cores == cores &&
                pass[idx].cycles != 0)
                speedups.push_back(static_cast<double>(serial[i]) /
                                   static_cast<double>(pass[idx].cycles));
            ++idx;
        }
    }
    return speedups.empty() ? 0.0 : sum(speedups) / speedups.size();
}

/** Sum every counter named "mem.core<N>.<suffix>". */
double
per_core_sum(const MetricsRegistry &m, const std::string &suffix)
{
    double total = 0.0;
    for (const auto &[name, value] : m.counters())
        if (name.rfind("mem.core", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += static_cast<double>(value);
    return total;
}

/**
 * Per-layer metrics from the traced passes. Host times are per pass
 * (totals divided by the number of traced passes) with percentiles over
 * every span; modelled counters are per pass (every pass simulates the
 * same points).
 */
void
add_layer_metrics(const std::vector<Item> &items, const PassLog &log,
                  const SpanRecorder &spans, Report &report)
{
    const double k = static_cast<double>(log.traced.size());
    const SpanTimes self = spans.selfSecondsByName();

    const std::vector<double> golden = spans_named(self, "interp.golden");
    const double golden_ops = static_cast<double>(log.goldenOps);
    if (!golden.empty()) {
        report.set("interp.golden_s", sum(golden) / k, "s", golden.size());
        report.set("interp.golden_ops", golden_ops, "ops");
        report.set("interp.ops_per_s",
                   Report::ratio(golden_ops, sum(golden) / k), "ops/s",
                   golden.size());
    }
    report_compiles(report, spans_named(self, "compiler.compile"), k);

    std::vector<double> runs;
    for (const char *s : {"serial", "ilp", "tlp", "llp", "hybrid"}) {
        const std::vector<double> v =
            spans_named(self, std::string("sim.run.") + s);
        runs.insert(runs.end(), v.begin(), v.end());
        if (std::string(s) != "serial")
            report.set(std::string("sim.run_s.") + s, sum(v) / k, "s",
                       v.size());
    }
    report_runs(report, runs, k);
    const double run_s = sum(runs) / k;

    // Modelled counters, from the last traced pass.
    const std::vector<PointResult> &pass = log.traced.back();
    double cycles = 0, ops = 0, coupled = 0, core_cycles = 0;
    std::array<double, kNumStalls> stalls{};
    std::map<ExecMode, double> mode_ops;
    double hybrid_ops = 0;
    double l1i_acc = 0, l1i_miss = 0, l1d_acc = 0, l1d_miss = 0;
    double l2_acc = 0, l2_miss = 0;
    double hop_p99 = 0, depth_p99 = 0;
    MetricsRegistry totals;
    size_t idx = 0;
    for (const Item &item : items) {
        for (const PointSpec &spec : item.points) {
            const PointResult &r = pass[idx++];
            cycles += static_cast<double>(r.result.cycles);
            ops += static_cast<double>(r.result.dynamicOps);
            coupled += static_cast<double>(r.result.coupledCycles);
            core_cycles += static_cast<double>(r.result.cycles) * spec.cores;
            for (const auto &core : r.result.stalls)
                for (size_t s = 1; s < kNumStalls; ++s)
                    stalls[s] += static_cast<double>(core[s]);
            if (spec.strategy == Strategy::Hybrid) {
                for (const auto &e : r.selection.entries) {
                    mode_ops[e.mode] += static_cast<double>(e.profiledOps);
                    hybrid_ops += static_cast<double>(e.profiledOps);
                }
            }
            const MetricsRegistry &m = r.metrics;
            l1i_acc += per_core_sum(m, ".l1i.fetches");
            l1i_miss += per_core_sum(m, ".l1i.misses");
            l1d_acc += per_core_sum(m, ".l1d.reads") +
                       per_core_sum(m, ".l1d.writes");
            l1d_miss += per_core_sum(m, ".l1d.misses");
            l2_acc += per_core_sum(m, ".l2.hits") +
                      per_core_sum(m, ".l2.misses");
            l2_miss += per_core_sum(m, ".l2.misses");
            hop_p99 = std::max(
                hop_p99, static_cast<double>(m.get("net.hopLatency.p99")));
            depth_p99 = std::max(
                depth_p99, static_cast<double>(m.get("net.queueDepth.p99")));
            totals.merge(m);
        }
    }
    report.set("sim.cycles", cycles, "cycles");
    report.set("sim.ops", ops, "ops");
    report.set("sim.coupled_share", Report::ratio(coupled, cycles), "ratio");
    report.set("sim.ops_per_host_s", Report::ratio(ops, run_s), "ops/s",
               runs.size());
    report.set("sim.host_ns_per_core_cycle",
               Report::ratio(run_s * 1e9, core_cycles), "ns", runs.size());
    for (size_t s = 1; s < kNumStalls; ++s)
        report.set(std::string("sim.stall_cpi.") +
                       stall_cat_name(static_cast<StallCat>(s)),
                   Report::ratio(stalls[s], ops), "cycles/op");

    report.set("compiler.profiled_ops", hybrid_ops, "ops");
    for (ExecMode mode : {ExecMode::Serial, ExecMode::Coupled,
                          ExecMode::Strands, ExecMode::Dswp,
                          ExecMode::Doall})
        report.set(std::string("compiler.mode_share.") +
                       exec_mode_name(mode),
                   Report::ratio(mode_ops[mode], hybrid_ops), "ratio");

    report.set("mem.l1i.accesses", l1i_acc, "count");
    report.set("mem.l1i.misses", l1i_miss, "count");
    report.set("mem.l1i.miss_ratio", Report::ratio(l1i_miss, l1i_acc),
               "ratio");
    report.set("mem.l1d.accesses", l1d_acc, "count");
    report.set("mem.l1d.misses", l1d_miss, "count");
    report.set("mem.l1d.miss_ratio", Report::ratio(l1d_miss, l1d_acc),
               "ratio");
    report.set("mem.l2.accesses", l2_acc, "count");
    report.set("mem.l2.misses", l2_miss, "count");
    report.set("mem.l2.miss_ratio", Report::ratio(l2_miss, l2_acc),
               "ratio");
    report.set("mem.l1d.cache_to_cache",
               per_core_sum(totals, ".l1d.cacheToCache"), "count");
    report.set("mem.bus.transactions",
               static_cast<double>(totals.get("mem.bus.transactions")),
               "count");
    report.set("mem.bus.wait_cycles",
               static_cast<double>(totals.get("mem.bus.waitCycles")),
               "cycles");

    for (const char *n :
         {"messages", "receives", "spawns", "puts", "gets", "bcasts"})
        report.set(std::string("network.") + n,
                   static_cast<double>(totals.get(std::string("net.") + n)),
                   "count");
    report.set("network.hop_latency_p99", hop_p99, "cycles");
    report.set("network.queue_depth_p99", depth_p99, "count");

    const double begins = static_cast<double>(totals.get("tm.begins"));
    const double aborts = static_cast<double>(totals.get("tm.aborts"));
    report.set("tm.begins", begins, "count");
    report.set("tm.commits", static_cast<double>(totals.get("tm.commits")),
               "count");
    report.set("tm.aborts", aborts, "count");
    report.set("tm.violations",
               static_cast<double>(totals.get("tm.violations")), "count");
    report.set("tm.abort_ratio", Report::ratio(aborts, begins), "ratio");

    log.cache.report(report, k);

    if (!log.untracedWall.empty() && !log.tracedWall.empty())
        report.set("tracing_overhead_pct",
                   (median(log.tracedWall) / median(log.untracedWall) -
                    1.0) * 100.0,
                   "%", log.tracedWall.size());
}

std::string
fixed2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

/**
 * The metrics every suite-point workload reports from its passes: wall
 * time and per-point latency from the untraced passes, per-layer numbers
 * and the span file from the traced ones.
 */
void
add_pass_metrics(const std::vector<Item> &items, const PassLog &log,
                 const SpanRecorder &spans, const RunOptions &options,
                 Report &report)
{
    report.facts["passes"] = std::to_string(log.untraced.size()) + "+" +
                             std::to_string(log.traced.size()) + " traced";
    report.set("peak_rss_mb", log.peakRssMb, "MB");
    if (!log.untraced.empty()) {
        report.set("wall_s", median(log.untracedWall), "s",
                   log.untracedWall.size());
        report.facts["wall_s_pass_spread"] = spread_of(log.untracedWall);
        report.facts["raw_wall_s"] = std::to_string(median(log.rawWall));
        report.facts["host_speed"] =
            std::to_string(median(log.untracedSpeed));
        report.set("cpu_s", median(log.untracedCpu), "s",
                   log.untracedCpu.size());
        // Every point of every untraced pass, at its pass's speed.
        std::vector<double> lat_ms;
        for (size_t k = 0; k < log.untraced.size(); ++k)
            for (const PointResult &r : log.untraced[k])
                lat_ms.push_back(r.latencyS * log.untracedSpeed[k] * 1e3);
        report.set("latency_p50_ms", quantile(lat_ms, 0.5), "ms",
                   lat_ms.size());
        report.set("latency_p99_ms", quantile(lat_ms, 0.99), "ms",
                   lat_ms.size());
    }
    if (log.traced.empty())
        return;
    report.facts["traced_pass_s"] = std::to_string(median(log.tracedWall));
    add_layer_metrics(items, log, spans, report);
    const std::string path = options.scratchDir + "/../" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".spans.json";
    if (spans.writeJson(path))
        report.facts["spans_file"] = path;
}

/** Index of each item's first point in a pass's flat result list. */
std::vector<size_t>
first_indices(const std::vector<Item> &items)
{
    std::vector<size_t> first;
    size_t n = 0;
    for (const Item &item : items) {
        first.push_back(n);
        n += item.points.size();
    }
    return first;
}

} // namespace

void
run_figures(const RunOptions &options, Report &report)
{
    const unsigned width = pool_width();
    report.facts["pool_width"] = std::to_string(width);
    report.facts["clients"] = "0";
    ReferenceClock clock(width);

    // Set-up: build the suite and kernel programs (the workloads layer).
    std::vector<Item> items;
    std::vector<double> builds;
    const HostTime setup = clock.time([&] {
        for (int r = 0; r < kFiguresBuildReps; ++r) {
            const Clock::time_point t0 = Clock::now();
            items = build_figures_items(options.seed);
            builds.push_back(seconds_since(t0));
        }
    });
    for (double &b : builds)
        b *= setup.speed;
    report.set("setup_s", median(builds), "s", builds.size());
    report.set("workloads.build_s", median(builds), "s", builds.size());

    const size_t points = point_count(items);
    const std::vector<size_t> first_index = first_indices(items);
    ArtifactCache &cache = ArtifactCache::instance();
    SpanRecorder recorder;
    PassLog log;
    log.peakRssMb = run_passes(
        options.seconds, kMaxPasses, options.trace,
        [&](unsigned pass, bool traced) {
        SpanRecorder *spans = traced ? &recorder : nullptr;
        std::vector<PointResult> results(points);
        std::atomic<u64> golden_ops{0};
        // Every pass is cold: no disk tier, empty in-process level.
        cache.clearMemory();
        log.beginPass(traced);
        const u64 group_base = u64{pass} * points;
        auto run_item = [&](size_t i) {
            const Clock::time_point start = Clock::now();
            const u64 group = group_base + first_index[i];
            std::unique_ptr<VoltronSystem> sys;
            try {
                Program prog = items[i].program;
                ScopedSpan span(spans, "interp.golden", group);
                sys = std::make_unique<VoltronSystem>(std::move(prog));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: %s golden: %s\n",
                             items[i].name.c_str(), e.what());
                return; // its points stay !ok
            }
            golden_ops += sys->goldenResult().dynamicOps;
            // The program's points in order; the first one's latency
            // carries the golden pass.
            Clock::time_point prev = start;
            for (size_t p = 0; p < items[i].points.size(); ++p) {
                const size_t idx = first_index[i] + p;
                run_point(*sys, items[i], items[i].points[p], prev,
                          /*compile=*/true, spans, group_base + idx,
                          results[idx]);
                prev = Clock::now();
            }
        };
        const HostTime t =
            clock.time([&] { pool_for(items.size(), width, run_item); });
        log.goldenOps = golden_ops.load();
        log.endPass(traced, std::move(results), t);
    });
    check_points(items, log, report);

    // Serial cycles per item, from its Serial@1 point.
    const std::vector<PointResult> &ref =
        log.untraced.empty() ? log.traced.front() : log.untraced.front();
    std::vector<Cycle> serial;
    for (size_t i = 0; i < items.size(); ++i)
        serial.push_back(ref[first_index[i]].cycles);
    auto speedup = [&](Strategy s, u16 cores) {
        return mean_speedup(items, ref, serial, s, cores);
    };
    const double hyb2 = speedup(Strategy::Hybrid, 2);
    const double hyb4 = speedup(Strategy::Hybrid, 4);
    const size_t suite = benchmark_names().size();
    report.set("hybrid_speedup", hyb4, "x", suite);
    report.set("ilp_speedup_4c", speedup(Strategy::IlpOnly, 4), "x", suite);
    report.set("tlp_speedup_4c", speedup(Strategy::TlpOnly, 4), "x", suite);
    report.set("llp_speedup_4c", speedup(Strategy::LlpOnly, 4), "x", suite);
    report.set("hybrid_speedup_2c", hyb2, "x", suite);
    report.set("hybrid_speedup_4c", hyb4, "x", suite);
    add_pass_metrics(items, log, recorder, options, report);

    std::vector<std::string> kernel_speedups;
    for (size_t i = benchmark_names().size(); i < items.size(); ++i)
        kernel_speedups.push_back(
            items[i].name + " " +
            fixed2(static_cast<double>(serial[i]) /
                   static_cast<double>(
                       std::max<Cycle>(1, ref[first_index[i] + 1].cycles))));
    report.summary = {
        "figures: " + std::to_string(items.size()) + " programs, " +
            std::to_string(points) + " points per cold pass, pool width " +
            std::to_string(width),
        "  Fig.10 2-core mean speedup: ILP " +
            fixed2(speedup(Strategy::IlpOnly, 2)) + "  TLP " +
            fixed2(speedup(Strategy::TlpOnly, 2)) + "  LLP " +
            fixed2(speedup(Strategy::LlpOnly, 2)),
        "  Fig.11 4-core mean speedup: ILP " +
            fixed2(speedup(Strategy::IlpOnly, 4)) + "  TLP " +
            fixed2(speedup(Strategy::TlpOnly, 4)) + "  LLP " +
            fixed2(speedup(Strategy::LlpOnly, 4)),
        "  Fig.13 hybrid mean speedup: 2-core " + fixed2(hyb2) +
            "  4-core " + fixed2(hyb4),
        "  Sec.4.2 kernels (2-core): " + kernel_speedups[0] + ", " +
            kernel_speedups[1] + ", " + kernel_speedups[2],
    };
}

void
run_mesh16(const RunOptions &options, Report &report)
{
    const unsigned width = pool_width();
    report.facts["pool_width"] = std::to_string(width);
    report.facts["clients"] = "0";
    ReferenceClock clock(width);

    // Set-up, repeated from a cold cache: build the programs, run the
    // golden pass and serial baseline, and compile all 100 points.
    ArtifactCache &cache = ArtifactCache::instance();
    std::vector<Item> items;
    std::vector<std::unique_ptr<VoltronSystem>> systems;
    std::vector<Cycle> serial;
    std::vector<double> setups, builds;
    for (int rep = 0; rep < kMesh16SetupReps; ++rep) {
        cache.clearMemory();
        double build_s = 0.0;
        const HostTime t = clock.time([&] {
            const Clock::time_point t0 = Clock::now();
            items = build_mesh16_items(options.seed);
            build_s = seconds_since(t0);
            systems.clear();
            systems.resize(items.size());
            serial.assign(items.size(), 0);
            pool_for(items.size(), width, [&](size_t i) {
                systems[i] =
                    std::make_unique<VoltronSystem>(items[i].program);
                serial[i] = systems[i]->baselineCycles();
                for (const PointSpec &spec : items[i].points)
                    systems[i]->compile(spec.options());
            });
        });
        setups.push_back(t.wall());
        builds.push_back(build_s * t.speed);
    }
    report.set("setup_s", median(setups), "s", setups.size());
    report.set("workloads.build_s", median(builds), "s", builds.size());

    // Every point is compiled, so the pool takes points, not programs.
    std::vector<std::pair<size_t, size_t>> flat; // (item, point)
    for (size_t i = 0; i < items.size(); ++i)
        for (size_t p = 0; p < items[i].points.size(); ++p)
            flat.push_back({i, p});
    const size_t points = flat.size();
    SpanRecorder recorder;
    PassLog log;
    log.peakRssMb = run_passes(
        options.seconds, kMaxPasses, options.trace,
        [&](unsigned pass, bool traced) {
        SpanRecorder *spans = traced ? &recorder : nullptr;
        std::vector<PointResult> results(points);
        log.beginPass(traced);
        const HostTime t = clock.time([&] {
            pool_for(points, width, [&](size_t k) {
                const auto [i, p] = flat[k];
                run_point(*systems[i], items[i], items[i].points[p],
                          Clock::now(), /*compile=*/false, spans,
                          u64{pass} * points + k, results[k]);
            });
        });
        log.endPass(traced, std::move(results), t);
    });
    check_points(items, log, report);

    const std::vector<PointResult> &ref =
        log.untraced.empty() ? log.traced.front() : log.untraced.front();
    auto speedup = [&](Strategy s) {
        return mean_speedup(items, ref, serial, s, 16);
    };
    const double hyb = speedup(Strategy::Hybrid);
    report.set("hybrid_speedup", hyb, "x", items.size());
    report.set("hybrid_speedup_16c", hyb, "x", items.size());

    add_pass_metrics(items, log, recorder, options, report);
    report.summary = {
        "mesh16: " + std::to_string(items.size()) + " programs x 4 " +
            "strategies on a 4x4 mesh, pool width " + std::to_string(width) +
            ", compiles in set-up",
        "  16-core mean speedup: ILP " + fixed2(speedup(Strategy::IlpOnly)) +
            "  TLP " + fixed2(speedup(Strategy::TlpOnly)) + "  LLP " +
            fixed2(speedup(Strategy::LlpOnly)) + "  Hybrid " + fixed2(hyb),
    };
}

} // namespace perfbench
