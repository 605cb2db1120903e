/**
 * @file
 * The serve workload: voltron-served in-process on a per-run socket,
 * driven by a closed loop of client connections.
 *
 * Set-up cold-fills a hot pool (every suite benchmark under three option
 * sets). Each timed pass then sends a fixed, seeded mix: mostly replays of
 * the hot pool (response-cache hits, which run no compile or simulation)
 * plus never-seen requests, half new programs (a suite benchmark at a
 * seeded targetOps) and half new option sets for hot programs. The 1 MiB
 * disk budget forces evictions alongside the hits.
 *
 * Every response must be "status":"ok" with a parseable, golden-correct
 * result; every replay must repeat the hot pool's simulated statistics.
 * Traced passes send "timing":true and add the daemon's returned phases
 * as children of the client's request span.
 */

#include <sys/un.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "core/artifact_cache.hh"
#include "perfbench.hh"
#include "server/client.hh"
#include "server/json.hh"
#include "server/server.hh"
#include "support/rng.hh"
#include "trace/metrics.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace voltron;

constexpr size_t kClients = 4;
constexpr size_t kWorkers = 2; // the daemon's default
constexpr u64 kDiskBudget = 1 << 20;
constexpr size_t kPassRequests = 400;
constexpr size_t kPassNewPrograms = 10;
constexpr size_t kPassNewOptions = 10;
constexpr int kSetupReps = 5;
// Every pass adds never-seen programs to the daemon, which keeps them;
// the cap bounds how far a run grows it (about 9 MB a pass: a 40-pass run
// peaks near 400 MB).
constexpr unsigned kMaxPasses = 40;

/** A strategy on a core count, every other option at the daemon's
 * default. */
struct OptionSet
{
    std::string strategy;
    u64 cores;

    bool
    operator==(const OptionSet &o) const
    {
        return strategy == o.strategy && cores == o.cores;
    }
};

const OptionSet kHotOptions[] = {{"hybrid", 4}, {"hybrid", 2}, {"llp", 4}};

/** One request of the mix, with what its result must repeat. */
struct Request
{
    std::string benchmark;
    u64 targetOps = 0; //!< 0: the suite default
    OptionSet options;
    bool cold = false;     //!< never sent before in this run
    size_t hotIndex = 0;   //!< for replays: which hot-pool key

    std::string
    line(bool timing) const
    {
        JsonWriter w;
        w.beginObject();
        w.field("op", "run");
        w.field("benchmark", benchmark);
        if (targetOps != 0)
            w.field("targetOps", targetOps);
        if (timing)
            w.field("timing", true);
        w.key("options");
        w.beginObject();
        w.field("strategy", options.strategy);
        w.field("cores", options.cores);
        w.endObject();
        w.endObject();
        return w.str();
    }
};

/** What a response said, as far as the benchmark checks it. */
struct Reply
{
    bool ok = false;
    std::string source; //!< cold | cached | follower
    double latencyUs = 0.0;
    u64 cycles = 0;
    u64 ops = 0;
    u64 exitValue = 0;
    double speedup = 0.0;
    i64 startNs = 0; //!< client send, on the recorder's clock
    JsonValue timing; //!< traced passes only
};

/**
 * Send @p requests from kClients closed-loop connections (each waits
 * for its reply before sending the next) and collect the replies in
 * request order. A request that fails to send, gets no reply, or gets an
 * unparseable or non-ok reply leaves its Reply !ok.
 */
std::vector<Reply>
drive(const std::string &socket, const std::vector<Request> &requests,
      bool timing, SpanRecorder &clock)
{
    std::vector<Reply> replies(requests.size());
    std::atomic<size_t> next{0};
    auto client_loop = [&] {
        Client client;
        for (size_t i = next.fetch_add(1); i < requests.size();
             i = next.fetch_add(1)) {
            Reply &r = replies[i];
            if (!client.connected() && !client.connect(socket))
                continue;
            const std::string line = requests[i].line(timing);
            r.startNs = clock.nowNs();
            const Clock::time_point t0 = Clock::now();
            std::string response;
            if (!client.request(line, response))
                continue; // the connection is closed; reconnect next time
            r.latencyUs =
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
            JsonValue v;
            if (!JsonValue::parse(response, v) || v.str("status") != "ok")
                continue;
            const JsonValue *result = v.find("result");
            if (!result || !result->isObject() ||
                !result->boolAt("correct"))
                continue;
            r.source = v.str("source");
            r.cycles = result->u64At("cycles");
            r.ops = result->u64At("dynamicOps");
            r.exitValue = result->u64At("exitValue");
            r.speedup = result->f64At("speedup");
            if (timing) {
                const JsonValue *t = v.find("timing");
                if (!t || !t->isObject())
                    continue;
                r.timing = *t;
            }
            r.ok = r.cycles != 0;
        }
    };
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back(client_loop);
    for (std::thread &t : clients)
        t.join();
    return replies;
}

/** The hot pool: every suite benchmark under every hot option set. */
std::vector<Request>
hot_pool()
{
    std::vector<Request> hot;
    for (const std::string &name : benchmark_names())
        for (const OptionSet &o : kHotOptions)
            hot.push_back({name, 0, o, true, hot.size()});
    return hot;
}

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Deterministic source of never-seen requests: new programs (a fresh
 * targetOps near the suite scale) and new option sets for hot programs.
 * The option sets are the strategy x core-count points the repository's
 * harnesses run (ILP/TLP/LLP/Hybrid at 2 and 4 cores as in the figures,
 * 8 and 16 as in bench/mesh_scaling) that the hot pool lacks. Both visit
 * the suite in seeded rounds that cover every benchmark once, so a pass's
 * cold work costs about the same under every seed.
 */
class ColdSource
{
  public:
    explicit ColdSource(u64 seed) : rng_(seed ^ 0x5e4e5eedULL)
    {
        const std::vector<std::string> &names = benchmark_names();
        std::vector<OptionSet> fresh;
        for (const char *s : {"ilp", "tlp", "llp", "hybrid"})
            for (u64 cores : {2, 4, 8, 16})
                if (std::find(std::begin(kHotOptions), std::end(kHotOptions),
                              OptionSet{s, cores}) == std::end(kHotOptions))
                    fresh.push_back({s, cores});
        std::vector<std::vector<OptionSet>> per_bench(names.size(), fresh);
        for (auto &sets : per_bench)
            shuffle(sets, rng_);
        for (size_t round = 0; round < fresh.size(); ++round) {
            std::vector<size_t> order = benchmarkOrder();
            for (size_t b : order)
                options_.push_back(
                    {names[b], 0, per_bench[b][round], true, 0});
        }
    }

    Request
    newProgram()
    {
        if (programOrder_.empty())
            programOrder_ = benchmarkOrder();
        const size_t bench = programOrder_.back();
        programOrder_.pop_back();
        u64 ops = 0;
        do {
            ops = 100'000 + rng_.below(40'000);
        } while (!usedOps_.insert(ops).second);
        const OptionSet &o =
            kHotOptions[usedOps_.size() % std::size(kHotOptions)];
        return {benchmark_names()[bench], ops, o, true, 0};
    }

    Request
    newOptions()
    {
        if (next_ >= options_.size())
            return newProgram(); // every option set has been sent
        return options_[next_++];
    }

    Rng &rng() { return rng_; }

  private:
    std::vector<size_t> benchmarkOrder()
    {
        std::vector<size_t> order(benchmark_names().size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        shuffle(order, rng_);
        return order;
    }

    Rng rng_;
    std::vector<Request> options_;
    size_t next_ = 0;
    std::vector<size_t> programOrder_;
    std::set<u64> usedOps_;
};

/** One pass's request mix, shuffled from the seed. */
std::vector<Request>
pass_mix(const std::vector<Request> &hot, ColdSource &cold)
{
    std::vector<Request> mix;
    for (size_t i = 0; i < kPassNewPrograms; ++i)
        mix.push_back(cold.newProgram());
    for (size_t i = 0; i < kPassNewOptions; ++i)
        mix.push_back(cold.newOptions());
    Rng &rng = cold.rng();
    while (mix.size() < kPassRequests) {
        Request r = hot[rng.below(hot.size())];
        r.cold = false;
        mix.push_back(r);
    }
    shuffle(mix, rng);
    return mix;
}

void
add_result_digest(Digest &digest, const Request &req, const Reply &r)
{
    digest.add(req.line(false));
    digest.add(r.cycles);
    digest.add(r.ops);
    digest.add(r.exitValue);
}

/**
 * The daemon's socket in @p dir, relative to the working directory: an
 * AF_UNIX path must fit sockaddr_un::sun_path (108 bytes), which the
 * absolute path of a deep checkout or build directory can exceed.
 */
std::string
socket_path(const std::string &dir)
{
    const std::string path =
        std::filesystem::proximate(dir + "/s.sock").string();
    if (path.size() >= sizeof(sockaddr_un::sun_path))
        throw std::runtime_error("socket path '" + path +
                                 "' does not fit sun_path; use a "
                                 "shorter build directory");
    return path;
}

/** Start a fresh daemon on @p socket with a fresh disk tier under
 * @p dir. */
std::unique_ptr<Server>
start_server(const std::string &dir, const std::string &socket)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir + "/cache");
    ArtifactCache &cache = ArtifactCache::instance();
    cache.clearMemory();
    cache.setDiskDir(dir + "/cache");
    ServerConfig config;
    config.socketPath = socket;
    config.workers = kWorkers;
    config.cacheMaxBytes = kDiskBudget;
    config.traceDir = dir;
    auto server = std::make_unique<Server>(config);
    std::string err;
    if (!server->start(&err))
        throw std::runtime_error("cannot start the daemon: " + err);
    return server;
}

double
us_quantile(const std::vector<double> &us, double q, double scale)
{
    return quantile(us, q) * scale;
}

} // namespace

void
run_serve(const RunOptions &options, Report &report)
{
    report.facts["pool_width"] = std::to_string(kWorkers) + " workers";
    report.facts["clients"] = std::to_string(kClients);
    const std::string dir = options.scratchDir + "/serve";
    const std::string socket = socket_path(dir);
    SpanRecorder recorder; // its clock stamps every request
    ReferenceClock clock(pool_width());

    // Set-up, repeated on a fresh daemon and cold caches; the last one
    // stays up for the timed part.
    const std::vector<Request> hot = hot_pool();
    std::vector<Reply> hot_replies;
    std::unique_ptr<Server> server;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server)
            server->stop();
        const HostTime t = clock.time([&] {
            server = start_server(dir, socket);
            hot_replies = drive(socket, hot, false, recorder);
        });
        setups.push_back(t.wall());
        for (const Reply &r : hot_replies) {
            ++report.attempted;
            if (!r.ok || r.source != "cold")
                ++report.failed;
        }
    }
    report.set("setup_s", median(setups), "s", setups.size());
    for (size_t i = 0; i < hot.size(); ++i)
        add_result_digest(report.digest, hot[i], hot_replies[i]);

    ColdSource cold(options.seed);
    std::vector<double> untraced_wall, untraced_cpu, traced_wall;
    std::vector<double> raw_wall, speeds;
    std::vector<double> all_us, warm_us, cold_us;
    std::vector<std::pair<Request, Reply>> traced_replies;
    ServerCounters before{}, traced_delta{};
    CacheGrowth cache;
    double timed_s = 0.0;
    size_t timed_requests = 0;
    const double rss = run_passes(
        options.seconds, kMaxPasses, options.trace,
        [&](unsigned pass, bool traced) {
        const std::vector<Request> mix = pass_mix(hot, cold);
        if (traced) {
            before = server->counters();
            cache.begin();
        }
        // The daemon is idle before and after a pass, when the host's
        // speed is measured.
        std::vector<Reply> replies;
        const HostTime t = clock.time([&] {
            replies = drive(socket, mix, traced, recorder);
        });
        const double wall = t.wall();
        if (!traced) {
            untraced_cpu.push_back(t.cpu());
            raw_wall.push_back(t.rawWall);
            speeds.push_back(t.speed);
        }
        timed_s += wall;
        timed_requests += mix.size();
        (traced ? traced_wall : untraced_wall).push_back(wall);
        if (traced) {
            const ServerCounters after = server->counters();
            traced_delta.runs += after.runs - before.runs;
            traced_delta.responseHits +=
                after.responseHits - before.responseHits;
            traced_delta.followerHits +=
                after.followerHits - before.followerHits;
            traced_delta.errors += after.errors - before.errors;
            cache.end();
        }
        for (size_t i = 0; i < mix.size(); ++i) {
            const Request &req = mix[i];
            const Reply &r = replies[i];
            ++report.attempted;
            bool good = r.ok;
            if (good && !req.cold) {
                const Reply &ref = hot_replies[req.hotIndex];
                good = r.cycles == ref.cycles && r.ops == ref.ops &&
                       r.exitValue == ref.exitValue;
            }
            if (good && req.cold && r.source != "cold")
                good = false; // a never-seen request cannot be a hit
            if (!good) {
                ++report.failed;
                continue;
            }
            if (pass == 0 && req.cold)
                add_result_digest(report.digest, req, r);
            if (traced)
                continue;
            const double us = r.latencyUs * t.speed;
            all_us.push_back(us);
            (r.source == "cold" ? cold_us : warm_us).push_back(us);
        }
        if (traced)
            for (size_t i = 0; i < mix.size(); ++i)
                traced_replies.push_back({mix[i], std::move(replies[i])});
    });

    // The daemon's own reply-phase percentiles (the reply span ends after
    // the response is written, so no response can carry it).
    JsonValue stats;
    JsonValue::parse(server->handleLine("{\"op\":\"stats\"}"), stats);
    const JsonValue *result = stats.find("result");
    const double reply_p50 =
        result ? static_cast<double>(
                     result->u64At("server.phase.reply.p50"))
               : 0.0;
    const double reply_p99 =
        result ? static_cast<double>(
                     result->u64At("server.phase.reply.p99"))
               : 0.0;
    server->stop();
    server.reset();
    ArtifactCache::instance().setDiskDir(std::string());
    ArtifactCache::instance().setDiskBudget(u64{0});

    // Hot-pool speedups: the served figures points.
    auto hot_speedup = [&](const std::string &strategy, u64 cores) {
        std::vector<double> v;
        for (size_t i = 0; i < hot.size(); ++i)
            if (hot[i].options.strategy == strategy &&
                hot[i].options.cores == cores)
                v.push_back(hot_replies[i].speedup);
        return v.empty() ? 0.0 : sum(v) / v.size();
    };
    const double hyb4 = hot_speedup("hybrid", 4);
    const double hyb2 = hot_speedup("hybrid", 2);
    const double llp4 = hot_speedup("llp", 4);
    const size_t suite = benchmark_names().size();
    report.set("hybrid_speedup", hyb4, "x", suite);
    report.set("hybrid_speedup_4c", hyb4, "x", suite);
    report.set("hybrid_speedup_2c", hyb2, "x", suite);
    report.set("llp_speedup_4c", llp4, "x", suite);

    report.set("peak_rss_mb", rss, "MB");
    const double rps = Report::ratio(static_cast<double>(timed_requests),
                                     timed_s);
    if (!untraced_wall.empty()) {
        report.set("wall_s", median(untraced_wall), "s",
                   untraced_wall.size());
        report.facts["wall_s_pass_spread"] = spread_of(untraced_wall);
        report.facts["raw_wall_s"] = std::to_string(median(raw_wall));
        report.facts["host_speed"] = std::to_string(median(speeds));
        report.set("cpu_s", median(untraced_cpu), "s", untraced_cpu.size());
        report.set("latency_p50_ms", us_quantile(all_us, 0.5, 1e-3), "ms",
                   all_us.size());
        report.set("latency_p99_ms", us_quantile(all_us, 0.99, 1e-3), "ms",
                   all_us.size());
        report.set("warm_p50_us", us_quantile(warm_us, 0.5, 1.0), "us",
                   warm_us.size());
        report.set("warm_p99_us", us_quantile(warm_us, 0.99, 1.0), "us",
                   warm_us.size());
        report.set("cold_p50_ms", us_quantile(cold_us, 0.5, 1e-3), "ms",
                   cold_us.size());
        report.set("cold_p90_ms", us_quantile(cold_us, 0.9, 1e-3), "ms",
                   cold_us.size());
        report.set("requests_per_s", rps, "1/s", timed_requests);
    }

    if (!traced_wall.empty()) {
        const double k = static_cast<double>(traced_wall.size());
        // Client span per request, the daemon's phases as its children.
        std::map<std::string, std::vector<double>> phase_us;
        std::map<std::string, std::vector<double>> first_sim_s;
        for (size_t i = 0; i < traced_replies.size(); ++i) {
            const Request &req = traced_replies[i].first;
            const Reply &r = traced_replies[i].second;
            if (!r.ok)
                continue;
            const i64 start = r.startNs;
            const i64 parent = recorder.add(
                "serve.request", i, -1, start,
                start + static_cast<i64>(r.latencyUs * 1e3));
            bool first_sim = true;
            if (const JsonValue *spans = r.timing.find("spans"))
                for (const JsonValue &s : spans->items()) {
                    const std::string phase = s.str("phase");
                    const i64 b = static_cast<i64>(s.u64At("startUs")) * 1000;
                    const i64 e = static_cast<i64>(s.u64At("endUs")) * 1000;
                    recorder.add("server.phase." + phase, i, parent,
                                 start + b, start + e);
                    if (phase == "simulate" && first_sim) {
                        first_sim_s[req.options.strategy].push_back(
                            static_cast<double>(e - b) * 1e-9);
                        first_sim = false;
                    }
                }
            if (const JsonValue *phases = r.timing.find("phases"))
                for (const auto &[name, v] : phases->fields())
                    if (v.asU64() != 0)
                        phase_us[name].push_back(
                            static_cast<double>(v.asU64()));
        }
        for (const char *p : {"parse", "classify", "queueWait", "cacheProbe",
                              "goldenRun", "compile", "simulate",
                              "serialize"}) {
            const std::vector<double> &v = phase_us[p];
            const std::string base = std::string("server.phase.") + p;
            report.set(base + ".p50_us", quantile(v, 0.5), "us", v.size());
            report.set(base + ".p99_us", quantile(v, 0.99), "us", v.size());
        }
        report.set("server.phase.reply.p50_us", reply_p50, "us");
        report.set("server.phase.reply.p99_us", reply_p99, "us");
        report.set("server.runs", traced_delta.runs / k, "count");
        report.set("server.response_hits", traced_delta.responseHits / k,
                   "count");
        report.set("server.follower_hits", traced_delta.followerHits / k,
                   "count");
        report.set("server.errors", traced_delta.errors / k, "count");

        // The layers behind the daemon, from its phase spans (self
        // times of leaf spans are their durations).
        const SpanTimes self = recorder.selfSecondsByName();
        const std::vector<double> golden =
            spans_named(self, "server.phase.goldenRun");
        report.set("interp.golden_s", sum(golden) / k, "s", golden.size());
        report_compiles(report, spans_named(self, "server.phase.compile"),
                        k);
        report_runs(report, spans_named(self, "server.phase.simulate"), k);
        for (const auto &[strategy, v] : first_sim_s)
            report.set("sim.run_s." + strategy, sum(v) / k, "s", v.size());
        cache.report(report, k);
        if (!untraced_wall.empty())
            report.set("tracing_overhead_pct",
                       (median(traced_wall) / median(untraced_wall) - 1.0) *
                           100.0,
                       "%", traced_wall.size());
        const std::string path = options.scratchDir + "/../serve-seed" +
                                 std::to_string(options.seed) +
                                 ".spans.json";
        if (recorder.writeJson(path))
            report.facts["spans_file"] = path;
    }

    report.facts["passes"] = std::to_string(untraced_wall.size()) + "+" +
                             std::to_string(traced_wall.size()) + " traced";
    char line[256];
    std::vector<std::string> &s = report.summary;
    s.push_back("serve: " + std::to_string(kClients) +
                " closed-loop clients, " + std::to_string(kWorkers) +
                " executor workers, 1 MiB disk tier; hot pool " +
                std::to_string(hot.size()) + " keys; " +
                std::to_string(kPassRequests) + " requests per pass (" +
                std::to_string(kPassNewPrograms) + " new programs, " +
                std::to_string(kPassNewOptions) + " new option sets)");
    std::snprintf(line, sizeof(line),
                  "  warm hits: p50 %.1f us, p99 %.1f us (n=%zu)",
                  us_quantile(warm_us, 0.5, 1.0),
                  us_quantile(warm_us, 0.99, 1.0), warm_us.size());
    s.push_back(line);
    std::snprintf(line, sizeof(line),
                  "  never-seen: p50 %.1f ms, p90 %.1f ms (n=%zu)",
                  us_quantile(cold_us, 0.5, 1e-3),
                  us_quantile(cold_us, 0.9, 1e-3), cold_us.size());
    s.push_back(line);
    std::snprintf(line, sizeof(line),
                  "  %.1f requests/s; served mean speedup: hybrid@2 %.2f, "
                  "hybrid@4 %.2f, llp@4 %.2f",
                  rps, hyb2, hyb4, llp4);
    s.push_back(line);
}

} // namespace perfbench
