#include "perfbench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "core/artifact_cache.hh"
#include "server/json.hh"

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

std::string
spread_of(const std::vector<double> &values)
{
    const double mid = median(values);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  mid != 0.0 ? (quantile(values, 0.75) -
                                quantile(values, 0.25)) / mid
                             : 0.0);
    return buf;
}

unsigned
host_cores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

namespace {

constexpr int kDispatchSteps = 150'000;
constexpr int kHashOps = 120'000;
constexpr int kWalkSteps = 60'000;
constexpr int kReferenceRuns = 6; //!< per thread
// About the kernel's median time on 4 threads of the 4-vCPU Xeon host the
// benchmark was written on, so scaled times read close to its wall times.
constexpr double kReferenceNominalS = 6.5e-3;
// How much more the workloads' host times move than the kernel's, as a
// power: fitted over 50 runs of 30 s on that host (log raw pass time
// against log kernel factor), it came to 1.3-1.9 by workload.
constexpr double kHostSensitivity = 1.5;
constexpr double kWarmUpS = 1.5;

/** A fixed random cycle through 1 Mi slots (4 MB, past the L2). */
const std::vector<u32> &
reference_cycle()
{
    static const std::vector<u32> next = [] {
        constexpr u32 n = 1u << 20;
        std::vector<u32> order(n);
        std::iota(order.begin(), order.end(), 0u);
        u64 x = 0x9e3779b97f4a7c15ULL;
        for (u32 i = n - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        std::vector<u32> cycle(n);
        for (u32 i = 0; i < n; ++i)
            cycle[order[i]] = order[(i + 1) % n];
        return cycle;
    }();
    return next;
}

/** Switch dispatch over a fixed 64-op bytecode with data-dependent
 * branches and jumps, as an interpreter's or simulator's step loop. */
u64
dispatch_loop()
{
    static const std::array<u8, 64> code = [] {
        std::array<u8, 64> c{};
        u64 x = 88172645463325252ULL;
        for (u8 &op : c) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            op = static_cast<u8>(x % 6);
        }
        return c;
    }();
    u64 r[4] = {1, 2, 3, 4};
    unsigned pc = 0;
    for (int step = 0; step < kDispatchSteps; ++step) {
        switch (code[pc]) {
          case 0: r[0] += r[1]; break;
          case 1: r[1] ^= r[2] << 1; break;
          case 2: r[2] = r[2] * 31 + r[3]; break;
          case 3: r[3] += (r[0] & 1) ? 7 : -3; break;
          case 4: r[0] = (r[0] >> 3) | (r[3] << 5); break;
          default: r[1] += r[0] & 0xff; break;
        }
        pc = (pc + 1 + (r[step & 3] & 3)) & 63;
    }
    return r[0] + r[1] + r[2] + r[3];
}

/** Inserts into a fresh hash map: hashing and small allocations. */
u64
hash_loop()
{
    std::unordered_map<u64, u64> map;
    u64 x = 1;
    for (int op = 0; op < kHashOps; ++op) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        map[x >> 50] += x;
    }
    return map.size();
}

/** Dependent loads along the 4 MB random cycle. */
u64
walk_loop()
{
    const std::vector<u32> &next = reference_cycle();
    u32 i = 0;
    u64 h = 1;
    for (int step = 0; step < kWalkSteps; ++step) {
        i = next[i];
        h = (h ^ i) * 0x9e3779b97f4a7c15ULL;
    }
    return h;
}

} // namespace

double
host_speed(unsigned width)
{
    std::vector<double> times(size_t{width} * kReferenceRuns);
    pool_for(times.size(), width, [&](size_t k) {
        const Clock::time_point t0 = Clock::now();
        volatile u64 sink = dispatch_loop() + hash_loop() + walk_loop();
        (void)sink;
        times[k] = seconds_since(t0);
    });
    return std::pow(kReferenceNominalS / median(std::move(times)),
                    kHostSensitivity);
}

ReferenceClock::ReferenceClock(unsigned width) : width_(width)
{
    // After a few seconds with its CPUs idle, the 4-vCPU host this was
    // written on ran the kernel on 4 threads at 0.2-0.4x speed for the
    // first 0.65-0.9 s of load (one thread ran at full speed), whether
    // idle for 5 s or 80 s. Keep every thread busy past that before
    // anything is timed.
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < kWarmUpS)
        host_speed(width);
    last_ = host_speed(width);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
pool_for(size_t n, unsigned width, const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < width; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<double>
spans_named(const SpanTimes &self, const std::string &name)
{
    auto it = self.find(name);
    return it == self.end() ? std::vector<double>{} : it->second;
}

namespace {

std::vector<double>
in_ms(std::vector<double> seconds)
{
    for (double &x : seconds)
        x *= 1e3;
    return seconds;
}

} // namespace

void
report_compiles(Report &report, const std::vector<double> &seconds,
                double passes)
{
    const u64 n = seconds.size();
    report.set("compiler.compiles", n / passes, "count");
    report.set("compiler.compile_s", sum(seconds) / passes, "s", n);
    report.set("compiler.compile_ms_p50", quantile(in_ms(seconds), 0.5),
               "ms", n);
    report.set("compiler.compile_ms_p99", quantile(in_ms(seconds), 0.99),
               "ms", n);
}

void
report_runs(Report &report, const std::vector<double> &seconds,
            double passes)
{
    const u64 n = seconds.size();
    report.set("sim.runs", n / passes, "count");
    report.set("sim.run_s", sum(seconds) / passes, "s", n);
    report.set("sim.run_ms_p50", quantile(in_ms(seconds), 0.5), "ms", n);
    report.set("sim.run_ms_max", quantile(in_ms(seconds), 1.0), "ms", n);
}

void
CacheGrowth::begin()
{
    before_ = voltron::MetricsRegistry{};
    voltron::collect_cache_metrics(before_);
}

void
CacheGrowth::end()
{
    voltron::MetricsRegistry after;
    voltron::collect_cache_metrics(after);
    for (const auto &[name, value] : after.counters())
        growth_[name] += static_cast<double>(value - before_.get(name));
}

void
CacheGrowth::report(Report &report, double passes) const
{
    auto per_pass = [&](const char *name) {
        auto it = growth_.find(name);
        return it == growth_.end() ? 0.0 : it->second / passes;
    };
    const double hits = per_pass("cache.hits");
    const double misses = per_pass("cache.misses");
    report.set("core.cache.hits", hits, "count");
    report.set("core.cache.mem_hits", per_pass("cache.memHits"), "count");
    report.set("core.cache.disk_hits", per_pass("cache.diskHits"), "count");
    report.set("core.cache.misses", misses, "count");
    report.set("core.cache.stores", per_pass("cache.stores"), "count");
    report.set("core.cache.evictions", per_pass("cache.evictions"),
               "count");
    report.set("core.cache.hit_ratio", Report::ratio(hits, hits + misses),
               "ratio");
}

void
Digest::add(u64 word)
{
    for (int i = 0; i < 8; ++i) {
        value ^= (word >> (8 * i)) & 0xff;
        value *= 0x100000001b3ULL;
    }
}

void
Digest::add(const std::string &text)
{
    for (unsigned char c : text) {
        value ^= c;
        value *= 0x100000001b3ULL;
    }
    add(text.size());
}

i64
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

i64
SpanRecorder::open(const std::string &name, u64 group, i64 parent)
{
    const i64 start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, group, parent, start, -1});
    return static_cast<i64>(spans_.size()) - 1;
}

void
SpanRecorder::close(i64 index)
{
    const i64 end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].endNs = end;
}

i64
SpanRecorder::add(const std::string &name, u64 group, i64 parent,
                  i64 startNs, i64 endNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, group, parent, startNs, endNs});
    return static_cast<i64>(spans_.size()) - 1;
}

std::map<std::string, std::vector<double>>
SpanRecorder::selfSecondsByName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children run one after another inside their parent (a point's
    // compile and run; the daemon's phases tile its request), so the part
    // they cover is the sum of their durations.
    std::vector<i64> covered(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0 && s.endNs >= 0)
            covered[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs >= 0)
            out[s.name].push_back(
                static_cast<double>(s.endNs - s.startNs - covered[i]) *
                1e-9);
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\""
            << voltron::json_escape(s.name) << "\",\"group\":" << s.group
            << ",\"parent\":" << s.parent << ",\"startNs\":" << s.startNs
            << ",\"endNs\":" << s.endNs << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
