/**
 * @file
 * Shared pieces of the perfbench harness: run options, the in-memory span
 * recorder behind traced runs, sample statistics, and the per-run report.
 *
 * Spans are recorded only in the benchmark's own code, around calls into
 * each layer's public entry points (and, for the serve workload, from the
 * phase timeline the daemon returns). A layer's number is the self time
 * of its spans: each span's duration minus the part of it that its child
 * spans cover.
 */

#ifndef VOLTRON_PERFBENCH_PERFBENCH_HH_
#define VOLTRON_PERFBENCH_PERFBENCH_HH_

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/types.hh"
#include "trace/metrics.hh"

namespace perfbench {

using voltron::i64;
using voltron::u32;
using voltron::u64;
using voltron::u8;
using Clock = std::chrono::steady_clock;

/** What one invocation runs. */
struct RunOptions
{
    std::string workload;
    u64 seed = 0xb0157a; //!< the suite's default seed (EXPERIMENTS.md)
    double seconds = 0.0; //!< 0: BENCHMARK.json's run_seconds
    bool trace = false;
    /** Per-run directory for the serve socket and disk tier; removed on
     * exit. */
    std::string scratchDir;
};

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Quantile @p q in [0, 1] by linear interpolation between order
 * statistics (0 when @p values is empty). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double> &values);

/** Interquartile range over median, as text for the run record. */
std::string spread_of(const std::vector<double> &values);

/** CPU time this process has used so far, over all its threads, in
 * seconds. */
double process_cpu_s();

/**
 * The host's speed now, as a factor for host times. On a shared host the
 * speed of every thread drifts, by up to 2x within minutes on the 4-vCPU
 * host this benchmark was written on (with no steal time), and every
 * host time moves with it. A fixed kernel is timed on @p width threads at
 * once: switch dispatch over a small bytecode, inserts into a fresh hash
 * map, and dependent loads through a 4 MB random cycle, the kinds of work
 * the simulator's host time is made of. It holds no Voltron code, so no
 * change to the repository moves it. Returns the kernel's nominal time
 * over its median measured time, to the power 1.5, since the workloads'
 * host times move about that much more than the kernel's: a host time
 * multiplied by it reads what the work takes at the kernel's nominal
 * speed.
 */
double host_speed(unsigned width);

/** Host time of one piece of work, raw and as a host_speed() factor. */
struct HostTime
{
    double rawWall = 0.0; //!< seconds
    double rawCpu = 0.0;  //!< process CPU seconds, over every thread
    double speed = 1.0;   //!< mean host_speed() just before and after

    double wall() const { return rawWall * speed; }
    double cpu() const { return rawCpu * speed; }
};

/**
 * Times pieces of work at the reference speed. host_speed() is read when
 * the clock is made and again as each piece ends, while nothing else of
 * the benchmark runs; each reading closes one piece and opens the next,
 * and a piece is scaled by the mean of the readings on either side.
 */
class ReferenceClock
{
  public:
    /** Warms the host up, then takes the first reading. */
    explicit ReferenceClock(unsigned width);

    template <typename Work>
    HostTime
    time(Work &&work)
    {
        HostTime t;
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = process_cpu_s();
        work();
        t.rawWall = seconds_since(t0);
        t.rawCpu = process_cpu_s() - cpu0;
        const double before = last_;
        last_ = host_speed(width_);
        t.speed = 0.5 * (before + last_);
        return t;
    }

  private:
    unsigned width_;
    double last_;
};

/** Peak resident set of this process so far, in MB. */
double peak_rss_mb();

/** CPUs this process may run on (what `nproc` reports). */
unsigned host_cores();

/** Thread-pool width of the suite-point workloads: min(4, nproc). */
inline unsigned
pool_width()
{
    return std::min(4u, host_cores());
}

/** Run @p fn(i) for every i in [0, n) on @p width threads; the first
 * exception any call throws is rethrown once all have finished. */
void pool_for(size_t n, unsigned width,
              const std::function<void(size_t)> &fn);

/** 64-bit FNV-1a, fed field by field. */
struct Digest
{
    u64 value = 0xcbf29ce484222325ULL;

    void add(u64 word);
    void add(const std::string &text);
};

/** One recorded span of host time. */
struct Span
{
    std::string name; //!< layer-qualified, e.g. "compiler.compile"
    u64 group = 0;    //!< shared by every span of one point or request
    i64 parent = -1;  //!< index of the enclosing span, -1 for a root
    i64 startNs = 0;  //!< since the recorder's epoch
    i64 endNs = -1;   //!< -1 while open
};

/** Thread-safe in-memory span store; written out when the run ends. */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(Clock::now()) {}

    /** Open a span now; returns its index for close() and children. */
    i64 open(const std::string &name, u64 group, i64 parent = -1);
    void close(i64 index);

    /** Record a finished span from explicit offsets (nanoseconds since
     * the recorder's epoch). */
    i64 add(const std::string &name, u64 group, i64 parent, i64 startNs,
            i64 endNs);

    i64 nowNs() const;

    /** Self time in seconds of every closed span, keyed by name, in
     * recording order. */
    std::map<std::string, std::vector<double>> selfSecondsByName() const;

    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Scoped span that is a no-op when @p recorder is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name, u64 group,
               i64 parent = -1)
        : recorder_(recorder),
          index_(recorder ? recorder->open(name, group, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    i64 index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    i64 index_;
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    u64 samples = 0; //!< how many measurements the value summarizes
};

/** Everything one run reports. */
struct Report
{
    std::map<std::string, Metric> metrics;
    u64 attempted = 0;
    u64 failed = 0;
    Digest digest; //!< over every simulated point's statistics
    std::map<std::string, std::string> facts; //!< host and run facts
    std::vector<std::string> summary;         //!< human-readable lines

    void
    set(const std::string &name, double value, const std::string &unit,
        u64 samples = 1)
    {
        metrics[name] = Metric{value, unit, samples};
    }

    /** A ratio, 0 when the base is 0. */
    static double
    ratio(double num, double den)
    {
        return den != 0.0 ? num / den : 0.0;
    }
};

/** Self times by span name, as SpanRecorder::selfSecondsByName gives
 * them. */
using SpanTimes = std::map<std::string, std::vector<double>>;

/** The self times of the spans named @p name (none when absent). */
std::vector<double> spans_named(const SpanTimes &self,
                                const std::string &name);

/** compiler.{compiles,compile_s,compile_ms_p50,compile_ms_p99} from the
 * compile spans' self times over @p passes traced passes. */
void report_compiles(Report &report, const std::vector<double> &seconds,
                     double passes);

/** sim.{runs,run_s,run_ms_p50,run_ms_max} from the simulate spans' self
 * times over @p passes traced passes. */
void report_runs(Report &report, const std::vector<double> &seconds,
                 double passes);

/** How far the artifact cache's cache.* counters grew across the traced
 * passes; reported as core.cache.* per pass. */
class CacheGrowth
{
  public:
    void begin();
    void end();
    void report(Report &report, double passes) const;

  private:
    voltron::MetricsRegistry before_;
    std::map<std::string, double> growth_;
};

/**
 * Run timed passes until the next one would end past @p seconds (at
 * least 3, at most @p max_passes). @p pass gets the pass index and
 * whether the pass is traced: with @p alternate_trace, passes run
 * untraced / traced in U T T U order, which cancels a steady drift in
 * host speed, so a traced run can report the overhead of tracing; it
 * runs at least 6 passes, 3 of each.
 *
 * Returns the peak RSS (MB) over set-up and the first pass: what one
 * regeneration or one round of requests needs, independent of how many
 * repetitions the run's time allowed.
 */
template <typename Pass>
double
run_passes(double seconds, unsigned max_passes, bool alternate_trace,
           Pass pass)
{
    const unsigned min_passes = alternate_trace ? 6 : 3;
    const Clock::time_point t0 = Clock::now();
    double longest = 0.0;
    double rss = 0.0;
    for (unsigned i = 0; i < max_passes; ++i) {
        const double elapsed = seconds_since(t0);
        if (i >= min_passes && elapsed + longest > seconds)
            break;
        const Clock::time_point p0 = Clock::now();
        pass(i, alternate_trace && (i % 4 == 1 || i % 4 == 2));
        longest = std::max(longest, seconds_since(p0));
        if (i == 0)
            rss = peak_rss_mb();
    }
    return rss;
}

/** Workload entry points; each fills @p report. */
void run_figures(const RunOptions &options, Report &report);
void run_mesh16(const RunOptions &options, Report &report);
void run_serve(const RunOptions &options, Report &report);

} // namespace perfbench

#endif // VOLTRON_PERFBENCH_PERFBENCH_HH_
