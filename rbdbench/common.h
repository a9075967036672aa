/**
 * @file
 * Shared plumbing of the rbdbench workloads: command-line options,
 * the result record every run prints, the in-memory span recorder of
 * traced runs, and small statistics helpers.
 */

#ifndef RBDBENCH_COMMON_H
#define RBDBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace rbdbench {

/** Parsed command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint32_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Output check to sabotage (see check.h); empty = none. */
    std::string sabotage;
    /** Where a traced run writes its span file. */
    std::string span_path;
    int threads = 1; ///< std::thread::hardware_concurrency(), >= 1
};

/** Steady-clock nanoseconds since an arbitrary epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time consumed by the calling thread, nanoseconds. */
std::int64_t threadCpuNs();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** One metric of the final result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Names of output checks that failed (printed to stderr). */
    std::vector<std::string> failures;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Record one output check; a false @p ok fails the run. */
    void check(const std::string &name, bool ok);
};

/**
 * Spans and counters of a traced run, kept in memory and written out
 * once at the end. Recording is thread-safe only through per-thread
 * instances: every thread that records owns one SpanLog, and the
 * logs are merged after the threads are joined.
 */
class SpanLog
{
  public:
    /**
     * Intern a span name (layer.boundary[.key...]) before the timed
     * window; spans then refer to it by the returned id, so recording
     * copies no string.
     */
    int name(const std::string &n);

    /** Record a finished span; returns its id. */
    std::int64_t span(int name, std::int64_t t0, std::int64_t t1,
                      double value = 0.0, std::int64_t parent = -1)
    {
        const std::int64_t id = next_id_++;
        spans_.push_back({name, id, parent, t0, t1, value});
        return id;
    }

    /** Record a count taken at a layer boundary. */
    void counter(std::string name, double value)
    {
        counters_.emplace_back(std::move(name), value);
    }

    /** Move @p other's records here (after its producer stopped). */
    void absorb(SpanLog &other);

    /**
     * Write every record as one tab-separated line:
     *   S <name> <id> <parent> <t0_ns> <t1_ns> <value>
     *   C <name> <value>
     * Returns false when the file cannot be written.
     */
    bool write(const std::string &path) const;

    /** Give this log's span ids a disjoint range (per-thread logs). */
    void setIdBase(std::int64_t base) { next_id_ = base; }

  private:
    struct Span
    {
        int name;
        std::int64_t id;
        std::int64_t parent; ///< -1 = none
        std::int64_t t0_ns, t1_ns;
        double value; ///< a per-span attribute (points, CPU ns, ...)
    };
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<std::pair<std::string, double>> counters_;
    std::int64_t next_id_ = 0;
};

/** Median of @p v (reordered in place); 0 for an empty vector. */
double median(std::vector<double> &v);

/** Nearest-rank percentile @p p in [0, 100] of @p v (reordered). */
double percentile(std::vector<double> &v, double p);

/** The end of a measurement window that starts at construction. */
struct Deadline
{
    std::int64_t end_ns;
    explicit Deadline(double seconds)
        : end_ns(nowNs() + static_cast<std::int64_t>(seconds * 1e9))
    {}
    bool passed() const { return nowNs() >= end_ns; }
};

/** Length of the windows Windowed buckets samples into, seconds. */
inline constexpr double kWindowS = 2.0;

/**
 * Samples bucketed by timestamp into equal windows of the run. Each
 * timing metric is the median over windows of the window's statistic,
 * so a host stall that hits one window moves the result by at most
 * one rank instead of dominating a whole-run tail.
 */
class Windowed
{
  public:
    Windowed(std::int64_t start_ns, double seconds)
        : start_ns_(start_ns),
          windows_(std::max(1, static_cast<int>(seconds / kWindowS))),
          window_ns_(seconds * 1e9 / windows_), samples_(windows_)
    {}

    /** Samples past the last window (work in flight when the run
     *  ends) are left out. */
    void add(std::int64_t at_ns, double v)
    {
        const int w = static_cast<int>((at_ns - start_ns_) / window_ns_);
        if (w < windows_)
            samples_[std::max(w, 0)].push_back(v);
    }

    /** Median over windows of the window's @p p-th percentile. */
    double medianPercentile(double p) const
    {
        std::vector<double> per;
        for (std::vector<double> w : samples_)
            if (!w.empty())
                per.push_back(percentile(w, p));
        return median(per);
    }

    /** Print "<label>: p50=.. p90=.. p95=.. p99=.." (window medians). */
    void printPercentiles(const char *label) const
    {
        std::printf("%s: p50=%.6g p90=%.6g p95=%.6g p99=%.6g\n", label,
                    medianPercentile(50), medianPercentile(90),
                    medianPercentile(95), medianPercentile(99));
    }

    /** Median over windows of samples per second. */
    double medianRate() const
    {
        std::vector<double> per;
        for (const std::vector<double> &w : samples_)
            per.push_back(w.size() * 1e9 / window_ns_);
        return median(per);
    }

  private:
    std::int64_t start_ns_;
    int windows_;
    double window_ns_;
    std::vector<std::vector<double>> samples_;
};

// Workload entry points: fill @p report; the setup clock started at
// process start, and each workload stamps setup_s when its set-up is
// done (see main.cc).
void runDynBatch(const Options &opt, Report &report, SpanLog &log);
void runMpcServe(const Options &opt, Report &report, SpanLog &log);
void runAccelSim(const Options &opt, Report &report, SpanLog &log);

/** Seconds since process start (the cold set-up clock). */
double secondsSinceStart();

} // namespace rbdbench

#endif // RBDBENCH_COMMON_H
