/**
 * @file
 * rbdbench entry point: parses the run options, prints the build and
 * host stamp, runs one workload and prints its result line.
 *
 *   rbdbench --workload dyn_batch|mpc_serve|accel_sim --seed N
 *            --seconds S --trace 0|1 [--spans PATH] [--sabotage CHECK]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. With --trace 1 the run
 * records spans and counters and writes them to --spans; the
 * per-layer metrics are derived from that file (see run.py). A traced
 * run then also runs the two other workloads, traced, for
 * kCompanionS seconds each, so that its span file covers every layer;
 * their output checks count, their operations and metrics do not.
 */

#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#ifndef RBDBENCH_COMPILER
#define RBDBENCH_COMPILER "unknown"
#endif
#ifndef RBDBENCH_BUILD_TYPE
#define RBDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RBDBENCH_FLAGS
#define RBDBENCH_FLAGS ""
#endif

namespace rbdbench {

namespace {

const std::int64_t g_start_ns = nowNs();

/** A workload by its command-line name. */
struct Workload
{
    const char *name;
    void (*run)(const Options &, Report &, SpanLog &);
};

constexpr Workload kWorkloads[] = {
    {"dyn_batch", runDynBatch},
    {"mpc_serve", runMpcServe},
    {"accel_sim", runAccelSim},
};

/** Window of each companion workload of a traced run, seconds. */
constexpr double kCompanionS = 4.0;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * Host CPU time counters from /proc/stat: {steal, total} jiffies over
 * all CPUs. Steal is time the hypervisor ran something else while this
 * VM wanted a CPU; a run with a high share is a run on a noisy host.
 */
std::pair<double, double>
cpuSteal()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {}, total = 0.0;
    in >> cpu;
    for (double &x : v) {
        if (!(in >> x))
            return {0.0, 0.0};
        total += x;
    }
    return {v[7], total};
}

/** JSON-safe rendering of a metric value with all its digits. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "rbdbench: missing value for " << a << "\n";
            return false;
        }
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = static_cast<std::uint32_t>(std::stoul(v));
        else if (a == "--seconds")
            opt.seconds = std::stod(v);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--spans")
            opt.span_path = v;
        else if (a == "--sabotage")
            opt.sabotage = v;
        else {
            std::cerr << "rbdbench: unknown option " << a << "\n";
            return false;
        }
    }
    return !opt.workload.empty() && opt.seconds > 0.0;
}

} // namespace

double
secondsSinceStart()
{
    return (nowNs() - g_start_ns) * 1e-9;
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

void
Report::check(const std::string &name, bool ok)
{
    if (!ok) {
        correct = false;
        failures.push_back(name);
    }
}

int
SpanLog::name(const std::string &n)
{
    const auto it = std::find(names_.begin(), names_.end(), n);
    if (it != names_.end())
        return static_cast<int>(it - names_.begin());
    names_.push_back(n);
    return static_cast<int>(names_.size()) - 1;
}

void
SpanLog::absorb(SpanLog &other)
{
    std::vector<int> remap;
    for (const std::string &n : other.names_)
        remap.push_back(name(n));
    for (Span s : other.spans_) {
        s.name = remap[s.name];
        spans_.push_back(s);
    }
    counters_.insert(counters_.end(), other.counters_.begin(),
                     other.counters_.end());
    other.spans_.clear();
    other.counters_.clear();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f, "S\t%s\t%lld\t%lld\t%lld\t%lld\t%.17g\n",
                     names_[s.name].c_str(),
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.t0_ns),
                     static_cast<long long>(s.t1_ns), s.value);
    for (const auto &c : counters_)
        std::fprintf(f, "C\t%s\t%.17g\n", c.first.c_str(), c.second);
    return std::fclose(f) == 0;
}

double
median(std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
        const double lo = *std::max_element(v.begin(), v.begin() + mid);
        m = 0.5 * (m + lo);
    }
    return m;
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

} // namespace rbdbench

int
main(int argc, char **argv)
{
    using namespace rbdbench;
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::cerr << "usage: rbdbench --workload dyn_batch|mpc_serve|"
                     "accel_sim --seed N --seconds S --trace 0|1 "
                     "[--spans PATH] [--sabotage CHECK]\n";
        return 2;
    }
    opt.threads =
        std::max(1u, std::thread::hardware_concurrency());

    std::printf("build: compiler=%s build_type=%s flags=[%s]\n",
                RBDBENCH_COMPILER, RBDBENCH_BUILD_TYPE, RBDBENCH_FLAGS);
    std::printf("host: cpu=\"%s\" nproc=%d\n", cpuModel().c_str(),
                opt.threads);
    std::printf("run: workload=%s seed=%u seconds=%g trace=%d\n",
                opt.workload.c_str(), opt.seed, opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);

    const Workload *main_workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            main_workload = &w;
    if (!main_workload) {
        std::cerr << "rbdbench: unknown workload " << opt.workload << "\n";
        return 2;
    }
    const std::pair<double, double> steal0 = cpuSteal();
    Report report;
    SpanLog log;
    main_workload->run(opt, report, log);
    report.add("peak_rss_mb", peakRssMb(), "MB");
    for (const Workload &w : kWorkloads) {
        if (!opt.trace || &w == main_workload)
            continue;
        Options companion = opt;
        companion.workload = w.name;
        companion.seconds = kCompanionS;
        std::printf("companion: workload=%s seconds=%g\n", w.name,
                    kCompanionS);
        Report scratch;
        w.run(companion, scratch, log);
        for (const std::string &f : scratch.failures)
            report.check(std::string(w.name) + "." + f, false);
    }
    const std::pair<double, double> steal1 = cpuSteal();
    const double total = steal1.second - steal0.second;
    std::printf("host: steal_pct=%.2f (CPU time the hypervisor took "
                "during the run)\n",
                total > 0.0 ? 100.0 * (steal1.first - steal0.first) / total
                            : 0.0);

    if (opt.trace && !opt.span_path.empty() && !log.write(opt.span_path)) {
        std::cerr << "rbdbench: cannot write " << opt.span_path << "\n";
        return 1;
    }
    for (const std::string &f : report.failures)
        std::cerr << "rbdbench: output check FAILED: " << f << "\n";

    for (const Metric &m : report.metrics)
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        if (i)
            json += ", ";
        json += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
