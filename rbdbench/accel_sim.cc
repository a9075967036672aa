/**
 * @file
 * Workload accel_sim: one thread submits the dyn_batch function mix
 * (∆FD, FD and 25%-gated ∆iFD at 16 and 128 points, equal points per
 * size) for iiwa, HyQ and Atlas to the cycle-accurate
 * AcceleratorBackend, pass after pass.
 *
 * pts_per_s reads the modelled clock: the pass's points over its
 * summed simulated makespan (accel_modeled_us). It reads no host
 * clock, and every pass must reproduce it exactly. lat_p50_us and
 * lat_p90_us read the host's: percentiles over the run of the wall
 * time the simulator takes for one robot's pass. The fixed-point outputs of the last pass are checked
 * against the double-precision reference kernels.
 */

#include "check.h"
#include "common.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "algorithms/dynamics.h"
#include "runtime/backends.h"

namespace rbdbench {

namespace {

using dadu::algo::ColumnPlan;
using dadu::algo::FdDerivatives;
using dadu::algo::GatingMode;
using dadu::runtime::AcceleratorBackend;
using dadu::runtime::BatchStats;
using dadu::runtime::SubmitStatus;

/**
 * Fixed-point error bound: the largest output error relative to
 * max(1, largest reference entry). The validated band of the Q29
 * datapath (tests/test_accel.cc) is 2e-2 on ∆ outputs.
 */
constexpr double kFixedPointRelTol = 2e-2;

struct Batch
{
    MixBatch in;
    std::vector<DynamicsResult> res;
    int span = 0; ///< span name id
};

struct Case
{
    const NamedRobot *robot = nullptr;
    std::unique_ptr<dadu::accel::Accelerator> accel;
    std::unique_ptr<AcceleratorBackend> backend;
    ColumnPlan plan;
    std::vector<Batch> batches;
    double analytic_cycles[kMixFns] = {};
    std::uint64_t cycles[kMixFns] = {};
    std::uint64_t fifo_stalls = 0;
    double modeled_us = 0.0; ///< the last pass's simulated makespan
    std::int64_t points = 0; ///< points per pass
};

void
buildCase(Case &c, std::mt19937 &rng, SpanLog &log)
{
    for (MixBatch &m : makeMix(c.robot->model, rng, c.plan)) {
        Batch b;
        b.in = std::move(m);
        const std::size_t n = b.in.req.size();
        b.res.resize(n);
        b.span = log.name(std::string("accel.submit.") + c.robot->name +
                          "." + kMixFnName[b.in.fn] + ".n" +
                          std::to_string(n));
        const dadu::accel::TimingEstimate est = c.accel->analytic(
            kMixFnType[b.in.fn], b.in.fn == kDifd ? &c.plan : nullptr);
        c.analytic_cycles[b.in.fn] +=
            n * est.ii_cycles + est.latency_cycles;
        c.points += static_cast<std::int64_t>(n);
        c.batches.push_back(std::move(b));
    }
}

/**
 * One pass over the task set; returns its summed modeled µs. With
 * @p host_us, each robot's host wall time is appended to it.
 */
double
runPass(std::vector<Case> &cases, Report &report, SpanLog *log,
        std::vector<double> *host_us = nullptr)
{
    double modeled_us = 0.0;
    for (Case &c : cases) {
        const std::int64_t p0 = nowNs();
        c.modeled_us = 0.0;
        c.fifo_stalls = 0;
        for (std::uint64_t &cy : c.cycles)
            cy = 0;
        for (Batch &b : c.batches) {
            BatchStats st;
            const std::int64_t t0 = log ? nowNs() : 0;
            const SubmitStatus s = c.backend->submit(
                kMixFnType[b.in.fn], b.in.req.data(), b.in.req.size(),
                b.res.data(), &st);
            if (log)
                log->span(b.span, t0, nowNs(),
                          static_cast<double>(st.cycles));
            ++report.attempted;
            if (s != SubmitStatus::Ok)
                ++report.failed;
            c.modeled_us += st.total_us;
            c.cycles[b.in.fn] += st.cycles;
            c.fifo_stalls += st.fifo_stalls;
        }
        if (host_us)
            host_us->push_back((nowNs() - p0) * 1e-3);
        modeled_us += c.modeled_us;
    }
    return modeled_us;
}

/** Largest fixed-point error of one robot's last-pass outputs. */
double
maxRelErr(Case &c, const std::string &sabotage)
{
    const RobotModel &robot = c.robot->model;
    dadu::algo::DynamicsWorkspace ws(robot);
    FdDerivatives fd;
    VectorX qdd;
    double worst = 0.0;
    auto rel = [](const auto &out, const auto &ref) {
        return maxAbsDiff(out, ref) / std::max(1.0, ref.maxAbs());
    };
    for (Batch &b : c.batches) {
        for (std::size_t i = 0; i < b.in.req.size(); ++i) {
            const DynamicsRequest &r = b.in.req[i];
            DynamicsResult out = b.res[i];
            if (sabotage == "accel_fixed_point" && i == 0)
                out.qdd[0] += 1.0;
            double e = 0.0;
            if (b.in.fn == kFd) {
                dadu::algo::forwardDynamics(robot, ws, r.q, r.qd,
                                            r.qdd_or_tau, qdd);
                e = rel(out.qdd, qdd);
            } else if (b.in.fn == kDifd) {
                dadu::algo::fdDerivativesGivenAccel(
                    robot, ws, r.q, r.qd, r.qdd_or_tau, r.minv, fd, nullptr,
                    &c.plan);
                e = std::max(rel(out.dqdd_dq, fd.dqdd_dq),
                             rel(out.dqdd_dqd, fd.dqdd_dqd));
            } else {
                dadu::algo::fdDerivatives(robot, ws, r.q, r.qd,
                                          r.qdd_or_tau, fd);
                e = std::max({rel(out.qdd, fd.qdd),
                              rel(out.dqdd_dq, fd.dqdd_dq),
                              rel(out.dqdd_dqd, fd.dqdd_dqd)});
            }
            if (!(e <= worst)) // NaN-safe max
                worst = e;
        }
    }
    return worst;
}

} // namespace

void
runAccelSim(const Options &opt, Report &report, SpanLog &log)
{
    const std::vector<NamedRobot> robots = makeRobots();
    std::mt19937 rng(opt.seed);
    std::vector<Case> cases(robots.size());
    for (std::size_t r = 0; r < robots.size(); ++r) {
        Case &c = cases[r];
        c.robot = &robots[r];
        // The one-time per-robot configuration: auto-fit and SAP.
        c.accel = std::make_unique<dadu::accel::Accelerator>(robots[r].model);
        c.backend = std::make_unique<AcceleratorBackend>(*c.accel);
        buildCase(c, rng, log);
    }
    Report warm;
    const double modeled_us = runPass(cases, warm, nullptr);
    const double setup_s = secondsSinceStart();

    SpanLog *trace = opt.trace ? &log : nullptr;
    bool repeats = true;
    std::vector<double> host_us;
    const Deadline window(opt.seconds);
    do {
        const double us = runPass(cases, report, trace, &host_us);
        const double expect =
            opt.sabotage == "accel_modeled_repeats" ? modeled_us * (1 + 1e-12)
                                                    : modeled_us;
        repeats = repeats && us == expect;
    } while (!window.passed());

    report.check("accel_modeled_repeats", repeats);
    bool within = true;
    for (Case &c : cases) {
        const double err = maxRelErr(c, opt.sabotage);
        within = within && err <= kFixedPointRelTol;
        if (opt.trace) {
            const std::string r = c.robot->name;
            log.counter("accel.max_rel_err." + r, err);
            log.counter("accel.fifo_stalls." + r,
                        static_cast<double>(c.fifo_stalls));
            for (int f = 0; f < kMixFns; ++f) {
                const std::string k = r + "." + kMixFnName[f];
                log.counter("accel.cycles." + k,
                            static_cast<double>(c.cycles[f]));
                log.counter("accel.sim_over_analytic." + k,
                            c.cycles[f] / c.analytic_cycles[f]);
            }
        }
    }
    report.check("accel_fixed_point", within);

    std::int64_t points = 0;
    std::vector<double> pass_us;
    for (const Case &c : cases) {
        points += c.points;
        pass_us.push_back(c.modeled_us);
    }
    report.add("setup_s", setup_s, "s");
    report.add("pts_per_s", points / (modeled_us * 1e-6), "points/s");
    // About 110 passes in 30 s: too few for per-window percentiles.
    report.add("lat_p50_us", percentile(host_us, 50), "us");
    report.add("lat_p90_us", percentile(host_us, 90), "us");
    std::printf("lat_us: n=%zu p50=%.6g p90=%.6g p99=%.6g\n",
                host_us.size(), percentile(host_us, 50),
                percentile(host_us, 90), percentile(host_us, 99));
    std::printf("accel_sim: accel_modeled_us=%.17g modeled_pass_p50_us=%.17g "
                "modeled_pass_p99_us=%.17g\n",
                modeled_us, percentile(pass_us, 50), percentile(pass_us, 99));
}

} // namespace rbdbench
