/**
 * @file
 * Workload dyn_batch: one caller submits ∆FD, FD and gated ∆iFD
 * batches of 16 and 128 points for iiwa, HyQ and Atlas back to back
 * to CpuBatchedBackend instances that share one nproc-thread pool.
 *
 * A round submits, per robot and function, one 128-point batch and
 * eight 16-point batches (equal points at each size). The gated ∆iFD
 * batches keep 25% of the tangent columns live and take q̈ and M⁻¹
 * from a dense ∆FD pass over the same points made at set-up.
 *
 * End-to-end: pts_per_s, the median over rounds of the round's points
 * over its wall time, and lat_p50_us / lat_p90_us, the wall time of
 * one robot's pass over its batches (the median over 2-s windows of
 * each window's percentile). A traced run adds, in the second half of
 * its window, probes of the single-point workspace kernels, the engine
 * at 1 and nproc threads, and the backend on the same batches.
 */

#include "check.h"
#include "common.h"

#include <cstdio>
#include <memory>
#include <string>

#include "algorithms/batched.h"
#include "algorithms/dynamics.h"
#include "app/thread_pool.h"
#include "runtime/backends.h"

namespace rbdbench {

namespace {

using dadu::algo::BatchedDynamics;
using dadu::algo::ColumnPlan;
using dadu::algo::DynamicsWorkspace;
using dadu::algo::FdDerivatives;
using dadu::algo::GatingMode;
using dadu::runtime::CpuBatchedBackend;
using dadu::runtime::SubmitStatus;

/** One batch of the round, with its columnar engine views. */
struct Batch
{
    MixBatch in;
    std::vector<DynamicsResult> res;
    // Columnar views for direct engine calls (traced probes).
    std::vector<VectorX> q, qd, x;
    std::vector<const MatrixX *> minv;
    int submit_span = 0, engine_span = 0, engine1t_span = 0; ///< names
    int fn() const { return in.fn; }
    int size() const { return static_cast<int>(in.req.size()); }
};

/** Everything one robot submits per round. */
struct Case
{
    const NamedRobot *robot = nullptr;
    std::unique_ptr<CpuBatchedBackend> backend;
    std::unique_ptr<BatchedDynamics> engine1t; ///< traced runs only
    DynamicsWorkspace ws;
    ColumnPlan plan;            ///< the ∆iFD live columns
    std::vector<Batch> batches; ///< the mix, in makeMix order
    int scalar_span[kMixFns] = {}; ///< span names
    std::vector<double> pass_pts_per_s; ///< per round, informational
    std::int64_t round_points = 0;
};

/** What the timed rounds measure. */
struct RoundStats
{
    explicit RoundStats(const Windowed &w) : pass_us(w) {}
    Windowed pass_us; ///< one robot's pass, by pass start
    std::vector<double> round_pts_per_s;
};

void
buildCase(Case &c, std::mt19937 &rng, SpanLog &log)
{
    const char *robot = c.robot->name;
    for (MixBatch &m : makeMix(c.robot->model, rng, c.plan)) {
        Batch b;
        b.in = std::move(m);
        const std::size_t n = b.in.req.size();
        b.res.resize(n);
        b.q.resize(n);
        b.qd.resize(n);
        b.x.resize(n);
        b.minv.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            b.q[i] = b.in.req[i].q;
            b.qd[i] = b.in.req[i].qd;
            b.x[i] = b.in.req[i].qdd_or_tau;
            b.minv[i] = &b.in.req[i].minv;
        }
        const std::string key = std::string(robot) + "." +
                                kMixFnName[b.fn()] + ".n" +
                                std::to_string(n);
        b.submit_span = log.name("backend.submit." + key);
        b.engine_span = log.name("engine.batch." + key);
        b.engine1t_span = log.name("engine1t.batch." + key);
        c.round_points += static_cast<std::int64_t>(n);
        c.batches.push_back(std::move(b));
    }
    for (int f = 0; f < kMixFns; ++f)
        c.scalar_span[f] = log.name(std::string("kernel.scalar.") + robot +
                                    "." + kMixFnName[f]);
}

/** Submit one batch to its robot's backend, counting the operation. */
void
submit(Case &c, Batch &b, Report &report)
{
    const SubmitStatus st =
        c.backend->submit(kMixFnType[b.fn()], b.in.req.data(),
                          b.in.req.size(), b.res.data());
    ++report.attempted;
    if (st != SubmitStatus::Ok)
        ++report.failed;
}

/** One round: every batch of every robot, back to back. */
void
runRound(std::vector<Case> &cases, Report &report, RoundStats *stats)
{
    std::int64_t points = 0, round_ns = 0;
    for (Case &c : cases) {
        const std::int64_t t0 = nowNs();
        for (Batch &b : c.batches)
            submit(c, b, report);
        const std::int64_t ns = nowNs() - t0;
        points += c.round_points;
        round_ns += ns;
        if (stats) {
            stats->pass_us.add(t0, ns * 1e-3);
            c.pass_pts_per_s.push_back(c.round_points * 1e9 / ns);
        }
    }
    if (stats)
        stats->round_pts_per_s.push_back(points * 1e9 / round_ns);
}

/** Direct engine call on one batch (nproc or 1 thread). */
void
engineCall(BatchedDynamics &e, const Batch &b, const ColumnPlan &plan)
{
    const int n = b.size();
    switch (b.fn()) {
      case kDfd:
        e.batchFdDerivatives(b.q.data(), b.qd.data(), b.x.data(), n);
        break;
      case kFd:
        e.batchForwardDynamics(b.q.data(), b.qd.data(), b.x.data(), n);
        break;
      default:
        e.batchFdDerivativesGivenAccel(b.q.data(), b.qd.data(), b.x.data(),
                                       b.minv.data(), n, &plan);
        break;
    }
}

/**
 * Traced probes of the layers, on the round's own batches: the
 * 128-point batch through the single-point workspace kernels, and the
 * 128-point batch plus the first 16-point batch of each function
 * through the engine at 1 thread, then alternately through the
 * backend and the nproc-thread engine it wraps (both warm, so their
 * difference is the backend's staging).
 */
void
probeRound(std::vector<Case> &cases, Report &report, SpanLog &log)
{
    FdDerivatives fd;
    VectorX qdd;
    for (Case &c : cases) {
        const RobotModel &robot = c.robot->model;
        for (std::size_t bi = 0; bi < c.batches.size(); ++bi) {
            Batch &b = c.batches[bi];
            const bool first_small =
                bi > 0 && c.batches[bi - 1].size() == kLarge;
            if (b.size() == kLarge) {
                const std::int64_t t0 = nowNs();
                for (const DynamicsRequest &r : b.in.req) {
                    if (b.fn() == kDfd)
                        dadu::algo::fdDerivatives(robot, c.ws, r.q, r.qd,
                                                  r.qdd_or_tau, fd);
                    else if (b.fn() == kFd)
                        dadu::algo::forwardDynamics(robot, c.ws, r.q, r.qd,
                                                    r.qdd_or_tau, qdd);
                    else
                        dadu::algo::fdDerivativesGivenAccel(
                            robot, c.ws, r.q, r.qd, r.qdd_or_tau, r.minv,
                            fd, nullptr, &c.plan);
                }
                log.span(c.scalar_span[b.fn()], t0, nowNs(), b.size());
            } else if (!first_small) {
                continue;
            }
            std::int64_t t0 = nowNs();
            engineCall(*c.engine1t, b, c.plan);
            log.span(b.engine1t_span, t0, nowNs(), b.size());
            for (int rep = 0; rep < 2; ++rep) {
                t0 = nowNs();
                submit(c, b, report);
                log.span(b.submit_span, t0, nowNs(), b.size());
                t0 = nowNs();
                engineCall(c.backend->engine(), b, c.plan);
                log.span(b.engine_span, t0, nowNs(), b.size());
            }
        }
    }
}

/** Output checks on the results of the last round. */
void
checkOutputs(std::vector<Case> &cases, const Options &opt, Report &report,
             std::mt19937 &rng)
{
    const std::string &sab = opt.sabotage;
    bool bitwise = true, difd = true;
    // Worst residuals; a NaN residual sticks (NaN <= tol is false).
    double worst_cd = 0.0, worst_id = 0.0, worst_minv = 0.0;
    auto worse = [](double &w, double e) { w = e <= w ? w : e; };
    FdDerivatives fd;
    VectorX qdd;
    for (Case &c : cases) {
        const RobotModel &robot = c.robot->model;
        const int nv = robot.nv();
        for (Batch &b : c.batches) {
            if (sab == "batched_bitwise" && b.fn() == kFd)
                b.res[0].qdd[0] = std::nextafter(b.res[0].qdd[0], 1e300);
            if (sab == "difd_columns" && b.fn() == kDifd) {
                const int col = c.plan.cols()[0];
                b.res[0].dqdd_dq(0, col) += 1e-12;
            }
            for (std::size_t i = 0; i < b.in.req.size(); ++i) {
                const DynamicsRequest &r = b.in.req[i];
                DynamicsResult &out = b.res[i];
                if (b.fn() == kFd) {
                    dadu::algo::forwardDynamics(robot, c.ws, r.q, r.qd,
                                                r.qdd_or_tau, qdd);
                    bitwise = bitwise && sameBits(out.qdd, qdd);
                    VectorX tau = r.qdd_or_tau;
                    if (sab == "id_roundtrip" && i == 0)
                        tau[0] += 1e-6 * (1.0 + std::abs(tau[0]));
                    worse(worst_id,
                          idResidual(robot, c.ws, r.q, r.qd, out.qdd, tau));
                } else if (b.fn() == kDfd) {
                    dadu::algo::fdDerivatives(robot, c.ws, r.q, r.qd,
                                              r.qdd_or_tau, fd);
                    bitwise = bitwise && sameBits(out.qdd, fd.qdd) &&
                              sameBits(out.minv, fd.minv) &&
                              sameBits(out.dqdd_dq, fd.dqdd_dq) &&
                              sameBits(out.dqdd_dqd, fd.dqdd_dqd);
                    worse(worst_id, idResidual(robot, c.ws, r.q, r.qd,
                                               out.qdd, r.qdd_or_tau));
                    MatrixX m = out.minv;
                    if (sab == "minv_times_m" && i == 0)
                        m(0, 0) *= 1.0 + 1e-6;
                    worse(worst_minv, minvResidual(robot, c.ws, r.q, m));
                } else {
                    dadu::algo::fdDerivativesGivenAccel(
                        robot, c.ws, r.q, r.qd, r.qdd_or_tau, r.minv, fd,
                        nullptr, &c.plan);
                    bitwise = bitwise && sameBits(out.dqdd_dq, fd.dqdd_dq) &&
                              sameBits(out.dqdd_dqd, fd.dqdd_dqd);
                    // Live columns equal the dense pass, dead ones are 0.
                    const FdDerivatives &dn = b.in.dense[i];
                    for (int col = 0; col < nv && difd; ++col) {
                        const bool live = c.plan.isLive(col);
                        for (int row = 0; row < nv; ++row) {
                            const double a = out.dqdd_dq(row, col);
                            const double v = out.dqdd_dqd(row, col);
                            const bool ok =
                                live ? a == dn.dqdd_dq(row, col) &&
                                           v == dn.dqdd_dqd(row, col)
                                     : a == 0.0 && v == 0.0;
                            if (!ok) {
                                difd = false;
                                break;
                            }
                        }
                    }
                }
            }
            // Central differences on a few seeded points per robot.
            if (b.fn() == kDfd && b.size() == kLarge) {
                for (int s = 0; s < 3; ++s) {
                    const std::size_t i = rng() % b.in.req.size();
                    MatrixX dq = b.res[i].dqdd_dq;
                    if (sab == "central_diff" && s == 0)
                        dq(0, 0) += 1e-3 * (1.0 + std::abs(dq(0, 0)));
                    worse(worst_cd, centralDiffError(robot, c.ws, b.in.req[i],
                                                     dq, b.res[i].dqdd_dqd));
                }
            }
        }
    }
    std::printf("checks: central_diff worst=%.3g tol=%.3g, id_roundtrip "
                "worst=%.3g tol=%.3g, minv_times_m worst=%.3g tol=%.3g\n",
                worst_cd, kCentralDiffTol, worst_id, kIdTol, worst_minv,
                kMinvTol);
    report.check("batched_bitwise", bitwise);
    report.check("central_diff", worst_cd <= kCentralDiffTol);
    report.check("id_roundtrip", worst_id <= kIdTol);
    report.check("minv_times_m", worst_minv <= kMinvTol);
    report.check("difd_columns", difd);
}

} // namespace

void
runDynBatch(const Options &opt, Report &report, SpanLog &log)
{
    const std::vector<NamedRobot> robots = makeRobots();
    // One pool for all three backends: the caller plus nproc - 1
    // workers, so the workload never runs more than nproc threads.
    auto pool = std::make_shared<dadu::app::ThreadPool>(opt.threads - 1);
    std::mt19937 rng(opt.seed);
    std::vector<Case> cases(robots.size());
    for (std::size_t r = 0; r < robots.size(); ++r) {
        Case &c = cases[r];
        c.robot = &robots[r];
        c.backend =
            std::make_unique<CpuBatchedBackend>(robots[r].model, pool);
        c.ws.ensure(robots[r].model);
        if (opt.trace)
            c.engine1t =
                std::make_unique<BatchedDynamics>(robots[r].model, 1);
        buildCase(c, rng, log);
    }
    // Warm-up round: grows every staging and output buffer.
    Report warm;
    runRound(cases, warm, nullptr);
    if (opt.trace)
        probeRound(cases, warm, log);
    const double setup_s = secondsSinceStart();

    // A traced run spends the second half of its window on probes;
    // its rounds are timed exactly as in an untraced run.
    const double main_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    RoundStats stats(Windowed(nowNs(), main_s));
    const Deadline main_window(main_s);
    while (!main_window.passed())
        runRound(cases, report, &stats);
    if (opt.trace) {
        const Deadline probe_window(opt.seconds / 2);
        while (!probe_window.passed())
            probeRound(cases, report, log);
        // The checks read the outputs a regular round leaves behind.
        runRound(cases, report, nullptr);
    }

    std::mt19937 check_rng(opt.seed ^ 0x9e3779b9u);
    checkOutputs(cases, opt, report, check_rng);

    report.add("setup_s", setup_s, "s");
    report.add("pts_per_s", median(stats.round_pts_per_s), "points/s");
    report.add("lat_p50_us", stats.pass_us.medianPercentile(50), "us");
    report.add("lat_p90_us", stats.pass_us.medianPercentile(90), "us");
    stats.pass_us.printPercentiles("lat_us");
    std::printf("dyn_batch: rounds=%zu", stats.round_pts_per_s.size());
    for (Case &c : cases)
        std::printf(" %s_pts_per_s=%.6g", c.robot->name,
                    median(c.pass_pts_per_s));
    std::printf("\n");
}

} // namespace rbdbench
