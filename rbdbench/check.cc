#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/rnea.h"
#include "model/builders.h"

namespace rbdbench {

std::vector<NamedRobot>
makeRobots()
{
    std::vector<NamedRobot> robots;
    robots.push_back({"iiwa", dadu::model::makeIiwa()});
    robots.push_back({"hyq", dadu::model::makeHyq()});
    robots.push_back({"atlas", dadu::model::makeAtlas()});
    return robots;
}

DynamicsRequest
randomRequest(const RobotModel &robot, std::mt19937 &rng)
{
    DynamicsRequest r;
    r.q = robot.randomConfiguration(rng);
    r.qd = robot.randomVelocity(rng);
    r.qdd_or_tau = robot.randomVelocity(rng);
    return r;
}

namespace {

/** @p count distinct sorted columns out of @p nv. */
std::vector<int>
randomColumns(int nv, int count, std::mt19937 &rng)
{
    std::vector<int> all(static_cast<std::size_t>(nv));
    std::iota(all.begin(), all.end(), 0);
    // Partial Fisher-Yates with an explicit draw, so the choice does
    // not depend on the standard library's shuffle algorithm.
    for (int i = 0; i < count; ++i) {
        const int j = i + static_cast<int>(rng() % (nv - i));
        std::swap(all[i], all[j]);
    }
    all.resize(static_cast<std::size_t>(count));
    std::sort(all.begin(), all.end());
    return all;
}

bool
sameBits(double a, double b)
{
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

} // namespace

std::vector<MixBatch>
makeMix(const RobotModel &robot, std::mt19937 &rng,
        dadu::algo::ColumnPlan &plan)
{
    const int nv = robot.nv();
    const std::vector<int> live =
        randomColumns(nv, std::max(1, (nv + 2) / 4), rng);
    plan.resolve(dadu::algo::GatingMode::Simple, live, nv);
    dadu::algo::DynamicsWorkspace ws(robot);
    std::vector<MixBatch> mix;
    for (int f = 0; f < kMixFns; ++f) {
        for (int k = 0; k <= kSmallPerRound; ++k) {
            MixBatch b;
            b.fn = f;
            const int size = k == 0 ? kLarge : kSmall;
            for (int i = 0; i < size; ++i)
                b.req.push_back(randomRequest(robot, rng));
            if (f == kDifd) {
                b.dense.resize(b.req.size());
                for (std::size_t i = 0; i < b.req.size(); ++i) {
                    DynamicsRequest &r = b.req[i];
                    dadu::algo::fdDerivatives(robot, ws, r.q, r.qd,
                                              r.qdd_or_tau, b.dense[i]);
                    r.qdd_or_tau = b.dense[i].qdd;
                    r.minv = b.dense[i].minv;
                    r.seed_cols = live;
                    r.gating = dadu::algo::GatingMode::Simple;
                }
            }
            mix.push_back(std::move(b));
        }
    }
    return mix;
}

bool
sameBits(const VectorX &a, const VectorX &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], b[i]))
            return false;
    return true;
}

bool
sameBits(const MatrixX &a, const MatrixX &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (!sameBits(a(r, c), b(r, c)))
                return false;
    return true;
}

double
maxAbsDiff(const MatrixX &a, const MatrixX &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            const double d = std::abs(a(r, c) - b(r, c));
            if (std::isnan(d))
                return std::numeric_limits<double>::infinity();
            worst = std::max(worst, d);
        }
    return worst;
}

double
maxAbsDiff(const VectorX &a, const VectorX &b)
{
    if (a.size() != b.size())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = std::abs(a[i] - b[i]);
        if (std::isnan(d))
            return std::numeric_limits<double>::infinity();
        worst = std::max(worst, d);
    }
    return worst;
}

double
centralDiffError(const RobotModel &robot, dadu::algo::DynamicsWorkspace &ws,
                 const DynamicsRequest &req, const MatrixX &dqdd_dq,
                 const MatrixX &dqdd_dqd, double eps)
{
    const int nv = robot.nv();
    VectorX dv(static_cast<std::size_t>(nv));
    VectorX qp, qm, vp, vm, ap, am;
    double worst = 0.0;
    const double scale =
        std::max({1.0, dqdd_dq.maxAbs(), dqdd_dqd.maxAbs()});
    for (int j = 0; j < nv; ++j) {
        dv.setAll(0.0);
        dv[j] = eps;
        robot.integrateInto(req.q, dv, qp);
        dv[j] = -eps;
        robot.integrateInto(req.q, dv, qm);
        dadu::algo::forwardDynamics(robot, ws, qp, req.qd, req.qdd_or_tau,
                                    ap);
        dadu::algo::forwardDynamics(robot, ws, qm, req.qd, req.qdd_or_tau,
                                    am);
        vp = req.qd;
        vm = req.qd;
        vp[j] += eps;
        vm[j] -= eps;
        VectorX bp, bm;
        dadu::algo::forwardDynamics(robot, ws, req.q, vp, req.qdd_or_tau,
                                    bp);
        dadu::algo::forwardDynamics(robot, ws, req.q, vm, req.qdd_or_tau,
                                    bm);
        for (int i = 0; i < nv; ++i) {
            const double nq = (ap[i] - am[i]) / (2.0 * eps);
            const double nd = (bp[i] - bm[i]) / (2.0 * eps);
            const double e = std::max(std::abs(nq - dqdd_dq(i, j)),
                                      std::abs(nd - dqdd_dqd(i, j)));
            if (!(e <= worst)) // NaN-safe max
                worst = e;
        }
    }
    return worst / scale;
}

double
idResidual(const RobotModel &robot, dadu::algo::DynamicsWorkspace &ws,
           const VectorX &q, const VectorX &qd, const VectorX &qdd,
           const VectorX &tau)
{
    dadu::algo::rnea(robot, ws, q, qd, qdd, ws.rnea_res);
    const VectorX err = ws.rnea_res.tau - tau;
    const double e = err.maxAbs();
    return std::isnan(e) ? std::numeric_limits<double>::infinity()
                         : e / std::max(1.0, tau.maxAbs());
}

double
minvResidual(const RobotModel &robot, dadu::algo::DynamicsWorkspace &ws,
             const VectorX &q, const MatrixX &minv)
{
    MatrixX m;
    dadu::algo::crba(robot, ws, q, m);
    const MatrixX prod = minv * m;
    return maxAbsDiff(prod, MatrixX::identity(prod.rows()));
}

} // namespace rbdbench
