/**
 * @file
 * Seeded inputs and independent output checks shared by the rbdbench
 * workloads. Every check recomputes its reference apart from the
 * measured path (single-point workspace kernels, the benchmark's own
 * central differences, RNEA/CRBA identities), and runs outside the
 * timed window.
 */

#ifndef RBDBENCH_CHECK_H
#define RBDBENCH_CHECK_H

#include <random>
#include <string>
#include <vector>

#include "algorithms/col_gating.h"
#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "model/robot_model.h"
#include "runtime/request.h"

namespace rbdbench {

using dadu::linalg::MatrixX;
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::FunctionType;

/** The three evaluation robots of the paper, by benchmark name. */
struct NamedRobot
{
    const char *name; ///< "iiwa", "hyq", "atlas"
    RobotModel model;
};

/** iiwa, HyQ and Atlas, in that order. */
std::vector<NamedRobot> makeRobots();

/** One seeded (q, q̇, τ) sample point. */
DynamicsRequest randomRequest(const RobotModel &robot, std::mt19937 &rng);

// The function mix shared by dyn_batch and accel_sim: per robot and
// function, one 128-point batch and eight 16-point batches, so each
// batch size carries the same number of points.
inline constexpr int kSmall = 16;
inline constexpr int kLarge = 128;
inline constexpr int kSmallPerRound = kLarge / kSmall;
enum MixFn
{
    kDfd,
    kFd,
    kDifd, ///< gated ∆iFD, 25% live columns
    kMixFns
};
inline constexpr const char *kMixFnName[kMixFns] = {"dfd", "fd", "difd25"};
inline constexpr FunctionType kMixFnType[kMixFns] = {
    FunctionType::DeltaFD, FunctionType::FD, FunctionType::DeltaiFD};

/** One batch of the mix. */
struct MixBatch
{
    int fn = kDfd;
    std::vector<DynamicsRequest> req;
    /** ∆iFD only: the dense reference ∆FD pass that supplied each
     *  request's q̈ and M⁻¹. */
    std::vector<dadu::algo::FdDerivatives> dense;
};

/**
 * The seeded mix for one robot, batches ordered by function and, per
 * function, the 128-point batch first. The ∆iFD requests share one
 * live set of 25% of the tangent columns (at least one), returned in
 * @p plan.
 */
std::vector<MixBatch> makeMix(const RobotModel &robot, std::mt19937 &rng,
                              dadu::algo::ColumnPlan &plan);

/** True when both hold the same doubles bit for bit. */
bool sameBits(const VectorX &a, const VectorX &b);
bool sameBits(const MatrixX &a, const MatrixX &b);

/** max |a - b| over all entries (infinity on a shape mismatch or NaN). */
double maxAbsDiff(const MatrixX &a, const MatrixX &b);
double maxAbsDiff(const VectorX &a, const VectorX &b);

/**
 * Largest error of ∂q̈/∂q and ∂q̈/∂q̇ against central differences of
 * single-point FD (tangent-space steps of @p eps through
 * RobotModel::integrate), relative to max(1, largest entry).
 */
double centralDiffError(const RobotModel &robot,
                        dadu::algo::DynamicsWorkspace &ws,
                        const DynamicsRequest &req, const MatrixX &dqdd_dq,
                        const MatrixX &dqdd_dqd, double eps = 1e-6);

/** |ID(q, q̇, q̈) - τ|∞ relative to max(1, |τ|∞). */
double idResidual(const RobotModel &robot,
                  dadu::algo::DynamicsWorkspace &ws, const VectorX &q,
                  const VectorX &qd, const VectorX &qdd,
                  const VectorX &tau);

/** |M⁻¹·M_CRBA(q) - I|∞. */
double minvResidual(const RobotModel &robot,
                    dadu::algo::DynamicsWorkspace &ws, const VectorX &q,
                    const MatrixX &minv);

// Tolerances of the numeric checks.
inline constexpr double kCentralDiffTol = 1e-5;
inline constexpr double kIdTol = 1e-9;
inline constexpr double kMinvTol = 1e-9;

} // namespace rbdbench

#endif // RBDBENCH_CHECK_H
