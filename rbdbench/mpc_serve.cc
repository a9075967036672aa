/**
 * @file
 * Workload mpc_serve: one closed-loop iiwa MpcSession on its own
 * thread beside an open-loop bulk ∆FD generator, both served by one
 * DynamicsServer (EDF + coalescing + stealing, metrics registry on,
 * trace rings off, no admission policy) over two single-thread
 * CpuBatchedBackend lanes.
 *
 * The session is deadline-tagged (slack 4) and its plant is stepped
 * with the reference ABA and manifold Euler. The main thread sends
 * 16-point ∆FD batches on a seeded Poisson schedule at a fixed
 * absolute rate; each bulk latency is timed from the instant the job
 * was due. The session ticks in rounds of kTicksPerRound; between
 * rounds the main thread drains the server (which retires finished
 * job records) while the session waits, as the library's own
 * closed-loop runs in app::MpcWorkload do.
 *
 * End-to-end: pts_per_s, the points the lanes served (session and
 * bulk) per second of the window, and lat_p50_us / lat_p90_us, the
 * wall time of MpcSession::tick (the median over 2-s windows of each
 * window's percentile). The tick rate, the bulk latencies and
 * track_err are printed on an informational line.
 *
 * Thread budget: session, generator and two lane workers.
 */

#include "check.h"
#include "common.h"

#include <atomic>
#include <condition_variable>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "algorithms/aba.h"
#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/server.h"

namespace rbdbench {

namespace {

using dadu::runtime::BatchStats;
using dadu::runtime::CpuBatchedBackend;
using dadu::runtime::DynamicsBackend;
using dadu::runtime::DynamicsServer;
using dadu::runtime::JobOutcome;
using dadu::runtime::SubmitStatus;

constexpr int kBulkPoints = 16;
constexpr double kBulkRatePerS = 400.0;
constexpr int kBulkInputs = 32;   ///< distinct bulk batches, cycled
constexpr int kBulkSlots = 64;    ///< result buffers, reused in turn
constexpr int kTicksPerRound = 128;
constexpr int kTrackTicks = 128;  ///< ticks that define track_err
constexpr double kDeadlineSlack = 4.0;
constexpr int kBulkSampleEvery = 8; ///< 1 in 8 bulk jobs is checked
constexpr std::int64_t kSliceNs = 1000000; ///< generator sleep slice
constexpr std::int64_t kSpinNs = 300000;   ///< spin before each send

/**
 * DynamicsBackend decorator that counts the points every batch a lane
 * submits to its backend carries, and in a traced run times the batch.
 * Called only by the lane's serving thread, so its span log needs no
 * lock.
 */
class TimedLane : public DynamicsBackend
{
  public:
    TimedLane(std::unique_ptr<DynamicsBackend> inner, int lane)
        : inner_(std::move(inner))
    {
        for (int f = 0; f < kFunctions; ++f)
            names_[f] = log_.name("backend.batch.lane" +
                                  std::to_string(lane) + "." +
                                  dadu::runtime::functionName(
                                      static_cast<FunctionType>(f)));
        log_.setIdBase((lane + 1) * 1000000000LL);
    }

    const char *name() const override { return inner_->name(); }
    const RobotModel &robot() const override { return inner_->robot(); }
    bool offloaded() const override { return inner_->offloaded(); }

    SubmitStatus submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats) override
    {
        points.fetch_add(static_cast<std::int64_t>(count),
                         std::memory_order_relaxed);
        if (!recording.load(std::memory_order_relaxed))
            return inner_->submit(fn, requests, count, results, stats);
        const std::int64_t t0 = nowNs();
        const SubmitStatus st =
            inner_->submit(fn, requests, count, results, stats);
        log_.span(names_[static_cast<int>(fn)], t0, nowNs(),
                  static_cast<double>(count));
        return st;
    }
    using DynamicsBackend::submit;

    SpanLog &log() { return log_; }
    std::atomic<bool> recording{false};
    std::atomic<std::int64_t> points{0}; ///< points served so far

  private:
    std::unique_ptr<DynamicsBackend> inner_;
    static constexpr int kFunctions =
        static_cast<int>(FunctionType::DeltaiFD) + 1;
    int names_[kFunctions] = {}; ///< span name per function
    SpanLog log_;
};

/** Plant stepped with the reference dynamics (ABA + manifold Euler). */
struct Plant
{
    explicit Plant(const RobotModel &r) : robot(r), ws(r) {}
    const RobotModel &robot;
    dadu::algo::DynamicsWorkspace ws;
    VectorX q, qd, qdd, step, q_next, err;

    void advance(const VectorX &u, double dt)
    {
        dadu::algo::aba(robot, ws, q, qd, u, qdd);
        step.resize(qd.size());
        for (std::size_t j = 0; j < qd.size(); ++j)
            step[j] = dt * qd[j];
        robot.integrateInto(q, step, q_next);
        q = q_next;
        for (std::size_t j = 0; j < qd.size(); ++j)
            qd[j] += dt * qdd[j];
    }

    /** Squared tangent-space distance from @p q_ref. */
    double sqDistance(const VectorX &q_ref)
    {
        robot.differenceInto(q_ref, q, err);
        return err.dot(err);
    }
};

/** What the session thread measures. */
struct ClientResult
{
    explicit ClientResult(const Windowed &w) : tick_us(w) {}
    Windowed tick_us; ///< tick latency by tick start
    double track_sq_sum = 0.0;
    int tracked = 0;
};

/** One bulk job in flight or finished. */
struct BulkJob
{
    int id = -1;
    int input = 0;
    int slot = 0;
    std::int64_t due_ns = 0, submit_ns = 0, submit_end_ns = 0;
};

/** A bulk result kept for the post-run ID round trip. */
struct BulkSample
{
    int input;
    int point;
    VectorX qdd;
};

/** Open-loop tracking error of the scenario's u_ref on the plant. */
double
openLoopTrackErr(const RobotModel &robot, const dadu::ctrl::Scenario &sc)
{
    dadu::ctrl::IlqrSolver ref(robot, sc.problem);
    Plant plant(robot);
    plant.q = sc.q0;
    plant.qd = sc.qd0;
    double sq = 0.0;
    for (int t = 0; t < kTrackTicks; ++t) {
        plant.advance(ref.problem().u_ref[0], sc.problem.dt);
        ref.shiftReferences();
        sq += plant.sqDistance(ref.problem().q_ref[0]);
    }
    return std::sqrt(sq / kTrackTicks);
}

} // namespace

void
runMpcServe(const Options &opt, Report &report, SpanLog &log)
{
    const RobotModel robot = dadu::model::makeIiwa();
    const dadu::ctrl::Scenario scenario =
        dadu::ctrl::makeScenario(robot, 0, 16, 0.01, 0.0);

    std::vector<std::unique_ptr<TimedLane>> lanes;
    DynamicsServer server;
    for (int l = 0; l < 2; ++l) {
        lanes.push_back(std::make_unique<TimedLane>(
            std::make_unique<CpuBatchedBackend>(robot, 1), l));
        server.addBackend(*lanes.back());
    }
    dadu::runtime::sched::SchedConfig cfg;
    cfg.kind = dadu::runtime::sched::PolicyKind::Edf;
    cfg.coalesce = true;
    cfg.steal = true;
    cfg.obs.metrics = true;
    cfg.obs.trace = false;
    server.setPolicy(cfg);
    server.start();

    // Seeded bulk inputs and Poisson inter-arrival gaps.
    std::mt19937 rng(opt.seed);
    std::vector<std::vector<DynamicsRequest>> bulk_in(kBulkInputs);
    for (auto &batch : bulk_in)
        for (int i = 0; i < kBulkPoints; ++i)
            batch.push_back(randomRequest(robot, rng));
    std::vector<std::vector<DynamicsResult>> slots(
        kBulkSlots, std::vector<DynamicsResult>(kBulkPoints));
    std::vector<int> slot_job(kBulkSlots, -1);
    // Separate streams, so the send schedule does not depend on when
    // drains happen to draw their samples.
    std::mt19937 gap_rng(opt.seed * 2654435761u + 1);
    std::mt19937 sample_rng(opt.seed * 2654435761u + 2);
    std::exponential_distribution<double> gap_s(kBulkRatePerS);

    std::size_t server_jobs = 0;      // completed jobs over all drains
    std::size_t bulk_submitted = 0;
    dadu::runtime::sched::SchedStats sched_sum;
    auto drainServer = [&] {
        dadu::runtime::ServerStats st;
        dadu::runtime::sched::SchedStats ss;
        server.drain(&st, &ss);
        server_jobs += st.jobs;
        sched_sum.coalesced_batches += ss.coalesced_batches;
        sched_sum.steals += ss.steals;
        sched_sum.deadline_met += ss.deadline_met;
        sched_sum.deadline_misses += ss.deadline_misses;
    };

    // Warm-up: one bulk batch per lane, then the priming solve.
    for (int l = 0; l < 2; ++l) {
        const int job = server.submit(FunctionType::DeltaFD,
                                      bulk_in[l].data(), kBulkPoints,
                                      slots[l].data(), l);
        server.wait(job);
        ++bulk_submitted;
    }
    dadu::ctrl::MpcSession::Config scfg;
    scfg.deadline_slack = kDeadlineSlack;
    dadu::ctrl::MpcSession session(robot, scenario, dadu::ctrl::IlqrOptions{},
                                   scfg);
    const bool primed = session.start(server).converged;
    drainServer();
    sched_sum = {};
    const std::size_t setup_jobs = session.stats().jobs;
    const double setup_s = secondsSinceStart();

    // ---------------------------------------------------- session thread
    // Round barrier: the session publishes finished rounds through an
    // atomic (the generator polls it between sends) and sleeps on the
    // condition variable until the generator releases the next round.
    std::mutex mu;
    std::condition_variable cv;
    int rounds_go = 1; // guarded by mu; written by the generator only
    bool stop = false; // guarded by mu
    std::atomic<int> rounds_done{0};
    SpanLog client_log;
    client_log.setIdBase(3000000000LL);
    const int tick_span = client_log.name("ctrl.tick");
    const int submit_span = log.name("server.submit");
    const int send_span = log.name("gen.send");
    const int job_span = log.name("server.bulk_job");
    const bool trace = opt.trace;
    Plant plant(robot);
    plant.q = scenario.q0;
    plant.qd = scenario.qd0;

    std::int64_t points_start = 0;
    for (auto &lane : lanes) {
        lane->recording.store(trace, std::memory_order_relaxed);
        points_start += lane->points.load(std::memory_order_relaxed);
    }
    const std::int64_t window_start = nowNs();
    ClientResult client(Windowed(window_start, opt.seconds));
    std::thread session_thread([&] {
        const double dt = scenario.problem.dt;
        int ticks = 0;
        for (int round = 0;; ++round) {
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return stop || rounds_go > round; });
                if (stop)
                    return;
            }
            for (int t = 0; t < kTicksPerRound; ++t, ++ticks) {
                const std::int64_t c0 = trace ? threadCpuNs() : 0;
                const std::int64_t t0 = nowNs();
                const VectorX &u = session.tick(server, plant.q, plant.qd);
                const std::int64_t t1 = nowNs();
                if (trace)
                    client_log.span(tick_span, t0, t1,
                                    static_cast<double>(threadCpuNs() - c0));
                client.tick_us.add(t0, (t1 - t0) * 1e-3);
                plant.advance(u, dt);
                if (ticks < kTrackTicks) {
                    client.track_sq_sum += plant.sqDistance(
                        session.solver().problem().q_ref[0]);
                    ++client.tracked;
                }
            }
            rounds_done.fetch_add(1, std::memory_order_release);
        }
    });

    // --------------------------------------------- open-loop generator
    const Deadline window(opt.seconds);
    std::vector<BulkJob> round_jobs;
    Windowed bulk_latency_us(window_start, opt.seconds);

    std::vector<BulkSample> samples;
    bool bulk_all_completed = true;
    std::int64_t due_ns = window_start +
                          static_cast<std::int64_t>(gap_s(gap_rng) * 1e9);
    int next_input = 0, next_slot = 0;
    std::size_t window_bulk = 0;
    // The generator sleeps in short slices (so it also notices the
    // round barrier) and spins through the last kSpinNs before a send:
    // a timed sleep alone wakes ~0.1 ms late on this kind of host, and
    // open-loop latency is timed from the instant a send was due.
    for (;;) {
        if (rounds_done.load(std::memory_order_acquire) == rounds_go) {
            // The session waits at the round barrier: drain and
            // account the round's bulk jobs (records retire one drain
            // later, so they are all still readable here).
            drainServer();
            for (const BulkJob &b : round_jobs) {
                if (server.jobOutcome(b.id) != JobOutcome::Completed) {
                    bulk_all_completed = false;
                    continue;
                }
                const double done_us = server.jobDoneAtUs(b.id);
                bulk_latency_us.add(b.due_ns, done_us - b.due_ns * 1e-3);
                if (trace) {
                    // One bulk request: the submit call, and as its
                    // children the send lateness and the job's life.
                    const std::int64_t id = log.span(
                        submit_span, b.submit_ns, b.submit_end_ns);
                    log.span(send_span, b.due_ns, b.submit_ns, 0.0, id);
                    log.span(job_span, b.submit_ns,
                             static_cast<std::int64_t>(done_us * 1e3),
                             server.jobStats(b.id).total_us, id);
                }
                if (sample_rng() % kBulkSampleEvery == 0) {
                    const int p =
                        static_cast<int>(sample_rng() % kBulkPoints);
                    samples.push_back({b.input, p, slots[b.slot][p].qdd});
                }
            }
            round_jobs.clear();
            const bool finished =
                window.passed() && client.tracked >= kTrackTicks;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (finished)
                    stop = true;
                else
                    ++rounds_go;
            }
            cv.notify_all();
            if (finished)
                break;
            continue;
        }
        const std::int64_t now = nowNs();
        if (window.passed() || now < due_ns) {
            const std::int64_t wake =
                window.passed() ? now + kSliceNs
                                : std::min(now + kSliceNs, due_ns - kSpinNs);
            if (wake > now)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(wake - now));
            else
                std::this_thread::yield();
            continue;
        }
        // Reuse a result buffer only after its previous job finished.
        if (slot_job[next_slot] >= 0)
            server.wait(slot_job[next_slot]);
        BulkJob b;
        b.input = next_input;
        b.slot = next_slot;
        b.due_ns = due_ns;
        b.submit_ns = nowNs();
        b.id = server.submit(FunctionType::DeltaFD,
                             bulk_in[b.input].data(), kBulkPoints,
                             slots[b.slot].data(),
                             DynamicsServer::kLeastLoaded);
        b.submit_end_ns = nowNs();
        slot_job[next_slot] = b.id;
        round_jobs.push_back(b);
        ++bulk_submitted;
        ++window_bulk;
        next_input = (next_input + 1) % kBulkInputs;
        next_slot = (next_slot + 1) % kBulkSlots;
        due_ns += static_cast<std::int64_t>(gap_s(gap_rng) * 1e9);
    }
    session_thread.join();
    const std::int64_t window_ns = nowNs() - window_start;
    std::int64_t window_points = -points_start;
    for (auto &lane : lanes)
        window_points += lane->points.load(std::memory_order_relaxed);
    drainServer();
    for (auto &lane : lanes)
        lane->recording.store(false, std::memory_order_relaxed);
    server.stop();
    drainServer();

    // ------------------------------------------------------- checks
    const dadu::ctrl::MpcSession::Stats &ss = session.stats();
    const std::size_t ticks = ss.ticks;
    const std::size_t window_mpc_jobs = ss.jobs - setup_jobs;
    report.attempted += window_mpc_jobs + window_bulk;
    const std::string &sab = opt.sabotage;
    const std::size_t degraded =
        ss.degraded_ticks + (sab == "jobs_completed" ? 1 : 0);
    report.check("jobs_completed",
                 primed && bulk_all_completed && degraded == 0 &&
                     ss.rejected_jobs == 0 && ss.failed_jobs == 0);
    const std::size_t expected_jobs =
        bulk_submitted + ss.jobs + (sab == "job_total" ? 1 : 0);
    report.check("job_total", server_jobs == expected_jobs);
    {
        dadu::algo::DynamicsWorkspace ws(robot);
        bool ok = !samples.empty();
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const BulkSample &s = samples[i];
            const DynamicsRequest &r = bulk_in[s.input][s.point];
            VectorX qdd = s.qdd;
            if (sab == "bulk_id_roundtrip" && i == 0)
                qdd[0] += 1e-6 * (1.0 + std::abs(qdd[0]));
            ok = ok && idResidual(robot, ws, r.q, r.qd, qdd,
                                  r.qdd_or_tau) <= kIdTol;
        }
        report.check("bulk_id_roundtrip", ok);
    }
    const double track_err =
        std::sqrt(client.track_sq_sum / std::max(1, client.tracked));
    const double open_loop_err = openLoopTrackErr(robot, scenario);
    report.check("track_err_vs_open_loop",
                 (sab == "track_err_vs_open_loop" ? 10 * open_loop_err
                                                  : track_err) <
                     open_loop_err);

    // ------------------------------------------------------- metrics
    report.add("setup_s", setup_s, "s");
    report.add("pts_per_s", window_points * 1e9 / window_ns, "points/s");
    report.add("lat_p50_us", client.tick_us.medianPercentile(50), "us");
    report.add("lat_p90_us", client.tick_us.medianPercentile(90), "us");
    client.tick_us.printPercentiles("lat_us");
    std::printf("mpc_serve: ticks_per_s=%.6g bulk_p50_us=%.6g "
                "bulk_p95_us=%.6g track_err=%.17g\n",
                client.tick_us.medianRate(),
                bulk_latency_us.medianPercentile(50),
                bulk_latency_us.medianPercentile(95), track_err);
    std::printf("mpc_serve: ticks=%zu bulk_jobs=%zu open_loop_err=%.6g "
                "deadline_met=%zu deadline_misses=%zu\n",
                ticks, window_bulk, open_loop_err, sched_sum.deadline_met,
                sched_sum.deadline_misses);

    if (trace) {
        log.absorb(client_log);
        for (auto &lane : lanes)
            log.absorb(lane->log());
        log.counter("window_ns", static_cast<double>(window_ns));
        log.counter("ctrl.ticks", static_cast<double>(ticks));
        log.counter("ctrl.jobs", static_cast<double>(window_mpc_jobs));
        log.counter("sched.coalesced_batches",
                    static_cast<double>(sched_sum.coalesced_batches));
        log.counter("sched.steals", static_cast<double>(sched_sum.steals));
        log.counter("sched.deadline_met",
                    static_cast<double>(sched_sum.deadline_met));
        log.counter("sched.deadline_misses",
                    static_cast<double>(sched_sum.deadline_misses));
    }
}

} // namespace rbdbench
