/**
 * @file
 * A traced replay of SweepRunner::run built from the simulator's
 * public surface, so the benchmark can time the layers inside a
 * sweep without instrumenting the program.
 *
 * The replay claims the same units (sim::partitionSweepUnits) on the
 * same pool (sim::parallelFor) and steps each unit the way the runner
 * does: one generator decodes a chunk (workload.fill), every lane
 * steps it with the next lane prefetching (sim.step), and each lane
 * is finished (sim.finish).  Its results must equal the runner's bit
 * for bit; the caller checks that.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "nsrf/sim/sweep.hh"

namespace perfbench
{

/** What one replay measured and counted. */
struct Replay
{
    std::vector<nsrf::sim::RunResult> results;
    double wallS = 0;    //!< the whole pool, host time
    double fillS = 0;    //!< TraceGenerator::fill
    double stepS = 0;    //!< stepRun (+ the next lane's prefetch)
    double finishS = 0;  //!< finishRun
    double beginS = 0;   //!< generator + simulator construction
    double unitS = 0;    //!< sum of unit spans (worker busy time)
    std::uint64_t events = 0; //!< events decoded
    std::uint64_t steps = 0;  //!< events consumed by lanes
    /** Sum of RunResult::instructions, what work_per_s counts. */
    std::uint64_t instructions = 0;
    std::size_t units = 0;
    std::size_t cells = 0;
    unsigned jobs = 1;

    // Register-file and data-cache counters summed over lanes.
    std::uint64_t rfAccesses = 0;
    std::uint64_t rfMisses = 0;
    std::uint64_t rfSpills = 0;
    std::uint64_t rfReloads = 0;
    std::uint64_t rfLineEvictions = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
};

/**
 * Replay @p cells on @p jobs workers with span recording (enable it
 * first for the layer times to be non-zero).
 */
Replay replaySweep(const std::vector<nsrf::sim::SweepCell> &cells,
                   unsigned jobs);

/**
 * Report the workload, simulator, register-file and data-cache layer
 * metrics of @p replay.  @p sweep_s is SweepRunner::run's wall time
 * on the same cells, untraced.
 */
void setSimLayers(Report &report, const Replay &replay, double sweep_s);

/**
 * The sim-layer probe of the explorer and serve workloads: alternate
 * an untraced SweepRunner::run with a traced replay of @p cells, five
 * times, check they agree, and report the median replay's layers
 * against the median runner time.
 */
void probeSimLayers(Report &report,
                    const std::vector<nsrf::sim::SweepCell> &cells,
                    unsigned jobs);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
