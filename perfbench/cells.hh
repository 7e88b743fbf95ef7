/**
 * @file
 * The inputs of each workload, all derived from the benchmark seed.
 *
 * Every cell is described the way a client describes it to the
 * daemon — a cell-spec JSON object — and expanded by the serving
 * layer's own parser (serve::paramsFromJson, serve::cellsFromParams),
 * so offline and served cells have one identity.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nsrf/explore/search.hh"
#include "nsrf/sim/sweep.hh"

namespace perfbench
{

/**
 * Event budgets of the figure benches are divided by this, so one
 * sweep of every paper cell takes a fraction of a second and a run
 * times many of them.
 */
inline constexpr std::uint64_t kPaperScaleDown = 8;

/** The gate's canonical paper cells use budgets divided by this. */
inline constexpr std::uint64_t kGateScaleDown = 40;

/**
 * The cells of fig09-fig14 and compare_organizations, in bench
 * order, with each bench's default event budget divided by
 * @p scale_down.  Seed 0 keeps every profile's own seed; any other
 * seed gives each workload (profile) a seed derived from it, shared
 * by all cells of that workload so their streams still lane-batch.
 */
std::vector<std::string> paperCellSpecs(std::uint64_t seed,
                                        std::uint64_t scale_down);

/** Expand cell-spec JSON objects into sweep cells (fatal on error). */
std::vector<nsrf::sim::SweepCell>
cellsFromSpecs(const std::vector<std::string> &specs);

/**
 * The explorer workload: an NSF/segmented lattice over file size,
 * line size, miss and write policy on one workload, two budget
 * rungs.  Seed 0 is the gate's canonical lattice.
 */
nsrf::explore::ExploreOptions exploreOptions(std::uint64_t seed);

/** @return the lattice's rung-0 cells (every point, first budget). */
std::vector<nsrf::sim::SweepCell>
exploreRungCells(const nsrf::explore::ExploreOptions &options);

/** One cell spec as a JSON object (@p regs 0 = the paper size). */
std::string cellSpec(const std::string &app, const std::string &org,
                     unsigned regs, std::uint64_t events,
                     std::uint64_t seed);

/** A submit request line for @p specs (no trailing newline). */
std::string submitLine(const std::vector<std::string> &specs);

/** The Table 1 workload names, in paper order. */
const std::vector<std::string> &appNames();

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
