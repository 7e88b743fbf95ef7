/**
 * @file
 * paper_sweep and explore_prefix: the reproduction's own jobs, run in
 * the driver process through the libraries' public functions.
 *
 * paper_sweep runs every cell of the paper's figure benches as one
 * lane-batched SweepRunner::run on all cores, back to back.  The
 * traced run replays the same sweep with layer spans (replay.hh).
 *
 * explore_prefix runs a successive-halving search whose promoted
 * points resume from prefix snapshots kept in a ResultCache that
 * starts empty for every search.  The traced run wraps the evaluator
 * in a span, and times snapshot save/restore on the lattice's cells.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hh"
#include "cells.hh"
#include "gate.hh"
#include "nsrf/explore/search.hh"
#include "nsrf/serve/cache.hh"
#include "nsrf/serve/codec.hh"
#include "nsrf/snapshot/snapshot.hh"
#include "replay.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

using nsrf::sim::RunResult;
using nsrf::sim::SweepCell;

/** Set-ups timed per run; the median is reported. */
constexpr int kSetups = 3;
/** Fewest requests a run times, however long each takes. */
constexpr int kMinRequests = 3;
/**
 * How far the traced parts of paper_sweep may sum from jobs x
 * SweepRunner::run's wall time before the parts-sum check reports
 * FAIL.  The replay is not the runner, so they agree only this far.
 */
constexpr double kPartsTolerance = 0.10;

/** Per-cell encodings, for cell-by-cell comparison. */
std::vector<std::string>
encodings(const std::vector<RunResult> &results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const auto &result : results)
        out.push_back(nsrf::serve::encodeRunResult(result));
    return out;
}

/** Count cells of @p results that differ from @p reference. */
void
compareCells(Report &report, const std::vector<std::string> &reference,
             const std::vector<RunResult> &results, const char *what)
{
    std::vector<std::string> got = encodings(results);
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i >= reference.size() || got[i] != reference[i])
            ++wrong;
    }
    report.counts.attempted += got.size();
    report.counts.succeeded += got.size() - wrong;
    report.counts.wrong += wrong;
    if (wrong)
        report.fail(std::to_string(wrong) + " cells of " + what +
                    " differ from the first warm-up sweep");
}

/**
 * The pinned-digest gate on the canonical paper cells, plus a
 * lane-versus-solo cross-check on a seed-chosen sample of this run's
 * cells (a solo run takes the simulator's other code path).
 */
void
paperGate(Report &report, const Options &options,
          const std::vector<SweepCell> &cells,
          const std::vector<std::string> &reference)
{
    std::string digest = canonicalPaperDigest(options.jobs);
    ++report.counts.attempted;
    if (digest == kPinnedPaperDigest) {
        ++report.counts.succeeded;
    } else {
        ++report.counts.wrong;
        report.fail("canonical paper cells digest " + digest +
                    " != pinned " + kPinnedPaperDigest);
    }

    for (int k = 0; k < 8; ++k) {
        std::size_t i = mixSeed(options.seed, 0x501 + k) % cells.size();
        auto gen = cells[i].makeGenerator();
        RunResult solo = nsrf::sim::runTrace(cells[i].config, *gen);
        ++report.counts.attempted;
        if (nsrf::serve::encodeRunResult(solo) == reference[i]) {
            ++report.counts.succeeded;
        } else {
            ++report.counts.wrong;
            report.fail("cell " + cells[i].label +
                        " run solo differs from its lane in the sweep");
        }
    }
}

/** @p work per @p seconds, 0 when nothing was timed. */
double
perSecond(double work, double seconds)
{
    return seconds > 0 ? work / seconds : 0;
}

std::uint64_t
stepsOf(const std::vector<RunResult> &results)
{
    std::uint64_t steps = 0;
    for (const auto &result : results)
        steps += result.instructions;
    return steps;
}

/** Tracing overhead: traced minus untraced end-to-end numbers. */
void
setTraceOverhead(Report &report, const std::vector<double> &untraced_ms,
                 const std::vector<double> &traced_ms, double work)
{
    double untraced = median(untraced_ms);
    double traced = median(traced_ms);
    report.set("trace.overhead_req_p50_ms", traced - untraced);
    report.set("trace.overhead_work_per_s",
               perSecond(work, traced * 1e-3) -
                   perSecond(work, untraced * 1e-3));
}

} // namespace

Report
runPaperSweep(const Options &options)
{
    Report report;
    // Set-up, timed kSetups times: expand the figure benches' cells,
    // partition them into the units the pool claims, and run one
    // warm-up sweep, whose results every later sweep must repeat.
    nsrf::sim::SweepRunner runner(options.jobs);
    std::vector<double> setup_s;
    std::vector<SweepCell> cells;
    std::vector<std::string> reference;
    std::uint64_t steps = 0;
    std::size_t units = 0;
    for (int s = 0; s < kSetups; ++s) {
        double t0 = nowSeconds();
        cells = cellsFromSpecs(paperCellSpecs(options.seed,
                                              kPaperScaleDown));
        units = nsrf::sim::partitionSweepUnits(cells, options.jobs).size();
        std::vector<RunResult> results = runner.run(cells);
        setup_s.push_back(nowSeconds() - t0);
        if (reference.empty()) {
            reference = encodings(results);
            steps = stepsOf(results);
        }
        compareCells(report, reference, results, "a warm-up sweep");
    }
    report.note("cells", std::to_string(cells.size()));
    report.note("units", std::to_string(units));
    report.note("jobs", std::to_string(options.jobs));
    report.note("budget_scale", "1/" + std::to_string(kPaperScaleDown));

    // The traced run alternates an untraced sweep with a traced
    // replay of it, so both see the same host conditions.
    std::vector<double> latency_ms, replay_ms;
    std::vector<Replay> replays;
    double deadline = nowSeconds() + options.seconds;
    while (latency_ms.size() < kMinRequests || nowSeconds() < deadline) {
        double t0 = nowSeconds();
        std::vector<RunResult> results = runner.run(cells);
        latency_ms.push_back((nowSeconds() - t0) * 1e3);
        compareCells(report, reference, results, "a timed sweep");
        if (!options.trace)
            continue;
        spans::setEnabled(true);
        replays.push_back(replaySweep(cells, options.jobs));
        spans::setEnabled(false);
        replay_ms.push_back(replays.back().wallS * 1e3);
        compareCells(report, reference, replays.back().results,
                     "a traced replay");
        replays.back().results.clear();
    }
    report.note("steps_per_sweep", std::to_string(steps));
    report.note("samples", std::to_string(latency_ms.size()));
    paperGate(report, options, cells, reference);

    double p50_s = median(latency_ms) * 1e-3;
    if (!options.trace) {
        setEndToEnd(report, latency_ms, perSecond(1, p50_s),
                    perSecond(double(steps), p50_s), setup_s, peakRssMb());
        return report;
    }
    std::sort(replays.begin(), replays.end(),
              [](const Replay &a, const Replay &b) {
                  return a.wallS < b.wallS;
              });
    setSimLayers(report, replays[replays.size() / 2], p50_s);
    double error = report.get("sim.parts_sum_error");
    report.note("parts_sum_check",
                std::string(error <= kPartsTolerance ? "pass" : "FAIL") +
                    " (|error| " + std::to_string(error) +
                    " vs tolerance " + std::to_string(kPartsTolerance) +
                    ")");
    setTraceOverhead(report, latency_ms, replay_ms, double(steps));
    return report;
}

namespace
{

/** What one search did. */
struct Search
{
    bool ok = false;
    std::string why;
    std::string json;
    std::size_t points = 0;
    double seconds = 0;
    double evaluateS = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t stepsCovered = 0; //!< sum of evaluated cells' caps
    nsrf::snapshot::PrefixSweepStats prefix;
};

/**
 * One search from an empty cache.  @p prefix false evaluates every
 * cell cold (the reference path).
 */
Search
search(const nsrf::explore::ExploreOptions &options, unsigned jobs,
       bool prefix)
{
    Search out;
    nsrf::serve::ResultCache cache(nsrf::serve::ResultCacheConfig{});
    nsrf::explore::CellEvaluator inner = nsrf::explore::makeOfflineEvaluator(
        &cache, jobs, prefix ? options.budgets.front() : 0, &out.prefix);
    std::uint64_t request = spans::newRequest();
    nsrf::explore::CellEvaluator evaluate =
        [&](const std::vector<nsrf::serve::CellParams> &batch,
            std::vector<nsrf::explore::SimScore> *scores,
            std::string *why) {
            spans::Scope span("explore.evaluate", request);
            double t0 = nowSeconds();
            bool ok = inner(batch, scores, why);
            out.evaluateS += nowSeconds() - t0;
            out.evaluations += batch.size();
            for (const auto &params : batch)
                out.stepsCovered += params.cap;
            return ok;
        };
    nsrf::explore::ExploreReport result;
    double t0 = nowSeconds();
    {
        spans::Scope span("explore.search", request);
        out.ok = nsrf::explore::runExploration(options, evaluate, &result,
                                               &out.why);
    }
    out.seconds = nowSeconds() - t0;
    out.points = result.points.size();
    if (out.ok)
        out.json = nsrf::explore::reportJson(result);
    return out;
}

/**
 * Time saveSimulator/restoreSimulator on a seed-chosen sample of the
 * lattice's cells, each snapshotted at the prefix the search uses.
 */
void
probeSnapshots(Report &report, const nsrf::explore::ExploreOptions &options,
               std::uint64_t seed)
{
    std::vector<SweepCell> cells = exploreRungCells(options);
    std::vector<double> save_ms, restore_ms, bytes;
    for (int k = 0; k < 8; ++k) {
        const SweepCell &cell = cells[mixSeed(seed, 0x5a7e + k) % cells.size()];
        auto gen = cell.makeGenerator();
        nsrf::sim::TraceSimulator sim(cell.config);
        sim.beginRun();
        std::vector<nsrf::sim::TraceEvent> chunk(
            nsrf::sim::SweepRunner::kDefaultLaneChunk);
        while (!sim.runDone()) {
            std::size_t n = gen->fill(chunk.data(), chunk.size());
            if (n == 0 || !sim.stepRun(chunk.data(), n))
                break;
        }
        nsrf::serve::Fingerprint identity =
            nsrf::snapshot::simulatorIdentity(cell.config, cell.provenance);
        double t0 = nowSeconds();
        std::string blob = nsrf::snapshot::saveSimulator(sim, identity);
        save_ms.push_back((nowSeconds() - t0) * 1e3);
        bytes.push_back(double(blob.size()));

        nsrf::sim::TraceSimulator fresh(cell.config);
        fresh.beginRun();
        std::string why;
        t0 = nowSeconds();
        bool ok = nsrf::snapshot::restoreSimulator(blob, identity, &fresh,
                                                   &why);
        restore_ms.push_back((nowSeconds() - t0) * 1e3);
        if (!ok)
            report.fail("snapshot restore failed: " + why);
    }
    report.set("snapshot.save_ms", median(save_ms));
    report.set("snapshot.restore_ms", median(restore_ms));
    report.set("snapshot.bytes", median(bytes));
}

} // namespace

Report
runExplorePrefix(const Options &options)
{
    Report report;
    nsrf::explore::ExploreOptions explore = exploreOptions(options.seed);
    std::string reference;
    // Set-up, timed kSetups times: enumerate the lattice, expand every
    // point's cell, and run one warm-up search, whose frontier every
    // later search must repeat.
    std::vector<double> setup_s;
    std::size_t points = 0;
    for (int s = 0; s < kSetups; ++s) {
        double t0 = nowSeconds();
        points = exploreRungCells(explore).size();
        Search warmup = search(explore, options.jobs, true);
        setup_s.push_back(nowSeconds() - t0);
        report.counts.attempted += warmup.points;
        if (reference.empty())
            reference = warmup.json;
        if (!warmup.ok || warmup.json != reference) {
            report.counts.wrong += warmup.points;
            report.fail("a warm-up search failed or differs: " + warmup.why);
        } else {
            report.counts.succeeded += warmup.points;
        }
    }
    report.note("points", std::to_string(points));
    report.note("jobs", std::to_string(options.jobs));
    report.note("events", std::to_string(explore.lattice.events));

    // The traced run alternates an untraced search with a traced one,
    // so both see the same host conditions.
    std::vector<double> latency_ms, traced_ms;
    std::vector<Search> traced;
    double deadline = nowSeconds() + options.seconds;
    while (latency_ms.size() < kMinRequests || nowSeconds() < deadline) {
        for (bool spanned : {false, true}) {
            if (spanned && !options.trace)
                continue;
            spans::setEnabled(spanned);
            Search s = search(explore, options.jobs, true);
            spans::setEnabled(false);
            report.counts.attempted += s.points;
            if (!s.ok) {
                report.counts.errored += s.points;
                report.fail("a search failed: " + s.why);
                continue;
            }
            if (s.json != reference) {
                report.counts.wrong += s.points;
                report.fail("a search's frontier differs from the "
                            "warm-up's");
                continue;
            }
            report.counts.succeeded += s.points;
            (spanned ? traced_ms : latency_ms).push_back(s.seconds * 1e3);
            if (spanned)
                traced.push_back(s);
        }
    }
    report.note("samples", std::to_string(latency_ms.size()));

    // Gate: the canonical lattice's frontier is pinned, and this
    // run's frontier is the one the cold (no prefix) path finds.
    std::string digest = canonicalFrontierDigest(options.jobs);
    ++report.counts.attempted;
    if (digest == kPinnedFrontierDigest) {
        ++report.counts.succeeded;
    } else {
        ++report.counts.wrong;
        report.fail("canonical frontier digest " + digest + " != pinned " +
                    kPinnedFrontierDigest);
    }
    Search cold = search(explore, options.jobs, false);
    ++report.counts.attempted;
    if (cold.ok && cold.json == reference) {
        ++report.counts.succeeded;
    } else {
        ++report.counts.wrong;
        report.fail("the frontier without prefix restore differs");
    }

    double p50_s = median(latency_ms) * 1e-3;
    if (!options.trace) {
        setEndToEnd(report, latency_ms, perSecond(1, p50_s),
                    perSecond(double(points), p50_s), setup_s, peakRssMb());
        return report;
    }

    if (traced.empty())
        return report;
    std::sort(traced.begin(), traced.end(),
              [](const Search &a, const Search &b) {
                  return a.seconds < b.seconds;
              });
    const Search &mid = traced[traced.size() / 2];
    setTraceOverhead(report, latency_ms, traced_ms, double(points));
    report.set("explore.evaluate_s", mid.evaluateS);
    report.set("explore.self_s", mid.seconds - mid.evaluateS);
    report.set("explore.evaluations", double(mid.evaluations));
    report.set("snapshot.captured", double(mid.prefix.prefixCaptured));
    report.set("snapshot.restored", double(mid.prefix.prefixRestored));
    report.set("snapshot.steps_skipped", double(mid.prefix.stepsSkipped));
    report.set("snapshot.skip_ratio",
               mid.stepsCovered ? double(mid.prefix.stepsSkipped) /
                                      double(mid.stepsCovered)
                                : 0.0);
    probeSnapshots(report, explore, options.seed);

    // The simulator layers on the triage rung's cells.
    probeSimLayers(report, exploreRungCells(explore), options.jobs);
    return report;
}

} // namespace perfbench
