#include "replay.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>

#include "bench.hh"
#include "gate.hh"
#include "spans.hh"

namespace perfbench
{

using nsrf::sim::SweepCell;
using nsrf::sim::TraceEvent;
using nsrf::sim::TraceSimulator;

Replay
replaySweep(const std::vector<SweepCell> &cells, unsigned jobs)
{
    Replay replay;
    replay.results.resize(cells.size());
    replay.cells = cells.size();
    replay.jobs = jobs;
    std::vector<std::vector<std::size_t>> units =
        nsrf::sim::partitionSweepUnits(cells, jobs);
    replay.units = units.size();

    const std::size_t chunk_capacity =
        nsrf::sim::SweepRunner::kDefaultLaneChunk;
    std::mutex totals_mutex;
    std::uint64_t request = spans::newRequest();
    double start = nowSeconds();
    {
        spans::Scope root("sim.replay", request);
        std::uint32_t root_id = root.id();
        nsrf::sim::parallelFor(jobs, units.size(), [&](std::size_t u) {
            const std::vector<std::size_t> &lanes = units[u];
            spans::Scope unit("sim.unit", request, root_id);
            std::unique_ptr<nsrf::sim::TraceGenerator> gen;
            std::vector<std::unique_ptr<TraceSimulator>> sims;
            {
                spans::Scope begin("sim.begin", request);
                gen = cells[lanes.front()].makeGenerator();
                for (std::size_t i : lanes) {
                    sims.push_back(std::make_unique<TraceSimulator>(
                        cells[i].config));
                    sims.back()->beginRun();
                }
            }
            std::vector<TraceEvent> chunk(chunk_capacity);
            std::uint64_t events = 0;
            bool live = true;
            while (live) {
                std::size_t n = 0;
                {
                    spans::Scope fill("workload.fill", request);
                    n = gen->fill(chunk.data(), chunk_capacity);
                }
                if (n == 0)
                    break;
                events += n;
                spans::Scope step("sim.step", request);
                live = false;
                for (std::size_t s = 0; s < sims.size(); ++s) {
                    if (s + 1 < sims.size())
                        sims[s + 1]->prefetchFor(chunk.data(), n);
                    bool more = sims[s]->stepRun(chunk.data(), n);
                    live = live || more;
                }
            }
            Replay part;
            part.events = events;
            {
                spans::Scope finish("sim.finish", request);
                for (std::size_t k = 0; k < lanes.size(); ++k) {
                    part.steps += sims[k]->eventsConsumed();
                    replay.results[lanes[k]] = sims[k]->finishRun();
                    part.instructions +=
                        replay.results[lanes[k]].instructions;
                }
            }
            for (const auto &sim : sims) {
                const auto &rf = sim->registerFile().stats();
                part.rfAccesses += rf.accesses();
                part.rfMisses += rf.misses();
                part.rfSpills += rf.regsSpilled.value();
                part.rfReloads += rf.regsReloaded.value();
                part.rfLineEvictions += rf.lineEvictions.value();
                if (const auto *cache = sim->memorySystem().cache()) {
                    part.cacheAccesses += cache->stats().accesses.value();
                    part.cacheMisses += cache->stats().misses.value();
                }
            }
            std::lock_guard<std::mutex> lock(totals_mutex);
            replay.events += part.events;
            replay.steps += part.steps;
            replay.instructions += part.instructions;
            replay.rfAccesses += part.rfAccesses;
            replay.rfMisses += part.rfMisses;
            replay.rfSpills += part.rfSpills;
            replay.rfReloads += part.rfReloads;
            replay.rfLineEvictions += part.rfLineEvictions;
            replay.cacheAccesses += part.cacheAccesses;
            replay.cacheMisses += part.cacheMisses;
        });
    }
    replay.wallS = nowSeconds() - start;

    std::vector<spans::Layer> layers = spans::summarize(request);
    replay.fillS = spans::find(layers, "workload.fill").totalS;
    replay.stepS = spans::find(layers, "sim.step").totalS;
    replay.finishS = spans::find(layers, "sim.finish").totalS;
    replay.beginS = spans::find(layers, "sim.begin").totalS;
    replay.unitS = spans::find(layers, "sim.unit").totalS;
    return replay;
}

void
setSimLayers(Report &report, const Replay &replay, double sweep_s)
{
    auto ratio = [](double num, double den) {
        return den == 0 ? 0.0 : num / den;
    };
    report.set("workload.fill_s", replay.fillS);
    report.set("workload.events", double(replay.events));
    report.set("workload.ns_per_event",
               ratio(replay.fillS * 1e9, double(replay.events)));
    // work_per_s counts RunResult::instructions because the untraced
    // runs see only results; it is the step count only while every
    // consumed trace event is one instruction, so check that here.
    if (replay.steps != replay.instructions)
        report.fail("events consumed (" + std::to_string(replay.steps) +
                    ") differ from RunResult::instructions (" +
                    std::to_string(replay.instructions) + ")");
    report.set("sim.step_s", replay.stepS);
    report.set("sim.steps", double(replay.steps));
    report.set("sim.ns_per_step",
               ratio(replay.stepS * 1e9, double(replay.steps)));
    report.set("sim.decode_share",
               ratio(replay.fillS, replay.fillS + replay.stepS));
    report.set("sim.sweep_s", sweep_s);
    report.set("sim.units", double(replay.units));
    report.set("sim.lanes_per_decode",
               ratio(double(replay.cells), double(replay.units)));
    report.set("sim.pool_efficiency",
               ratio(replay.unitS, replay.jobs * sweep_s));
    report.set("regfile.accesses", double(replay.rfAccesses));
    report.set("regfile.miss_ratio",
               ratio(double(replay.rfMisses), double(replay.rfAccesses)));
    report.set("regfile.spills", double(replay.rfSpills));
    report.set("regfile.reloads", double(replay.rfReloads));
    report.set("regfile.line_evictions", double(replay.rfLineEvictions));
    report.set("regfile.ns_per_access",
               ratio(replay.stepS * 1e9, double(replay.rfAccesses)));
    report.set("mem.cache_accesses", double(replay.cacheAccesses));
    report.set("mem.cache_miss_ratio",
               ratio(double(replay.cacheMisses),
                     double(replay.cacheAccesses)));

    // The parts: decode + step + finish + construction, plus the
    // pool overhead, against jobs x the runner's wall time.  Pool
    // overhead is the replay's idle worker time (jobs x replay wall
    // minus busy unit time), so the sum equals jobs x replay wall
    // exactly when the named parts cover each unit's time.  The error
    // is therefore uncovered unit time plus the gap between replay
    // and runner wall time; either sign is a miss, so it is |error|.
    double pool_overhead = replay.jobs * replay.wallS - replay.unitS;
    double parts = replay.fillS + replay.stepS + replay.finishS +
                   replay.beginS + pool_overhead;
    double whole = replay.jobs * sweep_s;
    report.set("sim.pool_overhead_s", pool_overhead);
    report.set("sim.parts_sum_error", std::abs(ratio(parts - whole, whole)));
}

void
probeSimLayers(Report &report, const std::vector<SweepCell> &cells,
               unsigned jobs)
{
    std::vector<double> sweep_s;
    std::vector<Replay> replays;
    for (int pair = 0; pair < 5; ++pair) {
        double t0 = nowSeconds();
        std::string digest =
            resultsDigest(nsrf::sim::SweepRunner(jobs).run(cells));
        sweep_s.push_back(nowSeconds() - t0);
        spans::setEnabled(true);
        replays.push_back(replaySweep(cells, jobs));
        spans::setEnabled(false);
        if (resultsDigest(replays.back().results) != digest)
            report.fail("the traced replay disagrees with SweepRunner");
    }
    std::sort(replays.begin(), replays.end(),
              [](const Replay &a, const Replay &b) {
                  return a.wallS < b.wallS;
              });
    setSimLayers(report, replays[replays.size() / 2], median(sweep_s));
}

} // namespace perfbench
