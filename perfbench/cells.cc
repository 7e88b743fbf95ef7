#include "cells.hh"

#include <cstdio>
#include <cstdlib>

#include "bench.hh"
#include "nsrf/serve/json_in.hh"
#include "nsrf/serve/spec.hh"
#include "nsrf/workload/profile.hh"

namespace perfbench
{

namespace
{

/** Workload seed for @p app under benchmark seed @p seed (0 = own). */
std::uint64_t
appSeed(std::uint64_t seed, std::size_t app_index)
{
    if (seed == 0)
        return 0;
    // Never 0: 0 would mean "the profile's own seed".
    return (mixSeed(seed, 0x5eed0000 + app_index) >> 1) | 1;
}

std::string
specText(const nsrf::workload::BenchmarkProfile &profile,
         std::uint64_t seed, std::size_t app_index, const char *org,
         unsigned regs, unsigned line, const char *miss,
         const char *mech, bool background, std::uint64_t events)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"app\":\"%s\",\"org\":\"%s\",\"regs\":%u,"
                  "\"line\":%u,\"miss\":\"%s\",\"mech\":\"%s\","
                  "\"bg\":%s,\"events\":%llu,\"seed\":%llu}",
                  profile.name.c_str(), org, regs, line, miss, mech,
                  background ? "true" : "false",
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(
                      appSeed(seed, app_index)));
    return buf;
}

} // namespace

const std::vector<std::string> &
appNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &profile : nsrf::workload::paperBenchmarks())
            out.push_back(profile.name);
        return out;
    }();
    return names;
}

std::vector<std::string>
paperCellSpecs(std::uint64_t seed, std::uint64_t scale_down)
{
    const auto &profiles = nsrf::workload::paperBenchmarks();
    auto index_of = [&](const std::string &name) {
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            if (profiles[i].name == name)
                return i;
        }
        std::fprintf(stderr, "perfbench: no workload %s\n",
                     name.c_str());
        std::exit(2);
    };
    auto paper_regs = [](const nsrf::workload::BenchmarkProfile &p) {
        return p.parallel ? 128u : 80u;
    };
    std::vector<std::string> specs;
    auto add = [&](const std::string &app, const char *org,
                   unsigned regs, unsigned line, const char *miss,
                   const char *mech, bool background,
                   std::uint64_t budget) {
        std::size_t i = index_of(app);
        specs.push_back(specText(profiles[i], seed, i, org,
                                 regs ? regs : paper_regs(profiles[i]),
                                 line, miss, mech, background,
                                 budget / scale_down));
    };

    // fig09_utilization and fig10_reload_traffic: NSF vs segmented
    // on every workload at the paper's file size.
    for (int bench = 0; bench < 2; ++bench) {
        for (const auto &p : profiles) {
            add(p.name, "nsf", 0, 1, "single", "hw", false, 600'000);
            add(p.name, "segmented", 0, 1, "single", "hw", false,
                600'000);
        }
    }
    // fig11_resident_contexts and fig12_reload_vs_size: file size
    // in frames, 2..10, on one sequential and one parallel workload.
    for (int bench = 0; bench < 2; ++bench) {
        for (const char *name : {"GateSim", "Gamteb"}) {
            const auto &p = profiles[index_of(name)];
            for (unsigned frames = 2; frames <= 10; ++frames) {
                unsigned regs = frames * p.regsPerContext;
                add(name, "nsf", regs, 1, "single", "hw", false,
                    300'000);
                add(name, "segmented", regs, 1, "single", "hw", false,
                    300'000);
            }
        }
    }
    // fig13_line_size: line size x miss strategy, both suites.
    for (bool parallel : {false, true}) {
        for (unsigned line : {1u, 2u, 4u, 8u, 16u, 32u}) {
            if (!parallel && line > 16)
                continue;
            for (const char *miss : {"line", "live", "single"}) {
                for (const auto &p : profiles) {
                    if (p.parallel == parallel)
                        add(p.name, "nsf", 0, line, miss, "hw", false,
                            250'000);
                }
            }
        }
    }
    // fig14_overhead: NSF, segmented with hardware assist, segmented
    // with software traps.
    for (const auto &p : profiles) {
        add(p.name, "nsf", 0, 1, "single", "hw", false, 400'000);
        add(p.name, "segmented", 0, 1, "single", "hw", false, 400'000);
        add(p.name, "segmented", 0, 1, "single", "sw", false, 400'000);
    }
    // compare_organizations: every organization head to head.
    for (const char *name : {"GateSim", "Gamteb"}) {
        add(name, "nsf", 0, 1, "single", "hw", false, 300'000);
        add(name, "segmented", 0, 1, "single", "hw", false, 300'000);
        add(name, "segmented", 0, 1, "single", "hw", true, 300'000);
        add(name, "windowed", 0, 1, "single", "hw", false, 300'000);
        add(name, "conventional", 0, 1, "single", "hw", false, 300'000);
    }
    return specs;
}

std::vector<nsrf::sim::SweepCell>
cellsFromSpecs(const std::vector<std::string> &specs)
{
    std::vector<nsrf::sim::SweepCell> cells;
    cells.reserve(specs.size());
    for (const std::string &spec : specs) {
        nsrf::serve::json::Value value;
        nsrf::serve::CellParams params;
        std::vector<nsrf::sim::SweepCell> expanded;
        std::string why;
        if (!nsrf::serve::json::parse(spec, &value, &why) ||
            !nsrf::serve::paramsFromJson(value, &params, &why) ||
            !nsrf::serve::cellsFromParams(params, &expanded, &why)) {
            std::fprintf(stderr, "perfbench: bad cell spec %s: %s\n",
                         spec.c_str(), why.c_str());
            std::exit(2);
        }
        for (auto &cell : expanded)
            cells.push_back(std::move(cell));
    }
    return cells;
}

nsrf::explore::ExploreOptions
exploreOptions(std::uint64_t seed)
{
    nsrf::explore::ExploreOptions options;
    auto &lattice = options.lattice;
    lattice.app = "Quicksort";
    lattice.events = seed == 0 ? 8'000 : 240'000;
    lattice.seed = appSeed(seed, 0);
    lattice.orgs = {"nsf", "segmented"};
    lattice.totalRegs = {32, 64, 96, 128};
    lattice.regsPerLine = {1, 2, 4};
    lattice.missPolicies = {"line", "live"};
    lattice.writePolicies = {"wa", "fow"};
    options.budgets = {lattice.events / 4, lattice.events};
    options.keepFraction = 0.5;
    return options;
}

std::vector<nsrf::sim::SweepCell>
exploreRungCells(const nsrf::explore::ExploreOptions &options)
{
    std::vector<nsrf::explore::LatticePoint> points;
    nsrf::explore::LatticeStats stats;
    std::string why;
    if (!nsrf::explore::enumerateLattice(options.lattice, &points,
                                         &stats, &why)) {
        std::fprintf(stderr, "perfbench: bad lattice: %s\n",
                     why.c_str());
        std::exit(2);
    }
    std::vector<nsrf::sim::SweepCell> cells;
    for (auto &point : points) {
        nsrf::serve::CellParams params = point.params;
        params.cap = options.budgets.front();
        std::vector<nsrf::sim::SweepCell> expanded;
        if (!nsrf::serve::cellsFromParams(params, &expanded, &why)) {
            std::fprintf(stderr, "perfbench: bad point: %s\n",
                         why.c_str());
            std::exit(2);
        }
        for (auto &cell : expanded)
            cells.push_back(std::move(cell));
    }
    return cells;
}

std::string
cellSpec(const std::string &app, const std::string &org, unsigned regs,
         std::uint64_t events, std::uint64_t seed)
{
    char regs_member[32] = "";
    if (regs != 0)
        std::snprintf(regs_member, sizeof regs_member, "\"regs\":%u,",
                      regs);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"app\":\"%s\",\"org\":\"%s\",%s"
                  "\"events\":%llu,\"seed\":%llu}",
                  app.c_str(), org.c_str(), regs_member,
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(seed));
    return buf;
}

std::string
submitLine(const std::vector<std::string> &specs)
{
    std::string line = "{\"op\":\"submit\",\"cells\":[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i)
            line += ',';
        line += specs[i];
    }
    line += "]}";
    return line;
}

} // namespace perfbench
