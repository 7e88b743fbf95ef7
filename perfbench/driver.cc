/**
 * @file
 * perfbench_driver: runs one workload of the benchmark and prints
 * one JSON line (perfbench/run.py is the user-facing command).
 *
 *   perfbench_driver --workload paper_sweep --seed 1 --seconds 10 \
 *       --trace 0 --jobs 4 --serve-bin PATH --out-dir DIR
 *   perfbench_driver --self-test     # the correctness gate fails
 *                                    # on perturbed results
 *   perfbench_driver --print-pins    # digests to pin in gate.cc
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"
#include "gate.hh"
#include "nsrf/common/simd.hh"
#include "spans.hh"

using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printReport(const Options &options, const Report &report)
{
    const Counts &c = report.counts;
    std::printf("{\"workload\":%s,\"correct\":%s,",
                jsonString(options.workload).c_str(),
                report.correct ? "true" : "false");
    std::printf("\"counts\":{\"attempted\":%llu,\"succeeded\":%llu,"
                "\"rejected\":%llu,\"timed_out\":%llu,\"errored\":%llu,"
                "\"wrong\":%llu},",
                (unsigned long long)c.attempted,
                (unsigned long long)c.succeeded,
                (unsigned long long)c.rejected,
                (unsigned long long)c.timedOut,
                (unsigned long long)c.errored, (unsigned long long)c.wrong);
    std::printf("\"metrics\":{");
    for (std::size_t i = 0; i < report.metrics.size(); ++i)
        std::printf("%s%s:%.17g", i ? "," : "",
                    jsonString(report.metrics[i].first).c_str(),
                    report.metrics[i].second);
    std::printf("},\"meta\":{");
    for (std::size_t i = 0; i < report.meta.size(); ++i)
        std::printf("%s%s:%s", i ? "," : "",
                    jsonString(report.meta[i].first).c_str(),
                    jsonString(report.meta[i].second).c_str());
    std::printf("},\"notes\":[");
    for (std::size_t i = 0; i < report.notes.size(); ++i)
        std::printf("%s%s", i ? "," : "",
                    jsonString(report.notes[i]).c_str());
    std::printf("]}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "         [--jobs N] [--serve-bin PATH] [--out-dir DIR]\n"
                 "       perfbench_driver --self-test | --print-pins\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.jobs = unsigned(sysconf(_SC_NPROCESSORS_ONLN));
    options.outDir = ".bench_out";
    enum class Mode { Run, SelfTest, Pins } mode = Mode::Run;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            options.trace = value() != "0";
        else if (arg == "--jobs")
            options.jobs = unsigned(std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--serve-bin")
            options.serveBinary = value();
        else if (arg == "--out-dir")
            options.outDir = value();
        else if (arg == "--self-test")
            mode = Mode::SelfTest;
        else if (arg == "--print-pins")
            mode = Mode::Pins;
        else
            return usage();
    }
    if (options.jobs == 0)
        options.jobs = 1;

    if (mode == Mode::SelfTest)
        return selfTest(options.jobs);
    if (mode == Mode::Pins) {
        std::printf("paper %s\n", canonicalPaperDigest(options.jobs).c_str());
        std::printf("frontier %s\n",
                    canonicalFrontierDigest(options.jobs).c_str());
        return 0;
    }

    if (options.seconds <= 0)
        return usage();
    ::mkdir(options.outDir.c_str(), 0755);
    Report report;
    if (options.workload == "paper_sweep")
        report = runPaperSweep(options);
    else if (options.workload == "explore_prefix")
        report = runExplorePrefix(options);
    else if (options.workload == "serve_hot")
        report = runServeHot(options);
    else if (options.workload == "serve_cold")
        report = runServeCold(options);
    else
        return usage();

    report.note("seed", std::to_string(options.seed));
    report.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    report.note("simd", nsrf::simdLevelName(nsrf::activeSimdLevel()));
    report.note("build_type", PERFBENCH_BUILD_TYPE);
    if (options.trace) {
        std::string path =
            options.outDir + "/" + options.workload + ".spans.json";
        report.set("trace.spans", double(spans::recorded()));
        if (!spans::write(path))
            report.fail("cannot write " + path);
        report.note("spans_file", path);
    }
    printReport(options, report);
    return 0;
}
