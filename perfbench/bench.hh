/**
 * @file
 * Shared vocabulary of the benchmark driver: run options, failure
 * accounting, the per-run report, and the sample statistics every
 * workload uses.
 *
 * Every time here is host time (steady_clock).  "Steps" are simulated
 * trace events; they are counted, never timed, by the simulator.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** What one driver invocation runs. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Worker threads / simulation jobs (the host's core count). */
    unsigned jobs = 1;
    /** The nsrf_serve binary the serve workloads talk to. */
    std::string serveBinary;
    /** Where sockets, daemon logs and span files go. */
    std::string outDir;
};

/**
 * Failure accounting: per request on the serve workloads, per cell
 * (lattice point on the explorer) on the sweep workloads.  A unit
 * lands in exactly one bucket.
 */
struct Counts
{
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t errored = 0;
    std::uint64_t wrong = 0;

    std::uint64_t
    failed() const
    {
        return rejected + timedOut + errored + wrong;
    }
};

/** Everything one run reports. */
struct Report
{
    bool correct = true;
    Counts counts;
    /** Metric name -> value, in the order set. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Run metadata (connections, cells, input size, ...). */
    std::vector<std::pair<std::string, std::string>> meta;
    /** Why the correctness gate failed, one line each. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value);
    double get(const std::string &name) const;
    void note(const std::string &key, const std::string &value);
    /** Fail the correctness gate with a reason. */
    void fail(const std::string &why);
};

/** @return monotonic host time in seconds. */
double nowSeconds();

/** Linear-interpolated quantile @p q in [0,1] of @p v (0 if empty). */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** SplitMix64 step: derive independent sub-seeds from one seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** @return this process's peak resident set in MiB (VmHWM). */
double peakRssMb(int pid = 0);

/**
 * Fill the end-to-end metrics shared by every workload from the
 * request latencies of the timed window.  A request is what a caller
 * waits for: one sweep, one exploration, or one submit.
 *
 * @param latencies_ms   one entry per completed request
 * @param req_per_s      completed requests per host second
 * @param work_per_s     the workload's work rate (see README.md)
 * @param setup_s        one entry per repeated set-up
 * @param rss_mb         peak RSS of the process doing the work
 */
void setEndToEnd(Report &report, const std::vector<double> &latencies_ms,
                 double req_per_s, double work_per_s,
                 const std::vector<double> &setup_s, double rss_mb);

Report runPaperSweep(const Options &options);
Report runExplorePrefix(const Options &options);
Report runServeHot(const Options &options);
Report runServeCold(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
