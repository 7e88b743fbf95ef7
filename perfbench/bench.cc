#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

namespace perfbench
{

void
Report::set(const std::string &name, double value)
{
    for (auto &metric : metrics) {
        if (metric.first == name) {
            metric.second = value;
            return;
        }
    }
    metrics.emplace_back(name, value);
}

double
Report::get(const std::string &name) const
{
    for (const auto &metric : metrics) {
        if (metric.first == name)
            return metric.second;
    }
    return 0;
}

void
Report::note(const std::string &key, const std::string &value)
{
    meta.emplace_back(key, value);
}

void
Report::fail(const std::string &why)
{
    correct = false;
    notes.push_back(why);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb(int pid)
{
    std::string path = pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                               : "/proc/self/status";
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

void
setEndToEnd(Report &report, const std::vector<double> &latencies_ms,
            double req_per_s, double work_per_s,
            const std::vector<double> &setup_s, double rss_mb)
{
    report.set("req_p50_ms", quantile(latencies_ms, 0.5));
    report.set("req_p90_ms", quantile(latencies_ms, 0.9));
    report.set("req_per_s", req_per_s);
    report.set("work_per_s", work_per_s);
    const Counts &c = report.counts;
    report.set("ok_share", c.attempted ? double(c.succeeded) /
                                             double(c.attempted)
                                       : 0.0);
    report.set("setup_s", median(setup_s));
    report.set("peak_rss_mb", rss_mb);
}

} // namespace perfbench
