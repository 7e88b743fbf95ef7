#include "gate.hh"

#include <cmath>
#include <cstdio>

#include "cells.hh"
#include "nsrf/explore/search.hh"
#include "nsrf/serve/cache.hh"
#include "nsrf/serve/codec.hh"
#include "nsrf/serve/fingerprint.hh"
#include "nsrf/serve/scheduler.hh"
#include "nsrf/serve/server.hh"
#include "nsrf/stats/json.hh"

namespace perfbench
{

// Pinned from this tree; a change to any simulated statistic of the
// paper cells or to the explorer's ranking changes them.
const char *const kPinnedPaperDigest = "95d5e4cc27398b64dde4ea8f39d6ab6f";
const char *const kPinnedFrontierDigest = "afa1452d33b637f5523c72034e788dba";

std::string
resultsDigest(const std::vector<nsrf::sim::RunResult> &results)
{
    std::string all;
    for (const auto &result : results)
        all += nsrf::serve::encodeRunResult(result);
    return nsrf::serve::hashString(all).hex();
}

std::string
canonicalPaperDigest(unsigned jobs)
{
    return resultsDigest(nsrf::sim::SweepRunner(jobs).run(
        cellsFromSpecs(paperCellSpecs(0, kGateScaleDown))));
}

std::string
canonicalFrontierDigest(unsigned jobs)
{
    nsrf::explore::ExploreOptions options = exploreOptions(0);
    nsrf::serve::ResultCache cache(nsrf::serve::ResultCacheConfig{});
    nsrf::explore::ExploreReport report;
    std::string why;
    if (!nsrf::explore::runExploration(
            options,
            nsrf::explore::makeOfflineEvaluator(&cache, jobs,
                                                options.budgets.front()),
            &report, &why))
        return "search failed: " + why;
    return textDigest(nsrf::explore::reportJson(report));
}

std::string
textDigest(const std::string &text)
{
    return nsrf::serve::hashString(text).hex();
}

std::string
expectedResultObject(const nsrf::sim::RunResult &result)
{
    nsrf::stats::JsonWriter json;
    json.beginObject();
    nsrf::sim::appendResultJson(json, result);
    json.endObject();
    // {"result":{...}} -> {...}
    const std::string &text = json.str();
    std::size_t open = text.find('{', 1);
    return text.substr(open, text.size() - 1 - open);
}

namespace
{

/** A minimal raw JSON scanner: enough to cut values out verbatim. */
class Scanner
{
  public:
    explicit Scanner(const std::string &text) : text_(text) {}

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipSpace();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    /** Read a string's raw contents (escapes kept as written). */
    bool
    string(std::string *out)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        std::size_t start = ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        *out = text_.substr(start, pos_ - start);
        ++pos_;
        return true;
    }

    /** Cut out one value of any kind, verbatim. */
    bool
    value(std::string *out)
    {
        skipSpace();
        std::size_t start = pos_;
        int depth = 0;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                std::string ignored;
                if (!string(&ignored))
                    return false;
                if (depth == 0)
                    break;
                continue;
            }
            if (c == '{' || c == '[') {
                ++depth;
            } else if (c == '}' || c == ']') {
                if (depth == 0)
                    break;
                --depth;
                if (depth == 0) {
                    ++pos_;
                    break;
                }
            } else if (depth == 0 && (c == ',' || c == ' ')) {
                break;
            }
            ++pos_;
        }
        if (depth != 0 || pos_ == start)
            return false;
        *out = text_.substr(start, pos_ - start);
        return true;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseSubmitReply(const std::string &reply, std::vector<ReplyCell> *cells,
                 std::string *why)
{
    cells->clear();
    Scanner scan(reply);
    bool ok = false;
    bool saw_cells = false;
    if (!scan.eat('{')) {
        *why = "reply is not an object";
        return false;
    }
    while (!scan.peek('}')) {
        std::string key;
        if (!scan.string(&key) || !scan.eat(':')) {
            *why = "malformed reply";
            return false;
        }
        if (key == "cells") {
            saw_cells = true;
            if (!scan.eat('[')) {
                *why = "cells is not an array";
                return false;
            }
            while (!scan.peek(']')) {
                ReplyCell cell;
                if (!scan.eat('{')) {
                    *why = "cell is not an object";
                    return false;
                }
                while (!scan.peek('}')) {
                    std::string member, raw;
                    if (!scan.string(&member) || !scan.eat(':')) {
                        *why = "malformed cell";
                        return false;
                    }
                    bool text = scan.peek('"');
                    std::string *slot = nullptr;
                    if (member == "label")
                        slot = &cell.label;
                    else if (member == "fingerprint")
                        slot = &cell.fingerprint;
                    else if (member == "source")
                        slot = &cell.source;
                    else if (member == "error")
                        slot = &cell.error;
                    if (slot && text) {
                        if (!scan.string(slot)) {
                            *why = "malformed cell string";
                            return false;
                        }
                    } else if (!scan.value(&raw)) {
                        *why = "malformed cell value";
                        return false;
                    } else if (member == "result") {
                        cell.result = raw;
                    }
                    scan.eat(',');
                }
                scan.eat('}');
                cells->push_back(std::move(cell));
                scan.eat(',');
            }
            scan.eat(']');
        } else {
            std::string raw;
            if (!scan.value(&raw)) {
                *why = "malformed member " + key;
                return false;
            }
            if (key == "ok")
                ok = raw == "true";
        }
        scan.eat(',');
    }
    if (!ok || !saw_cells) {
        *why = "reply is not an ok submit reply";
        return false;
    }
    return true;
}

bool
checkSubmitReply(const std::string &reply,
                 const std::vector<std::string> &fingerprints,
                 const std::vector<nsrf::sim::RunResult> &expected,
                 const std::string &source, std::string *why)
{
    std::vector<ReplyCell> cells;
    if (!parseSubmitReply(reply, &cells, why))
        return false;
    if (cells.size() != expected.size()) {
        *why = "reply has " + std::to_string(cells.size()) +
               " cells, expected " + std::to_string(expected.size());
        return false;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].error.empty()) {
            *why = "cell " + cells[i].label + ": " + cells[i].error;
            return false;
        }
        if (cells[i].fingerprint != fingerprints[i]) {
            *why = "cell " + std::to_string(i) + " has fingerprint " +
                   cells[i].fingerprint + ", expected " +
                   fingerprints[i];
            return false;
        }
        if (cells[i].source != source) {
            *why = "cell " + cells[i].label + " came from \"" +
                   cells[i].source + "\", expected \"" + source + "\"";
            return false;
        }
        if (cells[i].result != expectedResultObject(expected[i])) {
            *why = "cell " + cells[i].label + " (" +
                   cells[i].fingerprint +
                   ") differs from the offline sweep";
            return false;
        }
    }
    return true;
}

int
selfTest(unsigned jobs)
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::fprintf(stderr, "  [%s] %s\n", ok ? "ok" : "FAIL", what);
        if (!ok)
            ++failures;
    };

    // Sweep gate: the canonical paper cells reproduce the pinned
    // digest, and one perturbed statistic does not.
    nsrf::sim::SweepRunner runner(jobs);
    std::vector<nsrf::sim::RunResult> results =
        runner.run(cellsFromSpecs(paperCellSpecs(0, kGateScaleDown)));
    expect(resultsDigest(results) == kPinnedPaperDigest,
           "canonical paper cells match the pinned digest");
    results[results.size() / 2].regsReloaded += 1;
    expect(resultsDigest(results) != kPinnedPaperDigest,
           "a perturbed reload count breaks the digest");
    results[results.size() / 2].regsReloaded -= 1;
    results.back().meanUtilization =
        std::nextafter(results.back().meanUtilization, 2.0);
    expect(resultsDigest(results) != kPinnedPaperDigest,
           "a one-ulp perturbed utilization breaks the digest");

    // Serve gate: a real submit reply (the in-process server, cold
    // then warm) matches the offline sweep byte for byte; a reply
    // with one digit changed inside a result object does not.
    std::vector<std::string> specs = {
        cellSpec("GateSim", "nsf", 80, 20'000, 11),
        cellSpec("Gamteb", "segmented", 128, 20'000, 12),
        cellSpec("Quicksort", "nsf", 80, 20'000, 13),
    };
    std::vector<nsrf::sim::SweepCell> cells = cellsFromSpecs(specs);
    std::vector<nsrf::sim::RunResult> offline = runner.run(cells);
    std::vector<std::string> fingerprints;
    for (const auto &cell : cells)
        fingerprints.push_back(
            nsrf::serve::fingerprintCell(cell.config, cell.provenance)
                .hex());
    nsrf::serve::ResultCache cache(nsrf::serve::ResultCacheConfig{});
    nsrf::serve::BatchScheduler scheduler(&cache, {});
    nsrf::serve::Server server({}, &cache, &scheduler);
    std::string line = submitLine(specs);
    std::string why;
    std::string cold = server.handleRequest(line);
    std::string warm = server.handleRequest(line);
    expect(checkSubmitReply(cold, fingerprints, offline, "simulated", &why),
           "a simulated reply matches the offline sweep");
    expect(checkSubmitReply(warm, fingerprints, offline, "cache", &why),
           "a cached reply matches the offline sweep");
    expect(!checkSubmitReply(warm, fingerprints, offline, "simulated", &why),
           "a cached reply where simulation was expected is caught");
    std::fprintf(stderr, "    (%s)\n", why.c_str());

    std::string perturbed = warm;
    std::size_t at = perturbed.find("\"regsReloaded\":");
    at = perturbed.find_first_of("0123456789", at);
    perturbed[at] = perturbed[at] == '9' ? '8' : perturbed[at] + 1;
    expect(!checkSubmitReply(perturbed, fingerprints, offline, "cache", &why),
           "a reply with one perturbed digit is caught");
    std::fprintf(stderr, "    (%s)\n", why.c_str());

    std::vector<nsrf::sim::RunResult> swapped_results = offline;
    std::swap(swapped_results[0], swapped_results[1]);
    expect(!checkSubmitReply(warm, fingerprints, swapped_results, "cache",
                             &why),
           "results attributed to the wrong cells are caught");
    expect(!checkSubmitReply("{\"ok\":false,\"error\":\"x\"}",
                             fingerprints, offline, "cache", &why),
           "an error reply is caught");
    scheduler.drain();
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
