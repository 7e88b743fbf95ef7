/**
 * @file
 * The benchmark's correctness gate.
 *
 * Sweep workloads are checked by digest: every RunResult field, in
 * the result cache's exact codec, hashed in cell order.  The pinned
 * digests below are the canonical paper cells and the canonical
 * lattice at the profiles' own seeds; any change to a simulated
 * statistic changes them.  Serve workloads are checked by bytes:
 * each reply's "result" object must equal what the offline sweep
 * serializes for the same cell.
 */

#ifndef PERFBENCH_GATE_HH
#define PERFBENCH_GATE_HH

#include <string>
#include <vector>

#include "nsrf/sim/sweep.hh"

namespace perfbench
{

/** Digest of the paper cells at seed 0, budgets / kGateScaleDown. */
extern const char *const kPinnedPaperDigest;
/** Digest of the canonical lattice's frontier JSON. */
extern const char *const kPinnedFrontierDigest;

/** @return the digest of the canonical paper cells, simulated now. */
std::string canonicalPaperDigest(unsigned jobs);

/** @return the digest of the canonical lattice's frontier JSON. */
std::string canonicalFrontierDigest(unsigned jobs);

/** @return the hex digest of every field of @p results, in order. */
std::string resultsDigest(const std::vector<nsrf::sim::RunResult> &results);

/** @return the hex digest of @p text. */
std::string textDigest(const std::string &text);

/** @return the `{...}` a reply carries as a cell's "result". */
std::string expectedResultObject(const nsrf::sim::RunResult &result);

/** One cell of a submit reply, with its result as raw bytes. */
struct ReplyCell
{
    std::string label;
    std::string fingerprint;
    std::string source;
    std::string error;
    std::string result; //!< raw `{...}`; empty when absent
};

/**
 * Split a submit reply into its cells.  @return false with @p why
 * when the reply is not a well-formed `"ok":true` submit reply.
 */
bool parseSubmitReply(const std::string &reply,
                      std::vector<ReplyCell> *cells, std::string *why);

/**
 * Check every cell of @p reply against the offline results: cell i
 * must carry @p fingerprints[i], the reply source @p source ("cache"
 * or "simulated", so a cache hit never passes as simulated work) and
 * a result object byte-equal to expectedResultObject(@p expected[i]).
 * @return false with @p why on the first mismatch.
 */
bool checkSubmitReply(const std::string &reply,
                      const std::vector<std::string> &fingerprints,
                      const std::vector<nsrf::sim::RunResult> &expected,
                      const std::string &source, std::string *why);

/**
 * Show the gate failing: a perturbed result digest and a perturbed
 * serve reply must both be caught, and the unperturbed ones pass.
 * @return a process exit code (0 = the gate behaves).
 */
int selfTest(unsigned jobs);

} // namespace perfbench

#endif // PERFBENCH_GATE_HH
