/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one timed interval at a layer boundary: name, start, end,
 * the span that caused it (parent), and the request it belongs to.
 * Spans are recorded only while recording is enabled — the untraced
 * run pays one branch per boundary — into per-thread buffers, and are
 * written out once, at exit.  A layer's self time is its span's
 * duration minus the part of that interval its child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans
{

/** Turn recording on or off (off by default). */
void setEnabled(bool on);
bool enabled();

/** @return a fresh request id (never 0). */
std::uint64_t newRequest();

/**
 * RAII span.  By default the parent is the innermost open span on
 * the constructing thread; pass @p parent to link a span on a worker
 * thread to its cause on another thread.
 */
class Scope
{
  public:
    static constexpr std::uint32_t kInherit = ~0u;

    explicit Scope(const char *name, std::uint64_t request = 0,
                   std::uint32_t parent = kInherit);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    std::uint32_t id_ = 0;
    std::size_t index_ = 0;
};

/** Totals of one span name. */
struct Layer
{
    std::string name;
    std::uint64_t count = 0;
    double totalS = 0;
    double selfS = 0;
};

/**
 * Per-name totals over the spans of @p request (0 = every span).
 * Call only while no span is open on another thread.
 */
std::vector<Layer> summarize(std::uint64_t request = 0);

/** @return the totals of @p name in @p layers (zeros if absent). */
Layer find(const std::vector<Layer> &layers, const std::string &name);

/** @return how many spans were recorded. */
std::size_t recorded();

/**
 * Write every span plus the per-layer summary as JSON to @p path.
 * @return false when the file cannot be written.
 */
bool write(const std::string &path);

} // namespace perfbench::spans

#endif // PERFBENCH_SPANS_HH
