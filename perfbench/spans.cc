#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::spans
{

namespace
{

struct Record
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t request;
};

/** One thread's spans; owned by the registry so they outlive it. */
struct Buffer
{
    std::vector<Record> records;
    std::vector<std::uint32_t> open;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_nextId{1};
std::atomic<std::uint64_t> g_nextRequest{1};

std::mutex g_registryMutex;
std::vector<std::unique_ptr<Buffer>> g_buffers; // guarded by mutex

thread_local Buffer *t_buffer = nullptr;

Buffer &
threadBuffer()
{
    if (!t_buffer) {
        auto buffer = std::make_unique<Buffer>();
        buffer->records.reserve(1024);
        std::lock_guard<std::mutex> lock(g_registryMutex);
        t_buffer = buffer.get();
        g_buffers.push_back(std::move(buffer));
    }
    return *t_buffer;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<Record>
snapshotRecords()
{
    std::vector<Record> all;
    std::lock_guard<std::mutex> lock(g_registryMutex);
    for (const auto &buffer : g_buffers)
        all.insert(all.end(), buffer->records.begin(),
                   buffer->records.end());
    return all;
}

/** Length of the union of @p spans clipped to [lo, hi]. */
std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> &spans,
          std::int64_t lo, std::int64_t hi)
{
    std::sort(spans.begin(), spans.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [start, end] : spans) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t
newRequest()
{
    return g_nextRequest.fetch_add(1, std::memory_order_relaxed);
}

Scope::Scope(const char *name, std::uint64_t request,
             std::uint32_t parent)
{
    if (!enabled())
        return;
    Buffer &buffer = threadBuffer();
    id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
    if (parent == kInherit)
        parent = buffer.open.empty() ? 0 : buffer.open.back();
    index_ = buffer.records.size();
    buffer.records.push_back({name, nowNs(), 0, id_, parent, request});
    buffer.open.push_back(id_);
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    t_buffer->records[index_].endNs = nowNs();
    t_buffer->open.pop_back();
}

std::vector<Layer>
summarize(std::uint64_t request)
{
    std::vector<Record> all = snapshotRecords();
    std::unordered_map<std::uint32_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Record &r : all) {
        if (r.parent != 0)
            children[r.parent].push_back({r.startNs, r.endNs});
    }
    std::map<std::string, Layer> by_name;
    for (const Record &r : all) {
        if (request != 0 && r.request != request)
            continue;
        Layer &layer = by_name[r.name];
        layer.name = r.name;
        std::int64_t duration = r.endNs - r.startNs;
        std::int64_t covered = 0;
        auto it = children.find(r.id);
        if (it != children.end())
            covered = coveredNs(it->second, r.startNs, r.endNs);
        ++layer.count;
        layer.totalS += double(duration) * 1e-9;
        layer.selfS += double(duration - covered) * 1e-9;
    }
    std::vector<Layer> out;
    for (auto &[name, layer] : by_name)
        out.push_back(layer);
    return out;
}

Layer
find(const std::vector<Layer> &layers, const std::string &name)
{
    for (const Layer &layer : layers) {
        if (layer.name == name)
            return layer;
    }
    Layer empty;
    empty.name = name;
    return empty;
}

std::size_t
recorded()
{
    std::lock_guard<std::mutex> lock(g_registryMutex);
    std::size_t n = 0;
    for (const auto &buffer : g_buffers)
        n += buffer->records.size();
    return n;
}

bool
write(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<Record> all = snapshotRecords();
    std::int64_t origin = all.empty() ? 0 : all.front().startNs;
    for (const Record &r : all)
        origin = std::min(origin, r.startNs);
    std::fprintf(f, "{\"schema\":1,\"clock\":\"steady_clock ns from "
                    "the first span\",\n\"summary\":[");
    bool first = true;
    for (const Layer &layer : summarize()) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"count\":%llu,"
                     "\"total_s\":%.9f,\"self_s\":%.9f}",
                     first ? "" : ",", layer.name.c_str(),
                     static_cast<unsigned long long>(layer.count),
                     layer.totalS, layer.selfS);
        first = false;
    }
    std::fprintf(f, "],\n\"spans\":[");
    first = true;
    for (const Record &r : all) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                     "\"id\":%u,\"parent\":%u,\"request\":%llu}",
                     first ? "" : ",", r.name,
                     static_cast<long long>(r.startNs - origin),
                     static_cast<long long>(r.endNs - origin), r.id,
                     r.parent,
                     static_cast<unsigned long long>(r.request));
        first = false;
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench::spans
