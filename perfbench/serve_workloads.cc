/**
 * @file
 * serve_hot and serve_cold: closed-loop clients of a real nsrf_serve
 * daemon over its Unix socket, because the daemon's real callers
 * (nsrf_explore --socket, nsrf_request) each wait for their reply.
 *
 * The untraced run times socket round trips only.  The traced run
 * repeats them with client spans on (the difference is the tracing
 * overhead), then drives the same request lines through an
 * in-process serve::Server to time the layers of the read path
 * (parse, fingerprint, cache get, decode, encode) and the write path
 * (queue wait and an injected BatchRunner span around simulation).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "cells.hh"
#include "gate.hh"
#include "nsrf/serve/cache.hh"
#include "nsrf/serve/codec.hh"
#include "nsrf/serve/fingerprint.hh"
#include "nsrf/serve/json_in.hh"
#include "nsrf/serve/scheduler.hh"
#include "nsrf/serve/server.hh"
#include "nsrf/stats/json.hh"
#include "replay.hh"
#include "spans.hh"

extern char **environ;

namespace perfbench
{

namespace
{

using nsrf::sim::RunResult;
using nsrf::sim::SweepCell;

/** Budget for one round trip before it counts as timed out. */
constexpr int kRequestTimeoutS = 30;

/** One line-delimited JSON connection to the daemon. */
class Connection
{
  public:
    Connection() = default;
    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    bool
    open(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        timeval tv{kRequestTimeoutS, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        return ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    enum class Status { Ok, TimedOut, Error };

    /** Send @p line, read one reply line into @p reply. */
    Status
    roundTrip(const std::string &line, std::string *reply)
    {
        std::string out = line + "\n";
        std::size_t sent = 0;
        while (sent < out.size()) {
            ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return errno == EAGAIN ? Status::TimedOut
                                       : Status::Error;
            sent += std::size_t(n);
        }
        reply->clear();
        while (true) {
            std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                reply->assign(buffer_, 0, newline);
                buffer_.erase(0, newline + 1);
                return Status::Ok;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && errno == EAGAIN)
                return Status::TimedOut;
            if (n <= 0)
                return Status::Error;
            buffer_.append(chunk, std::size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** An nsrf_serve child on a private socket; killed if still alive. */
class Daemon
{
  public:
    Daemon(const Options &options, const std::string &name,
           std::vector<std::string> args)
        : socket_(options.outDir + "/" + name + ".sock"),
          log_(options.outDir + "/" + name + ".log")
    {
        argv_ = {options.serveBinary, "--socket", socket_};
        argv_.insert(argv_.end(), args.begin(), args.end());
    }
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** Spawn and wait until it answers ping. */
    bool
    start(std::string *why)
    {
        ::unlink(socket_.c_str());
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log_.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        std::vector<char *> argv;
        for (auto &arg : argv_)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            *why = "cannot spawn " + argv_[0] + ": " + std::strerror(rc);
            return false;
        }
        double deadline = nowSeconds() + 20;
        while (nowSeconds() < deadline) {
            Connection probe;
            std::string reply;
            if (probe.open(socket_) &&
                probe.roundTrip("{\"op\":\"ping\"}", &reply) ==
                    Connection::Status::Ok &&
                reply.find("\"ok\":true") != std::string::npos)
                return true;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                *why = "daemon exited at start-up (see " + log_ + ")";
                return false;
            }
            ::usleep(2000);
        }
        *why = "daemon never answered ping";
        return false;
    }

    double peakRss() const { return pid_ > 0 ? peakRssMb(pid_) : 0; }

    /** A stats reply, or "" on failure. */
    std::string
    stats()
    {
        Connection c;
        std::string reply;
        if (!c.open(socket_) ||
            c.roundTrip("{\"op\":\"stats\"}", &reply) !=
                Connection::Status::Ok)
            return "";
        return reply;
    }

    /** Graceful shutdown op, then reap (SIGKILL after 20 s). */
    bool
    stop()
    {
        if (pid_ <= 0)
            return true;
        {
            Connection c;
            std::string reply;
            if (c.open(socket_))
                c.roundTrip("{\"op\":\"shutdown\"}", &reply);
        }
        double deadline = nowSeconds() + 20;
        int status = 0;
        while (nowSeconds() < deadline) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            ::usleep(2000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
    }

  private:
    std::string socket_;
    std::string log_;
    std::vector<std::string> argv_;
    pid_t pid_ = -1;
};

/** @return the unsigned counter @p key inside object @p section. */
std::uint64_t
statsCounter(const std::string &stats, const std::string &section,
             const std::string &key)
{
    nsrf::serve::json::Value root;
    std::string why;
    if (!nsrf::serve::json::parse(stats, &root, &why))
        return 0;
    const auto *object = root.find(section);
    std::uint64_t value = 0;
    if (object)
        object->getU64(key, &value);
    return value;
}

/** One request of the workload: its line and the cells it names. */
struct Request
{
    std::string line;
    std::vector<std::size_t> cells; //!< indices into the cell table
};

/** Offline truth for a table of cells. */
struct CellTable
{
    std::vector<std::string> specs;
    std::vector<SweepCell> cells;
    std::vector<std::string> fingerprints;
    std::vector<RunResult> results; //!< filled by computeOffline

    void
    build()
    {
        cells = cellsFromSpecs(specs);
        fingerprints.clear();
        for (const auto &cell : cells)
            fingerprints.push_back(nsrf::serve::fingerprintCell(
                                       cell.config, cell.provenance)
                                       .hex());
    }

    /** Simulate the first @p count cells offline (the truth). */
    void
    computeOffline(unsigned jobs, std::size_t count)
    {
        std::vector<SweepCell> used(cells.begin(),
                                    cells.begin() + std::ptrdiff_t(count));
        results = nsrf::sim::SweepRunner(jobs).run(used);
    }
};

/** Outcome bucket of one reply, judged against the offline truth. */
enum class Outcome { Ok, Rejected, TimedOut, Errored, Wrong };

/**
 * @p source is where every cell of the reply must come from ("cache"
 * on a warmed daemon, "simulated" for never-seen cells); any other
 * source makes the reply Wrong, so a cache hit can never count as
 * simulated work.
 */
Outcome
judge(const std::string &reply, const Request &request,
      const CellTable &table, const std::string &source, std::string *why)
{
    std::vector<ReplyCell> cells;
    if (!parseSubmitReply(reply, &cells, why))
        return Outcome::Errored;
    for (const auto &cell : cells) {
        if (cell.error.rfind("rejected", 0) == 0) {
            *why = cell.error;
            return Outcome::Rejected;
        }
        if (cell.error == "timeout") {
            *why = cell.error;
            return Outcome::TimedOut;
        }
        if (!cell.error.empty()) {
            *why = cell.error;
            return Outcome::Errored;
        }
    }
    std::vector<std::string> fingerprints;
    std::vector<RunResult> expected;
    for (std::size_t i : request.cells) {
        fingerprints.push_back(table.fingerprints[i]);
        expected.push_back(table.results[i]);
    }
    return checkSubmitReply(reply, fingerprints, expected, source, why)
               ? Outcome::Ok
               : Outcome::Wrong;
}

/** What one closed-loop phase observed, before judging. */
struct Phase
{
    struct Sample
    {
        std::size_t request;
        std::size_t reply; //!< index into replies[request]
        Connection::Status status;
        double latencyMs;
        bool inWindow;
    };

    double windowS = 0; //!< summed over daemons
    std::vector<Sample> samples;
    /** Distinct reply bytes per request. */
    std::map<std::size_t, std::vector<std::string>> replies;
    unsigned unconnected = 0;
    std::size_t maxRequest = 0; //!< highest request index sent + 1
    /** Daemon scheduler counters over the phase. */
    std::uint64_t hits = 0, admissions = 0, batches = 0, merges = 0,
                  rejections = 0, simulations = 0;
};

/**
 * Closed loop: @p connections clients, each sending its next request
 * as soon as the previous reply arrives, for @p seconds.  With
 * @p unique, requests are handed out once each, after the last one
 * @p phase already holds; otherwise client c cycles through all of
 * them from its own offset.  Samples, distinct replies (identical
 * bytes once per request) and daemon counters are appended to
 * @p phase, to be judged after the window.
 */
void
closedLoop(Daemon &daemon, const std::vector<Request> &requests,
           unsigned connections, double seconds, bool unique,
           Phase &phase)
{
    std::string before = daemon.stats();
    std::vector<Phase> clients(connections);
    std::size_t stride = requests.size() / connections;
    std::atomic<std::size_t> next_unique{phase.maxRequest};
    double start = nowSeconds();
    double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&, c]() {
            Phase &client = clients[c];
            Connection conn;
            if (!conn.open(daemon.socket())) {
                client.unconnected = 1;
                return;
            }
            std::string reply;
            for (std::size_t k = 0; nowSeconds() < deadline; ++k) {
                std::size_t r = unique
                                    ? next_unique.fetch_add(1)
                                    : (c * stride + k) % requests.size();
                if (r >= requests.size())
                    break;
                double t0 = nowSeconds();
                Connection::Status status;
                {
                    spans::Scope span("serve.socket_request",
                                      spans::enabled() ? spans::newRequest()
                                                       : 0);
                    status = conn.roundTrip(requests[r].line, &reply);
                }
                double t1 = nowSeconds();
                Phase::Sample sample{r, 0, status, (t1 - t0) * 1e3,
                                     t1 <= deadline};
                if (status == Connection::Status::Ok) {
                    auto &seen = client.replies[r];
                    std::size_t i = 0;
                    while (i < seen.size() && seen[i] != reply)
                        ++i;
                    if (i == seen.size())
                        seen.push_back(reply);
                    sample.reply = i;
                }
                client.samples.push_back(sample);
                client.maxRequest = std::max(client.maxRequest, r + 1);
                if (status == Connection::Status::Error)
                    break;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    phase.windowS += deadline - start;
    std::string after = daemon.stats();

    // Merge the clients, re-indexing replies into one table.
    for (Phase &client : clients) {
        phase.unconnected += client.unconnected;
        phase.maxRequest = std::max(phase.maxRequest, client.maxRequest);
        for (Phase::Sample sample : client.samples) {
            if (sample.status == Connection::Status::Ok) {
                const std::string &reply =
                    client.replies[sample.request][sample.reply];
                auto &seen = phase.replies[sample.request];
                std::size_t i = 0;
                while (i < seen.size() && seen[i] != reply)
                    ++i;
                if (i == seen.size())
                    seen.push_back(reply);
                sample.reply = i;
            }
            phase.samples.push_back(sample);
        }
    }
    auto delta = [&](const char *key) {
        return statsCounter(after, "scheduler", key) -
               statsCounter(before, "scheduler", key);
    };
    std::uint64_t hits = delta("hits");
    std::uint64_t merges = delta("merges");
    std::uint64_t rejections = delta("rejections");
    phase.hits += hits;
    phase.merges += merges;
    phase.rejections += rejections;
    phase.batches += delta("batches");
    phase.simulations += delta("simulations");
    phase.admissions += hits + delta("scheduled") + merges + rejections;
}

/** A judged phase: failure accounting and the e2e numbers. */
struct Judged
{
    Counts counts;
    std::vector<double> latenciesMs;
    double reqPerS = 0;
    double workPerS = 0;
    std::vector<std::string> notes;
};

/**
 * Judge every distinct reply once against the offline truth, then
 * each request by its reply.  @p work gives a request's work units
 * (cells served, or steps simulated) for the work rate.
 */
Judged
judgePhase(const Phase &phase, const std::vector<Request> &requests,
           const CellTable &table, const std::string &source,
           const std::function<double(std::size_t)> &work)
{
    Judged judged;
    std::map<std::pair<std::size_t, std::size_t>, Outcome> outcomes;
    for (const auto &[r, replies] : phase.replies) {
        for (std::size_t i = 0; i < replies.size(); ++i) {
            std::string why;
            Outcome outcome =
                judge(replies[i], requests[r], table, source, &why);
            outcomes[{r, i}] = outcome;
            if (outcome != Outcome::Ok && judged.notes.size() < 8)
                judged.notes.push_back("request " + std::to_string(r) +
                                       ": " + why);
        }
    }
    judged.counts.attempted += phase.unconnected;
    judged.counts.errored += phase.unconnected;
    if (phase.unconnected)
        judged.notes.push_back("a client could not connect");
    std::uint64_t completed = 0;
    double units = 0;
    for (const Phase::Sample &s : phase.samples) {
        ++judged.counts.attempted;
        Outcome outcome = s.status == Connection::Status::Ok
                              ? outcomes[{s.request, s.reply}]
                          : s.status == Connection::Status::TimedOut
                              ? Outcome::TimedOut
                              : Outcome::Errored;
        switch (outcome) {
          case Outcome::Ok: ++judged.counts.succeeded; break;
          case Outcome::Rejected: ++judged.counts.rejected; break;
          case Outcome::TimedOut: ++judged.counts.timedOut; break;
          case Outcome::Errored: ++judged.counts.errored; break;
          case Outcome::Wrong: ++judged.counts.wrong; break;
        }
        if (outcome != Outcome::Ok)
            continue;
        judged.latenciesMs.push_back(s.latencyMs);
        if (s.inWindow) {
            ++completed;
            units += work(s.request);
        }
    }
    judged.reqPerS = double(completed) / phase.windowS;
    judged.workPerS = units / phase.windowS;
    return judged;
}

void
addCounts(Report &report, const Judged &judged)
{
    Counts &c = report.counts;
    c.attempted += judged.counts.attempted;
    c.succeeded += judged.counts.succeeded;
    c.rejected += judged.counts.rejected;
    c.timedOut += judged.counts.timedOut;
    c.errored += judged.counts.errored;
    c.wrong += judged.counts.wrong;
    for (const auto &note : judged.notes)
        report.fail(note);
    if (judged.counts.failed() > 0 && judged.notes.empty())
        report.fail("requests failed");
}

/** Mean seconds per call of span @p name. */
double
meanSpanS(const std::vector<spans::Layer> &layers, const char *name)
{
    spans::Layer layer = spans::find(layers, name);
    return layer.count == 0 ? 0 : layer.totalS / double(layer.count);
}

/**
 * Time the public calls of the read path on the workload's cells:
 * request parse, then per cell fingerprint, cache get, result decode
 * and reply encode, plus the whole in-process Server::handleRequest
 * with every cell cached.
 */
void
probeReadPath(Report &report, const std::vector<Request> &requests,
              std::size_t count, const CellTable &table, double seconds)
{
    nsrf::serve::ResultCache cache(nsrf::serve::ResultCacheConfig{});
    for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t i : requests[r].cells)
            cache.put(nsrf::serve::fingerprintCell(
                          table.cells[i].config, table.cells[i].provenance),
                      nsrf::serve::encodeRunResult(table.results[i]));
    }
    nsrf::serve::BatchScheduler scheduler(&cache, {});
    nsrf::serve::Server server({}, &cache, &scheduler);

    std::uint64_t request = spans::newRequest();
    std::vector<double> handle_ms;
    double deadline = nowSeconds() + seconds;
    for (std::size_t k = 0; k == 0 || nowSeconds() < deadline; ++k) {
        const Request &req = requests[k % count];
        {
            nsrf::serve::json::Value value;
            std::string why;
            spans::Scope span("serve.parse", request);
            nsrf::serve::json::parse(req.line, &value, &why);
        }
        for (std::size_t i : req.cells) {
            const SweepCell &cell = table.cells[i];
            nsrf::serve::Fingerprint key;
            {
                spans::Scope span("serve.fingerprint", request);
                key = nsrf::serve::fingerprintCell(cell.config,
                                                   cell.provenance);
            }
            std::optional<std::string> payload;
            {
                spans::Scope span("serve.cache_get", request);
                payload = cache.get(key);
            }
            RunResult result;
            {
                spans::Scope span("serve.decode", request);
                nsrf::serve::decodeRunResult(*payload, &result);
            }
            nsrf::stats::JsonWriter json;
            spans::Scope span("serve.encode", request);
            json.beginObject();
            nsrf::sim::appendResultJson(json, result);
            json.endObject();
        }
        double t0 = nowSeconds();
        {
            spans::Scope span("serve.handle_request", request);
            server.handleRequest(req.line);
        }
        handle_ms.push_back((nowSeconds() - t0) * 1e3);
    }
    scheduler.drain();
    std::vector<spans::Layer> layers = spans::summarize(request);
    report.set("serve.parse_us", meanSpanS(layers, "serve.parse") * 1e6);
    report.set("serve.fingerprint_us",
               meanSpanS(layers, "serve.fingerprint") * 1e6);
    report.set("serve.cache_get_us",
               meanSpanS(layers, "serve.cache_get") * 1e6);
    report.set("serve.decode_us", meanSpanS(layers, "serve.decode") * 1e6);
    report.set("serve.encode_us", meanSpanS(layers, "serve.encode") * 1e6);
    report.set("serve.request_ms", median(handle_ms));
}

/**
 * The write path in process: @p connections client threads submit
 * never-seen cells to a serve::Server whose scheduler runs batches
 * through an injected BatchRunner.  The runner spans the simulation
 * and stamps each batch's start, so queue wait is admission to batch
 * start per cell.  serve.request_ms becomes these requests' median.
 */
void
probeWritePath(Report &report, const std::vector<Request> &requests,
               std::size_t first, const CellTable &table,
               unsigned connections, double seconds)
{
    std::uint64_t request = spans::newRequest();
    std::mutex mutex;
    std::map<std::string, double> admitted; // fingerprint -> time
    std::vector<double> wait_ms, handle_ms;

    nsrf::serve::ResultCache cache(nsrf::serve::ResultCacheConfig{});
    nsrf::serve::BatchScheduler::Config config;
    config.jobs = 1;
    config.runner = [&](const std::vector<SweepCell> &cells) {
        double start = nowSeconds();
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (const auto &cell : cells) {
                auto it = admitted.find(
                    nsrf::serve::fingerprintCell(cell.config,
                                                 cell.provenance)
                        .hex());
                if (it != admitted.end())
                    wait_ms.push_back((start - it->second) * 1e3);
            }
        }
        spans::Scope span("serve.simulate", request, 0);
        return nsrf::sim::SweepRunner(1).run(cells);
    };
    nsrf::serve::BatchScheduler scheduler(&cache, config);
    nsrf::serve::Server server({}, &cache, &scheduler);

    std::atomic<std::size_t> next{first};
    double deadline = nowSeconds() + seconds;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&]() {
            while (nowSeconds() < deadline) {
                std::size_t r = next.fetch_add(1);
                if (r >= requests.size())
                    return;
                double t0 = nowSeconds();
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    for (std::size_t i : requests[r].cells)
                        admitted[table.fingerprints[i]] = t0;
                }
                server.handleRequest(requests[r].line);
                double ms = (nowSeconds() - t0) * 1e3;
                std::lock_guard<std::mutex> lock(mutex);
                handle_ms.push_back(ms);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    scheduler.drain();

    std::vector<spans::Layer> layers = spans::summarize(request);
    report.set("serve.simulate_s", meanSpanS(layers, "serve.simulate"));
    report.set("serve.queue_wait_p50_ms", quantile(wait_ms, 0.5));
    report.set("serve.queue_wait_p90_ms", quantile(wait_ms, 0.9));
    // What the workload's own requests take in process.
    report.set("serve.request_ms", median(handle_ms));
}

/** The shape of one serve workload. */
struct ServeSpec
{
    const char *name;
    unsigned connections;
    unsigned daemonJobs;
    /** Every request a never-seen cell, each sent once. */
    bool unique;
    /** Fresh daemons measured in turn; each set-up is timed. */
    int daemons;
    /** The reply "source" every cell must carry. */
    const char *source;
};

Report
runServe(const Options &options, const ServeSpec &spec, CellTable &table,
         const std::vector<Request> &requests, const std::string &warmup,
         const std::function<double(const CellTable &, std::size_t)> &work)
{
    Report report;
    report.note("connections", std::to_string(spec.connections));
    report.note("daemon_jobs", std::to_string(spec.daemonJobs));
    report.note("loop", "closed");
    report.note("requests_prepared", std::to_string(requests.size()));

    // Each run measures `daemons` fresh daemons in turn, a share of
    // the window each, so no one process's memory layout or thread
    // placement sets the run's numbers.  Set-up, timed per daemon:
    // start it, wait for ping, and complete the @p warmup submit.
    std::vector<double> setup_s, rss;
    Phase untraced, traced;
    double share = (options.trace ? options.seconds / 3 : options.seconds) /
                   spec.daemons;
    for (int d = 0; d < spec.daemons; ++d) {
        Daemon daemon(options, spec.name,
                      {"--jobs", std::to_string(spec.daemonJobs)});
        double t0 = nowSeconds();
        std::string why, reply;
        if (!daemon.start(&why)) {
            report.fail(why);
            return report;
        }
        Connection conn;
        if (!conn.open(daemon.socket()) ||
            conn.roundTrip(warmup, &reply) != Connection::Status::Ok ||
            reply.find("\"failures\":0") == std::string::npos ||
            reply.find("\"rejected\":0") == std::string::npos ||
            reply.find("\"timeouts\":0") == std::string::npos) {
            report.fail("the warm-up submit failed");
            return report;
        }
        setup_s.push_back(nowSeconds() - t0);

        // Never-seen requests continue after every one sent so far.
        untraced.maxRequest = std::max(untraced.maxRequest,
                                       traced.maxRequest);
        closedLoop(daemon, requests, spec.connections, share, spec.unique,
                   untraced);
        if (options.trace) {
            traced.maxRequest = std::max(traced.maxRequest,
                                         untraced.maxRequest);
            spans::setEnabled(true);
            closedLoop(daemon, requests, spec.connections, share,
                       spec.unique, traced);
            spans::setEnabled(false);
        }
        rss.push_back(daemon.peakRss());
        if (!daemon.stop())
            report.fail("daemon did not shut down cleanly");
    }

    // The offline truth, outside the timed window, for every cell
    // any request sent.
    std::size_t sent = std::max(untraced.maxRequest, traced.maxRequest);
    if (sent == 0) {
        report.fail("no request was sent");
        return report;
    }
    std::size_t cells_sent = table.cells.size();
    if (spec.unique)
        cells_sent = requests[sent - 1].cells.back() + 1;
    table.computeOffline(options.jobs, cells_sent);
    auto units = [&](std::size_t r) {
        return work(table, r);
    };
    Judged e2e = judgePhase(untraced, requests, table, spec.source, units);
    addCounts(report, e2e);
    report.note("samples", std::to_string(e2e.latenciesMs.size()));

    if (!options.trace) {
        setEndToEnd(report, e2e.latenciesMs, e2e.reqPerS, e2e.workPerS,
                    setup_s, median(rss));
        return report;
    }

    Judged with_spans =
        judgePhase(traced, requests, table, spec.source, units);
    addCounts(report, with_spans);
    double p50 = median(with_spans.latenciesMs);
    report.set("trace.overhead_req_p50_ms", p50 - median(e2e.latenciesMs));
    report.set("trace.overhead_work_per_s",
               with_spans.workPerS - e2e.workPerS);
    std::uint64_t admissions = untraced.admissions + traced.admissions;
    std::uint64_t batches = untraced.batches + traced.batches;
    report.set("serve.hit_ratio",
               admissions ? double(untraced.hits + traced.hits) /
                                double(admissions)
                          : 0.0);
    report.set("serve.batches", double(batches));
    report.set("serve.cells_per_batch",
               batches ? double(untraced.simulations +
                                traced.simulations) /
                             double(batches)
                       : 0.0);
    report.set("serve.merges", double(untraced.merges + traced.merges));
    report.set("serve.rejections",
               double(untraced.rejections + traced.rejections));

    // In-process probes over the cells this run already verified.
    std::size_t verified = spec.unique ? sent : requests.size();
    spans::setEnabled(true);
    double probe_s = options.seconds / 3;
    if (spec.unique) {
        probeReadPath(report, requests, verified, table, probe_s / 3);
        probeWritePath(report, requests, sent, table, spec.connections,
                       probe_s / 3);
        // The simulator layers on this workload's own cells, solo
        // like the daemon's single-worker batches run them.
        probeSimLayers(report,
                       {table.cells.begin(),
                        table.cells.begin() +
                            std::ptrdiff_t(std::min<std::size_t>(12, cells_sent))},
                       1);
    } else {
        probeReadPath(report, requests, verified, table, probe_s);
    }
    spans::setEnabled(false);
    // Transport is resolved only where a request is all read path: on
    // serve_cold it would be a sub-ms gap between two ~80 ms medians
    // of separately timed simulations, and is left at 0.
    if (!spec.unique)
        report.set("serve.transport_ms",
                   p50 - report.get("serve.request_ms"));
    return report;
}

} // namespace

Report
runServeHot(const Options &options)
{
    // A pool of distinct small cells across every workload, warmed in
    // set-up; each request draws 32-40 of them, so a reply carries
    // ~36 cached results and the request is ms-scale.
    constexpr std::size_t kPool = 96;
    constexpr std::size_t kRequests = 64;
    CellTable table;
    const auto &apps = appNames();
    for (std::size_t i = 0; i < kPool; ++i) {
        table.specs.push_back(cellSpec(
            apps[i % apps.size()], (i / apps.size()) % 2 ? "segmented" : "nsf",
            0, 20'000, (mixSeed(options.seed, 0x407 + i) >> 1) | 1));
    }
    table.build();

    std::vector<Request> requests;
    std::uint64_t draw = 0;
    for (std::size_t r = 0; r < kRequests; ++r) {
        std::vector<std::size_t> pool(kPool);
        for (std::size_t i = 0; i < kPool; ++i)
            pool[i] = i;
        std::size_t n = 32 + mixSeed(options.seed, ++draw) % 9;
        Request request;
        std::vector<std::string> specs;
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t pick =
                k + mixSeed(options.seed, ++draw) % (kPool - k);
            std::swap(pool[k], pool[pick]);
            request.cells.push_back(pool[k]);
            specs.push_back(table.specs[pool[k]]);
        }
        request.line = submitLine(specs);
        requests.push_back(std::move(request));
    }

    // Set-up fills the cache with the whole pool.
    ServeSpec spec{"serve_hot", 2, 2, false, 8, "cache"};
    Report report = runServe(options, spec, table, requests,
                             submitLine(table.specs),
                             [&](const CellTable &, std::size_t r) {
                                 return double(requests[r].cells.size());
                             });
    report.note("pool_cells", std::to_string(kPool));
    report.note("cell_events", "20000");
    return report;
}

Report
runServeCold(const Options &options)
{
    // Never-seen cells, one per request: every cell simulates, and
    // three back-to-back connections give the scheduler batches to
    // form.  The cells cycle through every app x organization in turn
    // (only the trace seed is drawn), so every daemon's share of the
    // run simulates the same mix and the seed cannot tilt it towards
    // slow or fast apps.
    constexpr std::uint64_t kEvents = 150'000;
    constexpr std::size_t kRequests = 4000;
    // Sixteen fresh daemons share each run in ~1.25 s slices: one
    // daemon's latency follows the host's speed during its slice, so
    // many slices average that drift.
    constexpr int kDaemons = 16;
    CellTable table;
    const auto &apps = appNames();
    for (std::size_t r = 0; r < kRequests; ++r) {
        std::uint64_t h = mixSeed(options.seed, 0xc01d0000 + r);
        table.specs.push_back(cellSpec(apps[r % apps.size()],
                                       (r / apps.size()) % 2 ? "segmented"
                                                             : "nsf",
                                       0, kEvents, (h >> 1) | 1));
    }
    table.build();
    std::vector<Request> requests;
    for (std::size_t r = 0; r < kRequests; ++r)
        requests.push_back({submitLine({table.specs[r]}), {r}});

    // Set-up's warm-up is one more never-seen cell of the same size.
    std::string warmup = submitLine({cellSpec(
        "Gamteb", "nsf", 0, kEvents, (mixSeed(options.seed, 0xa11ce) >> 1) | 1)});
    ServeSpec spec{"serve_cold", 3, 1, true, kDaemons, "simulated"};
    Report report = runServe(
        options, spec, table, requests, warmup,
        [](const CellTable &t, std::size_t r) {
            return double(t.results[r].instructions);
        });
    report.note("cell_events", std::to_string(kEvents));
    return report;
}

} // namespace perfbench
