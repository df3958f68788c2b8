// mlpart_serve — long-lived supervised partitioning service (DESIGN.md §11, §13).
//
//   mlpart_serve [--workers N] [--queue N] [--deadline SEC] [--grace SEC]
//                [--drain-grace SEC] [--history N] [--mem-limit BYTES[k|m|g]]
//                [--socket PATH] [--cache N] [--per-client N]
//                [--state-dir DIR] [--max-line BYTES[k|m|g]]
//
// Reads one NDJSON job request per line from stdin (or, with --socket,
// from any number of concurrent clients of a unix stream socket) and
// answers every request with exactly one NDJSON line on stdout (or the
// requesting client's connection). Jobs run in fork-isolated workers,
// pre-forked one per dispatcher (--workers) and reaped and respawned
// (with exponential backoff) when they crash. {"op":"cancel","id":...}
// drops a queued job or winds down a running one to a deterministic
// CANCELLED response; --cache N replays repeat (instance, config)
// requests from a bounded result cache with "cached":true. SIGTERM (or
// an {"op":"drain"} request) drains gracefully: queued jobs are
// rejected, in-flight jobs wind down to best-so-far + checkpoint, then
// exit 0. A malformed flag value exits 2 (usage).
#if defined(_WIN32)
#include <cstdio>
int main() {
    std::fprintf(stderr, "mlpart_serve: POSIX-only (fork-based worker isolation)\n");
    return 1;
}
#else

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "robust/fault_injector.h"
#include "robust/status.h"
#include "serve/front_end.h"
#include "serve/service.h"

#include "flag_value.h"

using namespace mlpart;

namespace {

std::atomic<bool> g_drain{false};

extern "C" void onSignal(int) { g_drain.store(true, std::memory_order_relaxed); }

[[noreturn]] void usage(const std::string& msg = "") {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
    std::cerr <<
        "usage: mlpart_serve [options]\n"
        "  --workers N        pre-forked workers = concurrent jobs (default 1)\n"
        "  --queue N          queued-job bound; overflow sheds by priority (default 16)\n"
        "  --deadline SEC     default per-job deadline; 0 = none (default 0)\n"
        "  --grace SEC        watchdog slack past a deadline (default 2)\n"
        "  --drain-grace SEC  drain -> SIGTERM delay for in-flight jobs (default 0.5)\n"
        "  --history N        recent results kept for \"status\" (default 32)\n"
        "  --mem-limit BYTES  admission + governor budget, k/m/g suffix ok (default off)\n"
        "  --socket PATH      serve a unix stream socket (concurrent clients)\n"
        "  --cache N          result cache of N entries; repeats answer \"cached\":true\n"
        "  --per-client N     max queued+running jobs per client; 0 = unlimited\n"
        "  --state-dir DIR    durable state: write-ahead job journal + persisted\n"
        "                     result cache; a restart on the same DIR re-emits\n"
        "                     completed jobs and re-runs unfinished ones (§16)\n"
        "  --max-line BYTES   request-line cap per connection (default 1m)\n"
        "requests: one JSON object per line; see DESIGN.md §11/§13 for fields\n"
        "exit: 0 after a clean drain (SIGTERM / {\"op\":\"drain\"} / EOF)\n";
    std::exit(robust::exitCodeFor(robust::StatusCode::kUsage));
}

constexpr cli::FlagParser kFlag{usage};

// Signal-aware line reader over a raw fd: poll + read so SIGTERM wakes a
// blocked service immediately (EINTR) instead of after the next request.
// Returns false on EOF or when the drain flag is set with no queued line.
class LineReader {
public:
    explicit LineReader(int fd) : fd_(fd) {}

    bool next(std::string& line) {
        for (;;) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            if (eof_) {
                if (buf_.empty()) return false;
                line.swap(buf_);
                buf_.clear();
                return true;
            }
            if (g_drain.load(std::memory_order_relaxed)) return false;
            struct pollfd pfd {};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            const int rc = poll(&pfd, 1, 200);
            if (rc < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            if (rc == 0) continue;
            char chunk[4096];
            const ssize_t n = read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            if (n == 0) {
                eof_ = true;
                continue;
            }
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_;
    std::string buf_;
    bool eof_ = false;
};

} // namespace

int main(int argc, char** argv) {
    serve::ServiceConfig cfg;
    serve::FrontEndConfig fecfg;
    std::string socketPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("flag " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workers") cfg.workers = kFlag.number<int>(arg, value());
        else if (arg == "--queue") cfg.queueLimit = kFlag.number<int>(arg, value());
        else if (arg == "--deadline")
            cfg.defaultDeadlineSeconds = kFlag.number<double>(arg, value());
        else if (arg == "--grace") cfg.graceSeconds = kFlag.number<double>(arg, value());
        else if (arg == "--drain-grace")
            cfg.drainGraceSeconds = kFlag.number<double>(arg, value());
        else if (arg == "--history") cfg.historyLimit = kFlag.number<int>(arg, value());
        else if (arg == "--mem-limit") cfg.memLimitBytes = kFlag.byteSize(arg, value());
        else if (arg == "--socket") socketPath = value();
        else if (arg == "--cache") cfg.cacheEntries = kFlag.number<int>(arg, value());
        else if (arg == "--per-client")
            cfg.perClientInFlight = kFlag.number<int>(arg, value());
        else if (arg == "--state-dir") cfg.stateDir = value();
        else if (arg == "--max-line")
            fecfg.maxLineBytes = static_cast<std::size_t>(kFlag.byteSize(arg, value()));
        else if (arg == "--help" || arg == "-h") usage();
        else usage("unknown flag '" + arg + "'");
    }

    // Non-SA_RESTART handlers on purpose: a drain signal must interrupt
    // the blocking reads (the robust/wire helpers retry EINTR everywhere
    // it is not a cancellation point).
    struct sigaction sa {};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    robust::FaultInjector::instance().armFromEnv();

    // Client 0 (stdin mode) emits to stdout; socket clients each register
    // their own emit with the service through the front end.
    serve::Service service(cfg, [](const std::string& line) {
        std::cout << line << "\n" << std::flush;
    });

    if (socketPath.empty()) {
        LineReader reader(STDIN_FILENO);
        std::string line;
        while (!service.draining() && reader.next(line)) service.handleLine(line);
        // EOF, SIGTERM, or an in-band drain all end here with exit 0. The
        // difference: a drain (signal / request) rejects whatever is still
        // queued, while plain EOF finishes the queue — every accepted job
        // gets its response either way.
        if (g_drain.load(std::memory_order_relaxed)) service.drain();
        service.stop();
    } else {
        fecfg.socketPath = socketPath;
        serve::FrontEnd frontEnd(service, fecfg);
        const robust::Status st = frontEnd.listen();
        if (!st.ok()) {
            std::cerr << "mlpart_serve: " << st.message << "\n";
            return robust::exitCodeFor(st.code);
        }
        std::cerr << "mlpart_serve: listening on " << socketPath << "\n";
        // run() owns the shutdown sequence: stop accepting, drain, flush
        // every surviving connection, join the dispatchers.
        frontEnd.run(g_drain);
    }

    serve::JsonWriter w;
    w.field("event", "drained").field("completed", service.completedJobs());
    std::cout << w.str() << "\n" << std::flush;
    return 0;
}

#endif // _WIN32
