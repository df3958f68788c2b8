// Pre-forked worker pool (DESIGN.md §13) — the service's only way to
// run a job.
//
// Each slot owns one long-lived child process that serves JobRequest
// records (robust/wire.h) from a pipe and answers each with one CRC
// record holding its JobOutcome, so a stream of small jobs pays no fork per job while
// containment stays per *worker*: a worker that crashes, tears a record,
// violates the protocol, or is watchdog-killed is reaped and respawned
// on the next job — with per-slot crash accounting and exponential
// backoff on a flapping worker, so a poisoned pool degrades into slow
// retries instead of a fork bomb.
//
// Threading contract: slot i is driven by exactly one dispatcher thread
// at a time (the service pins dispatcher i to slot i); stats() may be
// called from any thread.
#pragma once

#if !defined(_WIN32)

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

#include "serve/job.h"
#include "serve/supervisor.h"

namespace mlpart::serve {

struct WorkerPoolConfig {
    int slots = 1;
    /// First respawn delay after a worker death; doubles per consecutive
    /// failure up to backoffCapSeconds, resets on any served job.
    double backoffBaseSeconds = 0.05;
    double backoffCapSeconds = 2.0;
};

/// Snapshot of one slot for {"op":"status"} — soak assertions read these
/// instead of scraping logs.
struct WorkerSlotStats {
    std::int64_t jobsServed = 0;
    std::int64_t crashes = 0;   ///< worker deaths while this slot owned a job
    std::int64_t respawns = 0;  ///< fresh processes forked after the first
    int consecutiveFailures = 0;
    bool backoffActive = false; ///< a respawn is currently being delayed
    bool alive = false;
};

class WorkerPool {
public:
    explicit WorkerPool(WorkerPoolConfig cfg);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Dispatches one job attempt to slot `slot`, spawning or respawning
    /// the worker as needed (honouring the slot's backoff). Applies the
    /// watchdog / drain / cancel supervision policy and classifies every
    /// worker failure mode into the returned Attempt (valid record >
    /// watchdog > signal > exit code). Throws only for parent-side spawn
    /// failures (classified retryable by the caller).
    [[nodiscard]] Attempt runAttempt(int slot, const JobRequest& req, int attempt,
                                     const SupervisorConfig& cfg, const DrainState* drain,
                                     const std::atomic<bool>* cancel);

    /// Forks every slot's worker now, before any dispatcher drives a
    /// slot. Call it while no other thread is busy: a child forked while
    /// another thread holds a lock inherits it held and deadlocks on it.
    /// glibc malloc takes its own locks across fork, but sanitizer
    /// allocators may not (GCC 12's ASan deadlocked forked workers this
    /// way). A spawn that fails here is left to runAttempt, which spawns
    /// lazily as it does after every worker death.
    void prespawn();

    /// Closes every job pipe (workers exit on EOF), reaps with a bounded
    /// wait, SIGKILLs stragglers. Idempotent; the destructor calls it.
    void shutdown();

    [[nodiscard]] int slots() const { return static_cast<int>(slots_.size()); }
    [[nodiscard]] std::vector<WorkerSlotStats> stats() const;
    [[nodiscard]] std::int64_t respawnTotal() const;

private:
    struct Slot {
        pid_t pid = -1;
        int jobFd = -1;    ///< parent writes request records
        int resultFd = -1; ///< parent reads outcome records
        std::int64_t jobsServed = 0;
        std::int64_t crashes = 0;
        std::int64_t respawns = 0;
        int consecutiveFailures = 0;
        std::int64_t backoffUntilNs = 0;
        bool backoffActive = false;
        bool everSpawned = false;
    };

    void spawnLocked(Slot& s); ///< caller holds spawnMu_; throws Error on failure
    void spawn(Slot& s);
    /// Reaps a dead worker's corpse and closes its pipes. Returns the
    /// wait status (0 when the pid was already gone).
    int reap(Slot& s);
    void noteFailure(Slot& s); ///< crash accounting + backoff scheduling
    void waitOutBackoff(Slot& s);

    WorkerPoolConfig cfg_;
    std::vector<Slot> slots_;
    /// Serializes spawn/teardown so a child forked by one dispatcher can
    /// close every *other* slot's pipe fds (a sibling holding a stray
    /// write end would keep that sibling's job pipe from ever reaching
    /// EOF at shutdown). Also guards the counters stats() reads.
    mutable std::mutex mu_;
    bool shutdown_ = false;
};

} // namespace mlpart::serve

#endif // !_WIN32
