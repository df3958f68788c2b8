// Worker side of the process boundary (DESIGN.md §11, §13).
//
// executeJob() is the pure library path — request in, outcome out, no
// process machinery — shared by the pool worker and the unit tests that
// want to exercise job semantics without forking. workerPoolMain() is
// what actually runs inside each pre-forked worker: it installs the
// SIGTERM→cancel handler and, per job read off its job pipe, re-arms
// fault injection (the containment tests' handle), visits the
// serve.worker_crash / serve.worker_hang / serve.pipe sites, and writes
// the outcome record to the result pipe. It always leaves via _exit() — a
// worker never returns into the parent's stack.
#pragma once

#include <atomic>
#include <initializer_list>

#include "serve/job.h"

namespace mlpart::serve {

/// Runs the partitioning job in the current process and classifies every
/// failure into JobOutcome::status — this function does not throw. A
/// non-null `cancel` flag is bound to the run's deadline so an external
/// signal (drain) winds the job down cooperatively: the in-flight start
/// finishes, the rest are skipped, best-so-far + checkpoint are kept.
[[nodiscard]] JobOutcome executeJob(const JobRequest& req, const std::atomic<bool>* cancel);

#if !defined(_WIN32)
/// Post-fork hygiene, called first thing in every worker child: closes
/// every inherited descriptor except std{in,out,err} and `keep` (the
/// child's own pipe ends). Workers never exec, so FD_CLOEXEC cannot do
/// this. Without it a long-lived pool worker holds duplicates of client
/// sockets, sibling pipes, and the listen socket — a client whose
/// connection the front end closed would then never see EOF, and a
/// rebound socket path could still have a live listener in a child.
void closeInheritedFds(std::initializer_list<int> keep);

/// Child entry for a pre-forked pool worker (DESIGN.md §13): loops
/// reading JobRequest records (robust/wire.h) from `jobFd` and answering
/// each with one JobOutcome record on `resultFd`. Per job it clears the cancel
/// flag and re-arms fault injection from the request spec (or the
/// environment when the spec is empty), so every job sees fresh fault
/// hit counters however long its worker has lived. EOF on `jobFd` is the
/// clean shutdown signal (_exit(0)); any record damage on the job pipe
/// is fatal to the worker, never guessed around. Never returns.
[[noreturn]] void workerPoolMain(int jobFd, int resultFd);
#endif

} // namespace mlpart::serve
