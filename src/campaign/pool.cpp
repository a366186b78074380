#include "campaign/pool.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <deque>
#include <string>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::campaign {

namespace {

struct Worker {
  pid_t pid = -1;
  int cmdFd = -1;           ///< parent -> child: job index lines, then "q"
  int resFd = -1;           ///< child -> parent: one payload line per job
  std::string buf;          ///< partial payload line read so far
  bool busy = false;
  std::size_t current = 0;  ///< outstanding job index while busy
  std::deque<std::size_t> queue;
  std::uint64_t completed = 0;

  bool alive() const { return resFd >= 0; }
};

void writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // worker died mid-write; its result-pipe EOF reports it
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Child-side loop: read index lines off the command pipe, run the job,
/// write the payload line back. Exits only via _exit — a forked child must
/// not run the parent's atexit/stream teardown.
[[noreturn]] void workerLoop(int cmdFd, int resFd, const PoolJobFn& job) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl == std::string::npos) {
      const ssize_t n = ::read(cmdFd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(0);  // parent closed the pipe (or died)
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (line == "q") ::_exit(0);
    std::string payload =
        job(parseNumber<std::size_t>("campaign pool job index", line));
    WMSN_REQUIRE_MSG(payload.find('\n') == std::string::npos,
                     "pool job payload may not contain newlines");
    payload += '\n';
    writeAll(resFd, payload);
  }
}

void spawnWorker(Worker& me, const std::vector<Worker>& all,
                 const PoolJobFn& job) {
  int cmd[2] = {-1, -1};
  int res[2] = {-1, -1};
  WMSN_REQUIRE_MSG(::pipe(cmd) == 0 && ::pipe(res) == 0,
                   "campaign pool: pipe() failed");
  const pid_t pid = ::fork();
  WMSN_REQUIRE_MSG(pid >= 0, "campaign pool: fork() failed");
  if (pid == 0) {
    // Keep only this worker's endpoints. Inherited copies of sibling pipes
    // would hold them open and mask the EOF the parent relies on to detect
    // a sibling's crash.
    ::close(cmd[1]);
    ::close(res[0]);
    for (const Worker& other : all) {
      if (other.cmdFd >= 0) ::close(other.cmdFd);
      if (other.resFd >= 0) ::close(other.resFd);
    }
    workerLoop(cmd[0], res[1], job);
  }
  ::close(cmd[0]);
  ::close(res[1]);
  me.pid = pid;
  me.cmdFd = cmd[1];
  me.resFd = res[0];
  me.buf.clear();
  me.busy = false;
}

void reapWorker(Worker& me) {
  if (me.cmdFd >= 0) ::close(me.cmdFd);
  if (me.resFd >= 0) ::close(me.resFd);
  me.cmdFd = -1;
  me.resFd = -1;
  me.buf.clear();
  if (me.pid > 0) {
    int status = 0;
    ::waitpid(me.pid, &status, 0);
    me.pid = -1;
  }
}

bool anyQueued(const std::vector<Worker>& workers) {
  for (const Worker& w : workers)
    if (!w.queue.empty()) return true;
  return false;
}

/// Hands worker `w` its next job — from its own queue, else stolen from the
/// tail of the longest sibling queue. Returns false when no job remains.
bool dispatch(std::vector<Worker>& workers, unsigned w, PoolStats& stats) {
  Worker& me = workers[w];
  if (me.queue.empty()) {
    Worker* victim = nullptr;
    for (Worker& other : workers)
      if (!other.queue.empty() &&
          (victim == nullptr || other.queue.size() > victim->queue.size()))
        victim = &other;
    if (victim == nullptr) return false;
    me.queue.push_back(victim->queue.back());
    victim->queue.pop_back();
    ++stats.stolen;
  }
  me.current = me.queue.front();
  me.queue.pop_front();
  me.busy = true;
  writeAll(me.cmdFd, std::to_string(me.current) + "\n");
  return true;
}

}  // namespace

PoolStats runForkPool(std::size_t jobCount, unsigned workers,
                      const PoolJobFn& job, const PoolResultFn& onResult) {
  WMSN_REQUIRE_MSG(workers >= 1, "campaign pool needs at least one worker");
  PoolStats stats;
  if (jobCount == 0) return stats;
  if (workers > jobCount) workers = static_cast<unsigned>(jobCount);

  // A worker that dies between dispatch and read would otherwise deliver
  // SIGPIPE to the parent; EOF on its result pipe is the crash signal.
  using SigHandler = void (*)(int);
  const SigHandler oldPipe = std::signal(SIGPIPE, SIG_IGN);

  std::vector<Worker> pool(workers);
  for (std::size_t i = 0; i < jobCount; ++i)
    pool[i % workers].queue.push_back(i);
  for (Worker& w : pool) spawnWorker(w, pool, job);
  for (unsigned w = 0; w < workers; ++w) dispatch(pool, w, stats);

  std::size_t remaining = jobCount;
  std::vector<pollfd> fds(workers);
  while (remaining > 0) {
    for (unsigned w = 0; w < workers; ++w)
      fds[w] = {pool[w].resFd, POLLIN, 0};  // fd -1 == ignored by poll
    const int rc = ::poll(fds.data(), workers, -1);
    if (rc < 0 && errno == EINTR) continue;
    WMSN_REQUIRE_MSG(rc > 0, "campaign pool: poll() failed");

    for (unsigned w = 0; w < workers; ++w) {
      Worker& me = pool[w];
      if (!me.alive() ||
          (fds[w].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      char chunk[65536];
      const ssize_t n = ::read(me.resFd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;

      if (n > 0) {
        me.buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl = 0;
        while ((nl = me.buf.find('\n')) != std::string::npos) {
          const std::string payload = me.buf.substr(0, nl);
          me.buf.erase(0, nl + 1);
          WMSN_REQUIRE_MSG(me.busy,
                           "campaign pool: unsolicited worker payload");
          me.busy = false;
          ++me.completed;
          --remaining;
          onResult(me.current, false, payload, w);
          dispatch(pool, w, stats);
        }
        continue;
      }

      // EOF (or hard read error): the worker died. Only the outstanding job
      // is lost; its queue stays with the parent. Fork a replacement if any
      // queued work could still land on this slot.
      reapWorker(me);
      if (me.busy) {
        me.busy = false;
        --remaining;
        ++stats.crashes;
        onResult(me.current, true, "", w);
      }
      if (remaining > 0 && anyQueued(pool)) {
        spawnWorker(me, pool, job);
        ++stats.respawns;
        dispatch(pool, w, stats);
      }
    }
  }

  stats.perWorkerCompleted.assign(workers, 0);
  for (unsigned w = 0; w < workers; ++w) {
    Worker& me = pool[w];
    stats.perWorkerCompleted[w] = me.completed;
    if (!me.alive()) continue;
    writeAll(me.cmdFd, "q\n");
    reapWorker(me);
  }
  std::signal(SIGPIPE, oldPipe);
  return stats;
}

}  // namespace wmsn::campaign
