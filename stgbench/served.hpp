// The benchmark's side of `stgsim serve`: start and stop the real daemon
// binary as a child process, and send it requests over loopback HTTP with
// the phases of each exchange timed separately.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "trace.hpp"

namespace stgbench {

/// One `stgsim serve` child process. The destructor drains it (shutdown
/// request, then SIGTERM, then SIGKILL) and waits until it has exited.
class Daemon {
 public:
  /// Spawns `stgsim_bin serve` on an ephemeral loopback port with a
  /// private cache directory, and returns once it answers /v1/status.
  /// Throws std::runtime_error when it does not come up in time.
  Daemon(const std::string& stgsim_bin, const std::string& work_dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Peak resident memory (VmHWM) and CPU seconds used so far.
  double peak_rss_mb() const;
  double cpu_seconds() const;

  /// Stops the daemon and waits for it; idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// A streamed request's outcome as the client saw it.
struct Exchange {
  int status = 0;                  ///< HTTP status
  std::vector<std::string> lines;  ///< NDJSON frames, in arrival order
  double total_s = 0.0;            ///< connect start -> connection closed
};

/// POSTs `body` to /v1/request on 127.0.0.1:`port` and reads the
/// close-delimited response. With `tracer` recording, the connect, the
/// wait for the first byte and the rest of the stream are spans under
/// `serve.request` with id `id`. Throws std::runtime_error on socket
/// failure.
Exchange post_request(int port, const std::string& body, Tracer& tracer,
                      std::int64_t id);

}  // namespace stgbench
