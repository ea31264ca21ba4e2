#include "served.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/http.hpp"

extern char** environ;

namespace stgbench {

namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Waits up to `timeout_s` for `pid` to exit; true once it has been reaped.
bool wait_exit(pid_t pid, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the daemon");
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Daemon::Daemon(const std::string& stgsim_bin, const std::string& work_dir) {
  fs::create_directories(work_dir);
  const std::string port_file = work_dir + "/port";
  const std::string log_file = work_dir + "/daemon.log";
  fs::remove(port_file);

  std::vector<std::string> args = {stgsim_bin,  "serve",
                                   "--cache-dir", work_dir + "/cache",
                                   "--port",      "0",
                                   "--port-file", port_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, stgsim_bin.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + stgsim_bin);
  }

  // Ready = the port file is complete and /v1/status answers.
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start; see " + log_file);
    }
    const std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = std::atoi(text.c_str());
      try {
        if (stgsim::serve::http_request("127.0.0.1", port_, "GET",
                                        "/v1/status", "")
                .status == 200) {
          return;
        }
      } catch (const std::exception&) {
        // not listening yet
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
  throw std::runtime_error("daemon did not become ready; see " + log_file);
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ < 0) return;
  if (port_ > 0) {
    try {
      stgsim::serve::http_request("127.0.0.1", port_, "POST", "/v1/shutdown",
                                  "");
    } catch (const std::exception&) {
      // already gone; the signals below cover it
    }
  }
  if (!wait_exit(pid_, 10.0)) {
    ::kill(pid_, SIGTERM);
    if (!wait_exit(pid_, 5.0)) {
      ::kill(pid_, SIGKILL);
      wait_exit(pid_, 60.0);
    }
  }
  pid_ = -1;
}

double Daemon::peak_rss_mb() const {
  std::istringstream in(read_file("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double Daemon::cpu_seconds() const {
  // /proc/<pid>/stat: fields 14 and 15 are utime and stime in clock ticks,
  // counted after the parenthesised command name.
  const std::string text =
      read_file("/proc/" + std::to_string(pid_) + "/stat");
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Exchange post_request(int port, const std::string& body, Tracer& tracer,
                      std::int64_t id) {
  Exchange ex;
  tracer.span("serve.request", id, [&] {
    const Clock::time_point t0 = Clock::now();
    const int fd = tracer.span("serve.connect", id,
                               [&] { return connect_loopback(port); });
    std::ostringstream head;
    head << "POST /v1/request HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         << "Content-Type: application/json\r\nContent-Length: "
         << body.size() << "\r\nConnection: close\r\n\r\n";

    std::string buf;
    char chunk[16384];
    auto recv_some = [&] {
      for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
        return n > 0;
      }
    };
    const bool sent = tracer.span("serve.first_byte", id, [&] {
      if (!send_all(fd, head.str() + body)) return false;
      recv_some();
      return true;
    });
    tracer.span("serve.stream", id, [&] {
      while (sent && recv_some()) {
      }
      return 0;
    });
    ::close(fd);
    ex.total_s = seconds_between(t0, Clock::now());
    if (!sent) throw std::runtime_error("connection lost while sending");

    const std::size_t head_end = buf.find("\r\n\r\n");
    if (buf.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
      throw std::runtime_error("malformed HTTP response");
    }
    ex.status = std::atoi(buf.c_str() + 9);
    std::istringstream lines(buf.substr(head_end + 4));
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) ex.lines.push_back(line);
    }
    return 0;
  });
  return ex;
}

}  // namespace stgbench
