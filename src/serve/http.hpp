// Minimal HTTP/1.1 over POSIX sockets — just enough transport for the
// serve daemon and its CLI clients, with zero dependencies.
//
// Scope is deliberately narrow: loopback-oriented (the daemon binds
// 127.0.0.1 by default and is not an internet-facing server), one request
// per connection ("Connection: close"), bodies delimited by
// Content-Length on requests and by Content-Length *or* connection close
// on responses. Close-delimited responses are what makes streaming
// trivial: the daemon writes headers without a length, emits one JSON
// frame per line as work progresses (NDJSON), and the closed socket is
// the end-of-stream marker.
//
// The server runs one accept loop (poll()-interruptible so stop() is
// prompt) and a thread per connection, joined by the accept loop soon
// after its connection closes; the handler decides per request
// whether to stream (ResponseWriter::begin_stream + write) or answer in
// one shot (ResponseWriter::finish).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace stgsim::serve {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string path;    ///< request-target, e.g. "/v1/request"
  std::string body;
};

/// Writes one response on a connection. Exactly one of begin_stream() /
/// finish() may be used; write() is only valid after begin_stream().
class ResponseWriter {
 public:
  explicit ResponseWriter(int fd) : fd_(fd) {}

  /// Sends status + headers for a close-delimited streaming response.
  void begin_stream(int status, const std::string& content_type);
  /// Appends raw bytes to a streaming response. Returns false once the
  /// peer has gone away (the handler should stop producing).
  bool write(const std::string& chunk);
  /// One-shot response with Content-Length.
  void finish(int status, const std::string& content_type,
              const std::string& body);

  bool begun() const { return begun_; }

 private:
  int fd_;
  bool begun_ = false;
};

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; the bound port is returned by start
  };
  using Handler = std::function<void(const HttpRequest&, ResponseWriter&)>;

  HttpServer() = default;
  ~HttpServer() { stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept loop. Returns the bound port.
  /// Throws std::runtime_error when the socket cannot be set up.
  int start(const Options& options, Handler handler);
  /// Stops accepting, closes the listener, and joins every connection
  /// thread (in-flight handlers run to completion). Idempotent.
  void stop();

  int port() const { return port_; }

  /// Connection threads not yet joined: live handlers plus any finished
  /// since the accept loop last woke (it wakes at least every 200 ms).
  std::size_t connection_threads() const;

 private:
  void accept_loop();
  /// Joins the connection threads that have finished.
  void reap_finished();

  int listen_fd_ = -1;
  int port_ = 0;
  Handler handler_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex conn_mu_;  // guards the three members below
  std::uint64_t next_conn_ = 0;
  std::map<std::uint64_t, std::thread> conns_;  ///< keyed by accept order
  std::vector<std::uint64_t> finished_;         ///< ids ready to join
  std::thread accept_thread_;
};

/// Blocking client helpers (the CLI's submit/status side).
struct HttpResponse {
  int status = 0;
  std::string body;
};

/// One-shot request; the whole response body is collected (Content-Length
/// or close-delimited). Throws std::runtime_error on connection failure.
HttpResponse http_request(const std::string& host, int port,
                          const std::string& method, const std::string& path,
                          const std::string& body);

/// POST whose response body is consumed line-by-line as it arrives
/// (NDJSON streaming). `on_line` receives each newline-terminated line
/// without its terminator; a final unterminated line is delivered too.
/// Returns the HTTP status.
int http_request_stream(const std::string& host, int port,
                        const std::string& method, const std::string& path,
                        const std::string& body,
                        const std::function<void(const std::string&)>& on_line);

}  // namespace stgsim::serve
