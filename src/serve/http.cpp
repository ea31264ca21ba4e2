#include "serve/http.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "support/numparse.hpp"

namespace stgsim::serve {

namespace {

/// send() the whole buffer; MSG_NOSIGNAL so a hung-up client is an error
/// return, never a SIGPIPE that kills the daemon.
bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string head(int status, const std::string& content_type,
                 bool with_length, std::size_t length) {
  std::string h = "HTTP/1.1 " + std::to_string(status) + " " +
                  status_text(status) + "\r\n";
  h += "Content-Type: " + content_type + "\r\n";
  if (with_length) h += "Content-Length: " + std::to_string(length) + "\r\n";
  h += "Connection: close\r\n\r\n";
  return h;
}

/// Case-insensitive ASCII compare for header names.
bool iequals(const std::string& a, const char* b) {
  std::size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] - 'A' + 'a' : b[i];
    if (ca != cb) return false;
  }
  return i == a.size() && b[i] == '\0';
}

/// Reads one request (request line + headers + Content-Length body).
/// Returns false on malformed input or a closed connection.
bool read_request(int fd, HttpRequest* out) {
  std::string buf;
  char chunk[4096];
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
    header_end = buf.find("\r\n\r\n");
    if (buf.size() > (1u << 20) && header_end == std::string::npos) {
      return false;  // runaway header block
    }
  }

  const std::string header = buf.substr(0, header_end);
  const std::size_t line_end = header.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? header : header.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  out->method = request_line.substr(0, sp1);
  out->path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  std::size_t content_length = 0;
  bool have_length = false;
  std::size_t pos = line_end == std::string::npos ? header.size()
                                                  : line_end + 2;
  while (pos < header.size()) {
    std::size_t eol = header.find("\r\n", pos);
    if (eol == std::string::npos) eol = header.size();
    const std::string line = header.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = line.substr(0, colon);
    if (iequals(name, "content-length")) {
      // 1*DIGIT, optional surrounding whitespace, nothing else: no sign,
      // no trailing bytes, and a repeated header must repeat the value.
      std::string_view value(line);
      value.remove_prefix(colon + 1);
      const auto ows = [](char c) { return c == ' ' || c == '\t'; };
      while (!value.empty() && ows(value.front())) value.remove_prefix(1);
      while (!value.empty() && ows(value.back())) value.remove_suffix(1);
      long long n = 0;
      if (value.empty() || value.front() < '0' || value.front() > '9' ||
          support::parse_i64(value, &n) != support::ParseNumStatus::kOk) {
        return false;
      }
      if (n > (64 << 20)) return false;  // refuse huge bodies
      if (have_length && static_cast<std::size_t>(n) != content_length) {
        return false;
      }
      content_length = static_cast<std::size_t>(n);
      have_length = true;
    }
  }

  out->body = buf.substr(header_end + 4);
  while (out->body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out->body.append(chunk, static_cast<std::size_t>(n));
  }
  out->body.resize(content_length);
  return true;
}

int connect_to(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("cannot resolve " + host + ":" + service);
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw std::runtime_error("cannot connect to " + host + ":" + service);
  }
  return fd;
}

std::string request_head(const std::string& method, const std::string& path,
                         const std::string& host, std::size_t body_len) {
  std::string h = method + " " + path + " HTTP/1.1\r\n";
  h += "Host: " + host + "\r\n";
  h += "Content-Type: application/json\r\n";
  h += "Content-Length: " + std::to_string(body_len) + "\r\n";
  h += "Connection: close\r\n\r\n";
  return h;
}

/// Parses a response's status line + headers out of `buf` (which must
/// contain the full header block). Returns the body offset.
std::size_t parse_response_head(const std::string& buf, int* status,
                                long* content_length) {
  *status = 0;
  *content_length = -1;
  const std::size_t header_end = buf.find("\r\n\r\n");
  if (header_end == std::string::npos) return std::string::npos;
  const std::size_t sp = buf.find(' ');
  if (sp != std::string::npos && sp + 4 <= header_end) {
    *status = std::atoi(buf.c_str() + sp + 1);
  }
  std::size_t pos = buf.find("\r\n") + 2;
  while (pos < header_end) {
    std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string line = buf.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (iequals(line.substr(0, colon), "content-length")) {
      std::size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      *content_length = std::strtol(line.c_str() + v, nullptr, 10);
    }
  }
  return header_end + 4;
}

}  // namespace

void ResponseWriter::begin_stream(int status,
                                  const std::string& content_type) {
  begun_ = true;
  const std::string h = head(status, content_type, /*with_length=*/false, 0);
  send_all(fd_, h.data(), h.size());
}

bool ResponseWriter::write(const std::string& chunk) {
  return send_all(fd_, chunk.data(), chunk.size());
}

void ResponseWriter::finish(int status, const std::string& content_type,
                            const std::string& body) {
  begun_ = true;
  const std::string h =
      head(status, content_type, /*with_length=*/true, body.size());
  send_all(fd_, h.data(), h.size());
  send_all(fd_, body.data(), body.size());
}

int HttpServer::start(const Options& options, Handler handler) {
  handler_ = std::move(handler);

  addrinfo hints{};
  hints.ai_family = AF_INET;  // loopback service; v4 keeps the port file simple
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(options.port);
  if (::getaddrinfo(options.host.c_str(), service.c_str(), &hints, &res) !=
          0 ||
      res == nullptr) {
    throw std::runtime_error("cannot resolve bind address " + options.host);
  }
  listen_fd_ = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(res);
    throw std::runtime_error("cannot create listening socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, res->ai_addr, res->ai_addrlen) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::freeaddrinfo(res);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot bind " + options.host + ":" + service +
                             ": " + err);
  }
  ::freeaddrinfo(res);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return port_;
}

void HttpServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/200);
    reap_finished();
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // The thread is created under the lock, so it cannot announce its
    // own end before it is in conns_.
    std::lock_guard lk(conn_mu_);
    const std::uint64_t id = next_conn_++;
    conns_.emplace(id, std::thread([this, fd, id] {
      HttpRequest req;
      if (read_request(fd, &req)) {
        ResponseWriter w(fd);
        try {
          handler_(req, w);
          if (!w.begun()) w.finish(404, "text/plain", "not found\n");
        } catch (const std::exception& e) {
          if (!w.begun()) {
            w.finish(500, "text/plain", std::string(e.what()) + "\n");
          }
        }
      }
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      std::lock_guard done(conn_mu_);
      finished_.push_back(id);
    }));
  }
}

void HttpServer::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard lk(conn_mu_);
    for (const std::uint64_t id : finished_) {
      const auto it = conns_.find(id);
      done.push_back(std::move(it->second));
      conns_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

std::size_t HttpServer::connection_threads() const {
  std::lock_guard lk(conn_mu_);
  return conns_.size();
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Every handler still running is waited for; the accept loop has
  // exited, so nothing else joins or adds threads now.
  std::map<std::uint64_t, std::thread> conns;
  {
    std::lock_guard lk(conn_mu_);
    conns.swap(conns_);
  }
  for (auto& [id, t] : conns) t.join();
  std::lock_guard lk(conn_mu_);
  finished_.clear();
}

HttpResponse http_request(const std::string& host, int port,
                          const std::string& method, const std::string& path,
                          const std::string& body) {
  const int fd = connect_to(host, port);
  const std::string h = request_head(method, path, host, body.size());
  if (!send_all(fd, h.data(), h.size()) ||
      !send_all(fd, body.data(), body.size())) {
    ::close(fd);
    throw std::runtime_error("connection lost while sending request");
  }

  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  HttpResponse resp;
  long content_length = -1;
  const std::size_t body_off =
      parse_response_head(buf, &resp.status, &content_length);
  if (body_off == std::string::npos) {
    throw std::runtime_error("malformed HTTP response");
  }
  resp.body = buf.substr(body_off);
  if (content_length >= 0 &&
      resp.body.size() > static_cast<std::size_t>(content_length)) {
    resp.body.resize(static_cast<std::size_t>(content_length));
  }
  return resp;
}

int http_request_stream(
    const std::string& host, int port, const std::string& method,
    const std::string& path, const std::string& body,
    const std::function<void(const std::string&)>& on_line) {
  const int fd = connect_to(host, port);
  const std::string h = request_head(method, path, host, body.size());
  if (!send_all(fd, h.data(), h.size()) ||
      !send_all(fd, body.data(), body.size())) {
    ::close(fd);
    throw std::runtime_error("connection lost while sending request");
  }

  std::string buf;
  char chunk[4096];
  int status = 0;
  long content_length = -1;
  std::size_t body_off = std::string::npos;
  // Header block first, then deliver body lines as they arrive.
  std::size_t consumed = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    if (body_off == std::string::npos) {
      body_off = parse_response_head(buf, &status, &content_length);
      if (body_off == std::string::npos) continue;
      consumed = body_off;
    }
    for (;;) {
      const std::size_t nl = buf.find('\n', consumed);
      if (nl == std::string::npos) break;
      on_line(buf.substr(consumed, nl - consumed));
      consumed = nl + 1;
    }
  }
  ::close(fd);
  if (body_off == std::string::npos) {
    throw std::runtime_error("malformed HTTP response");
  }
  if (consumed < buf.size()) on_line(buf.substr(consumed));
  return status;
}

}  // namespace stgsim::serve
