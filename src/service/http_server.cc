#include "service/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "obs/log.h"
#include "util/logging.h"
#include "util/strings.h"

namespace vas {

namespace {

/// epoll_event.data.u64 tags for the two non-connection fds; connection
/// ids start above them (fd numbers are recycled by the kernel, ids are
/// not, so stale events and late worker completions can never hit the
/// wrong connection).
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kWakeTag = 2;

/// Deadline granularity of the event loop: idle timeouts, mid-head
/// stalls, and write stalls are detected within one sweep period.
constexpr int kSweepMs = 50;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string ToLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Statuses defined to carry no body — the response frame ends at the
/// blank line, so Content-Length is omitted entirely.
bool IsBodylessStatus(int status) {
  return status == 204 || status == 304 || (status >= 100 && status < 200);
}

/// Sends the whole buffer on a *blocking* socket, retrying partial
/// writes and EINTR. Used by the test/bench client only — the server
/// never blocks on a send. MSG_NOSIGNAL keeps a peer that hung up from
/// killing the process with SIGPIPE.
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SetIoTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// recv() wrapper distinguishing the ways a blocking read stops:
/// bytes, EOF, timeout (SO_RCVTIMEO expiry), or a hard error.
enum class RecvOutcome { kData, kEof, kTimeout, kError };

RecvOutcome RecvRetry(int fd, char* buf, size_t len, ssize_t* n_out) {
  for (;;) {
    ssize_t n = ::recv(fd, buf, len, 0);
    if (n > 0) {
      *n_out = n;
      return RecvOutcome::kData;
    }
    if (n == 0) return RecvOutcome::kEof;
    if (errno == EINTR) continue;  // interrupted, not failed — retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvOutcome::kTimeout;
    return RecvOutcome::kError;
  }
}

/// Serializes the status line and headers (through the blank line);
/// the body travels separately so cached tiles never get copied into
/// the head string. `body_size` feeds Content-Length.
std::string SerializeHead(const HttpResponse& response, size_t body_size,
                          bool keep_alive) {
  bool bodyless = IsBodylessStatus(response.status);
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  if (!bodyless) {
    out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

/// True when the `Connection` header value (a comma-separated token
/// list) contains `token` (already lowercase).
bool ConnectionHeaderHas(const std::string& value, const char* token) {
  for (const std::string& part : Split(ToLower(value), ',')) {
    if (StripWhitespace(part) == token) return true;
  }
  return false;
}

/// Parses one request head (request line + header lines, without the
/// terminating blank line). `has_body` reports a nonzero
/// Content-Length or any Transfer-Encoding — this server never reads
/// request bodies, so such connections must close after the response
/// to keep the request framing intact.
bool ParseRequestHead(const std::string& head_text, HttpRequest* request,
                      bool* has_body) {
  *has_body = false;
  std::vector<std::string> lines = Split(head_text, '\n');
  if (lines.empty()) return false;
  std::string request_line = lines.front();
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  std::vector<std::string> parts = Split(request_line, ' ');
  if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) return false;
  request->method = parts[0];
  request->target = parts[1];
  request->version = parts[2];
  ParseTarget(request->target, &request->path, &request->query);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string line = lines[i];
    if (!line.empty() && line.back() == '\r') line.pop_back();
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    request->headers[ToLower(line.substr(0, colon))] =
        std::string(StripWhitespace(line.substr(colon + 1)));
  }
  auto content_length = request->headers.find("content-length");
  if (content_length != request->headers.end()) {
    auto length = ParseInt64(content_length->second);
    *has_body = !length.ok() || *length != 0;
  }
  if (request->headers.count("transfer-encoding") > 0) *has_body = true;
  return true;
}

/// The connection limit when Options.max_connections is 0: everything
/// the fd rlimit allows minus headroom for datasets, spill files, and
/// the server's own plumbing.
size_t FdDerivedConnectionLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1024;
  auto soft = static_cast<size_t>(limit.rlim_cur);
  constexpr size_t kHeadroom = 128;
  if (soft > 2 * kHeadroom) return soft - kHeadroom;
  return std::max<size_t>(16, soft / 2);
}

}  // namespace

std::string UriDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '%' && i + 2 < in.size()) {
      int hi = HexDigit(in[i + 1]);
      int lo = HexDigit(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(in[i]);
  }
  return out;
}

void ParseTarget(const std::string& target, std::string* path,
                 std::map<std::string, std::string>* query) {
  query->clear();
  size_t qmark = target.find('?');
  *path = UriDecode(target.substr(0, qmark));
  if (qmark == std::string::npos) return;
  for (const std::string& pair :
       Split(target.substr(qmark + 1), '&')) {
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    std::string key = UriDecode(pair.substr(0, eq));
    std::string value = eq == std::string::npos
                            ? std::string()
                            : UriDecode(pair.substr(eq + 1));
    (*query)[key] = value;
  }
}

bool EtagMatches(const std::string& if_none_match, const std::string& etag) {
  auto strip_weak = [](std::string_view tag) {
    if (tag.size() >= 2 && tag[0] == 'W' && tag[1] == '/') {
      tag.remove_prefix(2);
    }
    return tag;
  };
  std::string_view header = StripWhitespace(if_none_match);
  if (header.empty() || etag.empty()) return false;
  if (header == "*") return true;
  std::string_view target = strip_weak(StripWhitespace(etag));
  for (const std::string& candidate : Split(header, ',')) {
    if (strip_weak(StripWhitespace(candidate)) == target) return true;
  }
  return false;
}

/// One ready-to-send response handed from a worker (or the event
/// thread's own transport-error paths) back to the event loop.
struct HttpServer::Completion {
  uint64_t conn_id = 0;
  std::string head;
  /// Exactly one of `body` / `shared_body` carries the payload when
  /// `include_body`; shared bodies (cached tiles) are never copied.
  std::string body;
  std::shared_ptr<const std::string> shared_body;
  bool include_body = false;
  bool keep_alive = false;
  /// The request's trace, handed back from the worker. The event
  /// thread parks it on the connection until the response bytes drain.
  std::shared_ptr<obs::RequestTrace> trace;
  /// When the request left the event thread for the pool (0 for
  /// transport-level direct responses) — feeds the request duration
  /// histogram.
  uint64_t dispatch_ns = 0;
};

/// A trace waiting for its response's last byte to reach the socket.
struct HttpServer::PendingTrace {
  std::shared_ptr<obs::RequestTrace> trace;
  /// Value of Conn::queued_bytes_total at which this response ends;
  /// once sent_bytes_total passes it, the send_drain span closes.
  uint64_t end_offset = 0;
  /// The open send_drain span's handle.
  size_t drain_span = 0;
};

/// Per-connection state, owned exclusively by the event thread.
struct HttpServer::Conn {
  uint64_t id = 0;
  int fd = -1;
  /// epoll interest currently registered for this fd.
  uint32_t events = 0;
  /// A request from this connection is at a worker; at most one at a
  /// time, so pipelined responses stay ordered.
  bool handling = false;
  /// No further requests will be read; close once the output drains.
  bool closing = false;
  /// Peer half-closed its write side; whatever is already buffered in
  /// `in` may still contain pipelined requests to serve.
  bool read_eof = false;
  /// Requests dispatched on this connection (feeds the per-connection
  /// request cap).
  size_t dispatched = 0;
  /// Received, unconsumed bytes (partial head + pipelined backlog).
  std::string in;
  /// Resume point for the "\r\n\r\n" scan — keeps trickled heads
  /// linear instead of rescanning `in` per read.
  size_t scan_pos = 0;
  /// Output queue: head and body segments of buffered responses. A
  /// shared segment serves a cached tile without copying its bytes.
  struct OutSeg {
    std::string owned;
    std::shared_ptr<const std::string> shared;
    size_t offset = 0;
    const std::string& bytes() const {
      return shared != nullptr ? *shared : owned;
    }
  };
  std::deque<OutSeg> out;
  /// Unsent bytes across `out` (the backpressure gauge).
  size_t out_bytes = 0;
  /// Lifetime byte counters for this connection: everything ever
  /// queued for output vs everything actually sent. Their difference
  /// is out_bytes; traces use the absolute values to learn when their
  /// response has fully drained.
  uint64_t queued_bytes_total = 0;
  uint64_t sent_bytes_total = 0;
  /// Traces of responses still (partially) in the output buffer, in
  /// response order.
  std::deque<PendingTrace> pending_traces;
  /// Idle clock: creation time, refreshed whenever the output drains.
  int64_t last_activity_ms = 0;
  /// When the current (incomplete) request head started arriving.
  int64_t head_start_ms = 0;
  /// Last write progress; a stalled reader with pending output is
  /// dropped after io_timeout_seconds without progress.
  int64_t last_write_ms = 0;
};

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  VAS_CHECK(handler_ != nullptr);
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  requests_served_ = registry_->GetCounter(
      "vas_http_requests_total", "Requests fully handled (queued to send).");
  active_connections_ = registry_->GetGauge(
      "vas_http_active_connections",
      "Connections currently open (serving or idle in keep-alive).");
  connections_accepted_ = registry_->GetCounter(
      "vas_http_connections_accepted_total", "Connections accepted.");
  connections_refused_ = registry_->GetCounter(
      "vas_http_connections_refused_total",
      "Connections refused with 503 at the connection limit.");
  bytes_received_ = registry_->GetCounter("vas_http_bytes_received_total",
                                          "Request bytes read from sockets.");
  bytes_sent_ = registry_->GetCounter("vas_http_bytes_sent_total",
                                      "Response bytes written to sockets.");
  request_duration_ns_ = registry_->GetHistogram(
      "vas_http_request_duration_ns",
      "Dispatch-to-response-queued latency (queue wait + handler + "
      "serialize).");
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IoError("bind " + options_.bind_address + ":" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 1024) != 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status status =
        Status::IoError(std::string("epoll/eventfd: ") + std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    epoll_fd_ = wake_fd_ = listen_fd_ = -1;
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  connection_limit_ = options_.max_connections > 0
                          ? options_.max_connections
                          : FdDerivedConnectionLimit();
  pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, options_.num_threads), registry_, "http");
  event_thread_ = std::thread([this]() { EventLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!started_.load()) return;
  stopping_.store(true);
  Wake();
  // The event thread drains: idle sockets close on its next pass,
  // in-flight requests finish, then the loop exits with no connections
  // left. Only after it has joined is the pool shut down (the event
  // thread is the only submitter) and only then do the fds close
  // (workers may still poke wake_fd_ for connections that died).
  static std::mutex stop_mu;
  std::lock_guard<std::mutex> lock(stop_mu);
  if (event_thread_.joinable()) event_thread_.join();
  if (pool_ != nullptr) pool_->Shutdown();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void HttpServer::Wake() {
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void HttpServer::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  Wake();
}

void HttpServer::EventLoop() {
  std::vector<epoll_event> events(512);
  bool listen_open = true;
  int64_t next_sweep = NowMs() + kSweepMs;
  for (;;) {
    if (stopping_.load()) {
      if (listen_open) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
        listen_open = false;
      }
      CloseIdleConnections();
      if (conns_.empty()) break;
    }
    int timeout = static_cast<int>(
        std::clamp<int64_t>(next_sweep - NowMs(), 0, kSweepMs));
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout);
    if (n < 0 && errno != EINTR) continue;
    for (int i = 0; i < std::max(n, 0); ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag == kListenTag) {
        if (listen_open) AcceptReady();
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn* conn = it->second.get();
      uint32_t ev = events[i].events;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        DestroyConn(conn);
        continue;
      }
      bool alive = true;
      if ((ev & EPOLLIN) != 0) alive = ReadReady(conn);
      if (alive && conn->out_bytes > 0) alive = FlushOutput(conn);
      if (alive && !conn->handling && conn->out_bytes == 0 &&
          (conn->closing || (conn->read_eof && conn->in.empty()))) {
        DestroyConn(conn);
        continue;
      }
      if (alive) UpdateInterest(conn);
    }
    DrainCompletions();
    if (NowMs() >= next_sweep) {
      SweepDeadlines();
      next_sweep = NowMs() + kSweepMs;
    }
  }
}

void HttpServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    if (conns_.size() >= connection_limit_) {
      // Refuse, but never block the event loop on a slow or malicious
      // client: one non-blocking send, dropped on EAGAIN, then close.
      connections_refused_->Increment();
      static const std::string kRefuseWire = [] {
        HttpResponse busy;
        busy.status = 503;
        busy.body = "too many connections\n";
        return SerializeHead(busy, busy.body.size(), /*keep_alive=*/false) +
               busy.body;
      }();
      ssize_t ignored = ::send(fd, kRefuseWire.data(), kRefuseWire.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      (void)ignored;
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->events = EPOLLIN;
    conn->last_activity_ms = NowMs();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    connections_accepted_->Increment();
    active_connections_->Add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void HttpServer::DestroyConn(Conn* conn) {
  // Responses that never fully reached the socket still finish their
  // traces (marked aborted) so /debug/requests shows the disconnect.
  while (!conn->pending_traces.empty()) {
    FinishTrace(std::move(conn->pending_traces.front()), /*aborted=*/true);
    conn->pending_traces.pop_front();
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  active_connections_->Add(-1);
  conns_.erase(conn->id);  // frees `conn`
}

bool HttpServer::ReadReady(Conn* conn) {
  // Read-ahead is bounded just past the head limit: a client that
  // pipelines faster than we respond parks its bytes in the kernel
  // buffer (TCP backpressure), not in server memory.
  const size_t in_cap = options_.max_request_bytes + 4096;
  char buf[16384];
  while (conn->in.size() < in_cap) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (conn->in.empty()) conn->head_start_ms = NowMs();
      conn->in.append(buf, static_cast<size_t>(n));
      bytes_received_->Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer half-closed; already-buffered pipelined requests (and the
      // in-flight one) still get responses before the fd closes.
      conn->read_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    DestroyConn(conn);
    return false;
  }
  return ProcessInput(conn);
}

bool HttpServer::ProcessInput(Conn* conn) {
  // Parse and dispatch request heads out of `in`, one in flight at a
  // time; the rest of a pipelined burst waits its turn here.
  while (!conn->handling && !conn->closing && !conn->in.empty()) {
    size_t from = conn->scan_pos > 3 ? conn->scan_pos - 3 : 0;
    size_t head_end = conn->in.find("\r\n\r\n", from);
    if (head_end == std::string::npos) {
      conn->scan_pos = conn->in.size();
      if (conn->in.size() > options_.max_request_bytes) {
        HttpResponse response;
        response.status = 431;
        response.body = "request head too large\n";
        if (!QueueDirectResponse(conn, response)) return false;
      }
      break;
    }
    if (head_end > options_.max_request_bytes) {
      HttpResponse response;
      response.status = 431;
      response.body = "request head too large\n";
      return QueueDirectResponse(conn, response);
    }
    std::string head_text = conn->in.substr(0, head_end);
    conn->in.erase(0, head_end + 4);
    conn->scan_pos = 0;
    conn->head_start_ms = conn->in.empty() ? 0 : NowMs();
    if (!DispatchRequest(conn, head_text)) return false;
  }
  if (conn->in.empty()) conn->head_start_ms = 0;
  return true;
}

bool HttpServer::QueueDirectResponse(Conn* conn,
                                     const HttpResponse& response) {
  // Transport-level responses (400/405/408/431) are built on the event
  // thread — no worker round trip — and always close: the request
  // framing is (or may be) broken, so serving another request off this
  // socket risks interpreting garbage as a request line.
  Completion completion;
  completion.conn_id = conn->id;
  completion.head =
      SerializeHead(response, response.body.size(), /*keep_alive=*/false);
  completion.include_body = !IsBodylessStatus(response.status);
  completion.body = response.body;
  completion.keep_alive = false;
  return AppendResponse(conn, std::move(completion));
}

bool HttpServer::DispatchRequest(Conn* conn, const std::string& head_text) {
  const uint64_t parse_start_ns =
      options_.trace_ring != nullptr ? obs::MonotonicNowNs() : 0;
  HttpRequest request;
  bool has_body = false;
  if (!ParseRequestHead(head_text, &request, &has_body)) {
    HttpResponse response;
    response.status = 400;
    response.body = "bad request\n";
    return QueueDirectResponse(conn, response);
  }
  if (request.method != "GET" && request.method != "HEAD") {
    HttpResponse response;
    response.status = 405;
    response.body = "method not allowed\n";
    return QueueDirectResponse(conn, response);
  }
  conn->dispatched++;
  // The keep-alive decision depends only on the request and this
  // connection's history, so it is made here; the worker re-checks
  // stopping_ when it serializes, and may only downgrade to close.
  bool keep_alive = !has_body && !stopping_.load();
  if (keep_alive) {
    auto connection = request.headers.find("connection");
    const std::string& token =
        connection != request.headers.end() ? connection->second : "";
    if (request.version == "HTTP/1.0") {
      // 1.0 closes by default; clients opt in explicitly.
      keep_alive = ConnectionHeaderHas(token, "keep-alive");
    } else {
      keep_alive = !ConnectionHeaderHas(token, "close");
    }
  }
  if (options_.max_requests_per_connection > 0 &&
      conn->dispatched >= options_.max_requests_per_connection) {
    keep_alive = false;
  }
  // A closing response means no further requests: stop parsing (and
  // reading) now rather than after the response drains.
  if (!keep_alive) conn->closing = true;
  conn->handling = true;
  bool head_only = request.method == "HEAD";

  // Tracing: accept the client's request id (echoed back) or mint one,
  // anchor the trace at the parse start, and open the queue_wait span
  // here — the worker closes it the moment it picks the request up.
  // The trace object is handed off stage to stage (event thread ->
  // worker -> event thread) through the existing queues, so exactly
  // one thread touches it at a time.
  std::shared_ptr<obs::RequestTrace> trace;
  size_t queue_span = 0;
  if (options_.trace_ring != nullptr) {
    std::string request_id;
    auto id_header = request.headers.find("x-vas-request-id");
    if (id_header != request.headers.end() && !id_header->second.empty()) {
      request_id = id_header->second.substr(0, 64);
    } else {
      request_id = obs::MintRequestId();
    }
    trace = std::make_shared<obs::RequestTrace>(std::move(request_id),
                                                request.target,
                                                parse_start_ns);
    trace->AddCompleteSpan("parse", parse_start_ns, obs::MonotonicNowNs());
    queue_span = trace->BeginSpan("queue_wait");
  }
  pool_->Submit([this, id = conn->id, request = std::move(request), head_only,
                 keep_alive, trace = std::move(trace), queue_span,
                 dispatch_ns = obs::MonotonicNowNs()]() mutable {
    if (trace != nullptr) trace->EndSpan(queue_span);
    request.trace = trace.get();
    size_t handle_span =
        trace != nullptr ? trace->BeginSpan("handle") : 0;
    HttpResponse response = handler_(request);
    if (trace != nullptr) {
      trace->EndSpan(handle_span);
      trace->set_http_status(response.status);
      response.extra_headers.emplace_back("X-Vas-Request-Id",
                                          trace->request_id());
    }
    bool keep = keep_alive && !stopping_.load();
    Completion completion;
    completion.conn_id = id;
    size_t body_size = response.shared_body != nullptr
                           ? response.shared_body->size()
                           : response.body.size();
    completion.head = SerializeHead(response, body_size, keep);
    completion.include_body =
        !head_only && !IsBodylessStatus(response.status);
    if (completion.include_body) {
      if (response.shared_body != nullptr) {
        completion.shared_body = std::move(response.shared_body);
      } else {
        completion.body = std::move(response.body);
      }
    }
    completion.keep_alive = keep;
    completion.trace = std::move(trace);
    completion.dispatch_ns = dispatch_ns;
    PushCompletion(std::move(completion));
  });
  return true;
}

bool HttpServer::AppendResponse(Conn* conn, Completion completion) {
  bool was_empty = conn->out_bytes == 0;
  size_t appended = completion.head.size();
  conn->out_bytes += completion.head.size();
  conn->out.push_back({std::move(completion.head), nullptr, 0});
  if (completion.include_body) {
    if (completion.shared_body != nullptr) {
      appended += completion.shared_body->size();
      conn->out_bytes += completion.shared_body->size();
      conn->out.push_back({std::string(), std::move(completion.shared_body),
                           0});
    } else if (!completion.body.empty()) {
      appended += completion.body.size();
      conn->out_bytes += completion.body.size();
      conn->out.push_back({std::move(completion.body), nullptr, 0});
    }
  }
  conn->queued_bytes_total += appended;
  if (was_empty) conn->last_write_ms = NowMs();
  requests_served_->Increment();
  if (completion.dispatch_ns != 0) {
    uint64_t now = obs::MonotonicNowNs();
    request_duration_ns_->Observe(
        now > completion.dispatch_ns ? now - completion.dispatch_ns : 0);
  }
  if (completion.trace != nullptr) {
    size_t drain_span = completion.trace->BeginSpan("send_drain");
    conn->pending_traces.push_back({std::move(completion.trace),
                                    conn->queued_bytes_total, drain_span});
  }
  if (!completion.keep_alive) conn->closing = true;
  if (options_.max_output_buffer_bytes > 0 &&
      conn->out_bytes > options_.max_output_buffer_bytes) {
    // The reader is consuming far slower than it requests — an abusive
    // (or dead) client. Cut it off rather than buffer without bound.
    DestroyConn(conn);
    return false;
  }
  return true;
}

bool HttpServer::FlushOutput(Conn* conn) {
  while (!conn->out.empty()) {
    Conn::OutSeg& seg = conn->out.front();
    const std::string& bytes = seg.bytes();
    if (seg.offset >= bytes.size()) {
      conn->out.pop_front();
      continue;
    }
    ssize_t n = ::send(conn->fd, bytes.data() + seg.offset,
                       bytes.size() - seg.offset, MSG_NOSIGNAL);
    if (n > 0) {
      seg.offset += static_cast<size_t>(n);
      conn->out_bytes -= static_cast<size_t>(n);
      conn->sent_bytes_total += static_cast<uint64_t>(n);
      bytes_sent_->Increment(static_cast<uint64_t>(n));
      conn->last_write_ms = NowMs();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full — the slow-reader case. EPOLLOUT gets
      // (re-)armed by UpdateInterest; the event loop resumes here when
      // the client drains.
      SettleDrainedTraces(conn);
      return true;
    }
    DestroyConn(conn);
    return false;
  }
  conn->last_activity_ms = NowMs();  // response delivered; idle restarts
  SettleDrainedTraces(conn);
  return true;
}

void HttpServer::SettleDrainedTraces(Conn* conn) {
  while (!conn->pending_traces.empty() &&
         conn->pending_traces.front().end_offset <= conn->sent_bytes_total) {
    FinishTrace(std::move(conn->pending_traces.front()), /*aborted=*/false);
    conn->pending_traces.pop_front();
  }
}

void HttpServer::FinishTrace(PendingTrace pending, bool aborted) {
  obs::RequestTrace& trace = *pending.trace;
  trace.EndSpan(pending.drain_span);
  if (aborted) {
    trace.Annotate(pending.drain_span, "aborted", 1);
  }
  trace.Finish();
  if (options_.slow_request_ms > 0 &&
      trace.total_ns() >=
          static_cast<uint64_t>(options_.slow_request_ms) * 1000000ull) {
    obs::LogFields fields;
    fields.Add("request_id", trace.request_id())
        .Add("target", trace.target())
        .Add("status", trace.http_status())
        .Add("total_ms",
             static_cast<double>(trace.total_ns()) / 1e6);
    for (const obs::TraceSpan& span : trace.spans()) {
      fields.Add(span.name + "_ms",
                 static_cast<double>(span.duration_ns) / 1e6);
    }
    obs::Log(obs::LogLevel::kWarn, "slow request", fields);
  }
  if (options_.trace_ring != nullptr) {
    options_.trace_ring->Push(std::move(pending.trace));
  }
}

void HttpServer::UpdateInterest(Conn* conn) {
  uint32_t want = 0;
  if (!conn->closing && !conn->read_eof &&
      conn->in.size() < options_.max_request_bytes + 4096) {
    want |= EPOLLIN;
  }
  if (conn->out_bytes > 0) want |= EPOLLOUT;
  if (want == conn->events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = want;
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) {
      // Connection died while rendering; the trace still completes so
      // /debug/requests shows what the orphaned request cost.
      if (completion.trace != nullptr) {
        completion.trace->Finish();
        if (options_.trace_ring != nullptr) {
          options_.trace_ring->Push(std::move(completion.trace));
        }
      }
      continue;
    }
    Conn* conn = it->second.get();
    conn->handling = false;
    if (!AppendResponse(conn, std::move(completion))) continue;
    if (!FlushOutput(conn)) continue;
    // The next pipelined request may already be buffered.
    if (!ProcessInput(conn)) continue;
    if (!conn->handling && conn->out_bytes == 0 &&
        (conn->closing || (conn->read_eof && conn->in.empty()))) {
      DestroyConn(conn);
      continue;
    }
    UpdateInterest(conn);
  }
}

void HttpServer::SweepDeadlines() {
  int64_t now = NowMs();
  int64_t io_ms = static_cast<int64_t>(options_.io_timeout_seconds) * 1000;
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    if (conn->handling) continue;  // handlers are bounded by the render
    if (conn->out_bytes > 0) {
      // Write stall: pending bytes with no progress — drop the reader.
      if (now - conn->last_write_ms >= io_ms) DestroyConn(conn);
      continue;
    }
    if (!conn->in.empty() && !conn->closing) {
      // Mid-head trickle: the client gets a 408, then the close.
      if (conn->head_start_ms != 0 && now - conn->head_start_ms >= io_ms) {
        HttpResponse response;
        response.status = 408;
        response.body = "timed out reading request\n";
        if (QueueDirectResponse(conn, response) && FlushOutput(conn)) {
          if (conn->out_bytes == 0) {
            DestroyConn(conn);
          } else {
            UpdateInterest(conn);
          }
        }
      }
      continue;
    }
    if (conn->in.empty() && conn->out_bytes == 0) {
      // Quiet keep-alive socket past its idle allowance (or read-eof
      // leftovers with nothing left to serve).
      if (conn->closing || conn->read_eof ||
          now - conn->last_activity_ms >=
              static_cast<int64_t>(options_.idle_timeout_ms)) {
        DestroyConn(conn);
      }
    }
  }
}

void HttpServer::CloseIdleConnections() {
  // Graceful drain: idle sockets close immediately; partially received
  // heads and in-flight requests are allowed to finish (bounded by the
  // io timeout / the handler's own runtime).
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    if (!conn->handling && conn->out_bytes == 0 && conn->in.empty()) {
      DestroyConn(conn);
    }
  }
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    Close();
    host_ = std::move(other.host_);
    fd_ = other.fd_;
    leftover_ = std::move(other.leftover_);
    other.fd_ = -1;
    other.leftover_.clear();
  }
  return *this;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  leftover_.clear();
}

StatusOr<HttpClient> HttpClient::Connect(uint16_t port,
                                         const std::string& host,
                                         int timeout_seconds) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  SetIoTimeout(fd, timeout_seconds);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status =
        Status::IoError("connect " + host + ":" + std::to_string(port) +
                        ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  HttpClient client;
  client.host_ = host;
  client.fd_ = fd;
  return client;
}

StatusOr<HttpFetchResult> HttpClient::Get(
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host_ +
                        "\r\n";
  bool close_requested = false;
  for (const auto& [name, value] : extra_headers) {
    request += name + ": " + value + "\r\n";
    if (ToLower(name) == "connection" &&
        ConnectionHeaderHas(value, "close")) {
      close_requested = true;
    }
  }
  request += "\r\n";
  if (!SendAll(fd_, request.data(), request.size())) {
    Close();
    return Status::IoError("send failed (connection closed?)");
  }

  // Read the response head; leftover_ may already hold part of it.
  std::string raw = std::move(leftover_);
  leftover_.clear();
  char chunk[8192];
  ssize_t n = 0;
  size_t header_end = raw.find("\r\n\r\n");
  while (header_end == std::string::npos) {
    switch (RecvRetry(fd_, chunk, sizeof(chunk), &n)) {
      case RecvOutcome::kData:
        break;
      case RecvOutcome::kEof:
        Close();
        return Status::IoError("connection closed before response head");
      case RecvOutcome::kTimeout:
        Close();
        return Status::IoError("recv timed out waiting for response head");
      case RecvOutcome::kError: {
        Status status =
            Status::IoError(std::string("recv: ") + std::strerror(errno));
        Close();
        return status;
      }
    }
    size_t scan_from = raw.size() > 3 ? raw.size() - 3 : 0;
    raw.append(chunk, static_cast<size_t>(n));
    header_end = raw.find("\r\n\r\n", scan_from);
  }
  if (!StartsWith(raw, "HTTP/")) {
    Close();
    return Status::IoError("malformed response");
  }

  HttpFetchResult result;
  std::vector<std::string> lines = Split(raw.substr(0, header_end), '\n');
  std::vector<std::string> status_parts = Split(lines.front(), ' ');
  if (status_parts.size() < 2) {
    Close();
    return Status::IoError("malformed status line");
  }
  auto code = ParseInt64(StripWhitespace(status_parts[1]));
  if (!code.ok()) {
    Close();
    return code.status();
  }
  result.status = static_cast<int>(*code);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string line = lines[i];
    if (!line.empty() && line.back() == '\r') line.pop_back();
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    result.headers[ToLower(line.substr(0, colon))] =
        std::string(StripWhitespace(line.substr(colon + 1)));
  }

  // Frame the body: Content-Length when present, nothing for bodyless
  // statuses, read-to-EOF otherwise (a Connection: close response).
  std::string rest = raw.substr(header_end + 4);
  auto content_length = result.headers.find("content-length");
  if (content_length != result.headers.end()) {
    auto length = ParseInt64(content_length->second);
    if (!length.ok() || *length < 0) {
      Close();
      return Status::IoError("bad content-length");
    }
    size_t want = static_cast<size_t>(*length);
    while (rest.size() < want) {
      switch (RecvRetry(fd_, chunk, sizeof(chunk), &n)) {
        case RecvOutcome::kData:
          rest.append(chunk, static_cast<size_t>(n));
          break;
        case RecvOutcome::kEof:
          Close();
          return Status::IoError("connection closed mid-body");
        case RecvOutcome::kTimeout:
          // A receive-timeout expiry is not a peer close — report it
          // as the timeout it is so callers can tell a stalled server
          // from a dropped connection.
          Close();
          return Status::IoError("recv timed out mid-body");
        case RecvOutcome::kError: {
          Status status =
              Status::IoError(std::string("recv: ") + std::strerror(errno));
          Close();
          return status;
        }
      }
    }
    result.body = rest.substr(0, want);
    leftover_ = rest.substr(want);
  } else if (IsBodylessStatus(result.status)) {
    leftover_ = std::move(rest);
  } else {
    result.body = std::move(rest);
    bool eof = false;
    while (!eof) {
      switch (RecvRetry(fd_, chunk, sizeof(chunk), &n)) {
        case RecvOutcome::kData:
          result.body.append(chunk, static_cast<size_t>(n));
          break;
        case RecvOutcome::kEof:
          eof = true;
          break;
        case RecvOutcome::kTimeout:
          Close();
          return Status::IoError("recv timed out reading body");
        case RecvOutcome::kError: {
          Status status =
              Status::IoError(std::string("recv: ") + std::strerror(errno));
          Close();
          return status;
        }
      }
    }
    Close();
  }

  auto connection = result.headers.find("connection");
  if (close_requested ||
      (connection != result.headers.end() &&
       ConnectionHeaderHas(connection->second, "close"))) {
    Close();
  }
  return result;
}

StatusOr<HttpFetchResult> HttpGet(uint16_t port, const std::string& target,
                                  const std::string& host) {
  VAS_ASSIGN_OR_RETURN(HttpClient client, HttpClient::Connect(port, host));
  return client.Get(target, {{"Connection", "close"}});
}

}  // namespace vas
