// Minimal HTTP/1.1 server on POSIX sockets, built around an epoll
// readiness loop. One dedicated event thread owns the listening socket
// and every connection: it accepts, reads request heads, enforces idle
// and io timeouts, and drains buffered responses through non-blocking
// sends (re-arming EPOLLOUT after partial writes). Pool workers run
// only handler dispatch — parse results in, serialized bytes out — so
// an idle keep-alive socket costs one fd in the epoll set, not a pinned
// worker, and a slow reader dribbling a large tile never holds a worker
// either: its bytes wait in a per-connection output buffer whose cap
// closes abusive readers. Connections are persistent by default with
// the HTTP/1.1 keep-alive state machine (pipelining, `Connection:
// close`, HTTP/1.0 opt-in, idle timeout, per-connection request cap)
// and the connection limit defaults to what the fd rlimit allows —
// 10k+ mostly-idle sockets — instead of the old 503-at-pool-size
// behavior. Deliberately small: GET/HEAD, no TLS, no request bodies,
// no chunked responses — enough to put tiles and status JSON in front
// of a browser or load generator without paying a TCP handshake per
// tile.
#ifndef VAS_SERVICE_HTTP_SERVER_H_
#define VAS_SERVICE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace vas {

/// One parsed request. Header names are lowercased; the query string is
/// split into percent-decoded key/value pairs.
struct HttpRequest {
  std::string method;
  /// Raw request target ("/tiles/t/1/0/0.png?x=1").
  std::string target;
  /// Percent-decoded path without the query string.
  std::string path;
  /// "HTTP/1.1" or "HTTP/1.0" from the request line.
  std::string version;
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;
  /// The request's trace (null when tracing is off). Handlers may add
  /// spans/annotations; the server owns the lifetime — valid only for
  /// the duration of the handler call.
  obs::RequestTrace* trace = nullptr;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  /// Exactly one of `body` / `shared_body` is used; `shared_body` lets
  /// cached tiles be served without copying the bytes per request.
  std::string body;
  std::shared_ptr<const std::string> shared_body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Splits `target` into a decoded path and query map ("?a=1&b=x%20y").
/// Exposed for tests.
void ParseTarget(const std::string& target, std::string* path,
                 std::map<std::string, std::string>* query);

/// Percent-decodes one URI component ("%2F" -> "/", "+" is literal).
std::string UriDecode(const std::string& in);

/// True when the `If-None-Match` header value `if_none_match` matches
/// `etag` ("*", a single tag, or a comma-separated list; `W/` prefixes
/// are ignored per RFC 9110's weak comparison for If-None-Match).
/// `etag` is the server's current entity tag including quotes.
bool EtagMatches(const std::string& if_none_match, const std::string& etag);

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// 0 binds an ephemeral port (read it back via port()).
    uint16_t port = 8080;
    std::string bind_address = "0.0.0.0";
    /// Request-handler workers (parse -> handler -> serialize). Sockets
    /// are owned by the event thread, so this sizes render concurrency
    /// only — idle or slow connections consume no worker.
    size_t num_threads = 8;
    /// Largest request head (request line + headers) accepted; larger
    /// heads are answered with 431 and the connection is closed.
    size_t max_request_bytes = 64 * 1024;
    /// Cap on how long a partially received request head may trickle
    /// in (-> 408), and on how long a buffered response may sit with
    /// no write progress before the connection is dropped.
    int io_timeout_seconds = 10;
    /// How long an idle keep-alive socket may sit between requests
    /// before the server closes it and frees the fd.
    int idle_timeout_ms = 5000;
    /// Requests served over one connection before the server closes it
    /// (`Connection: close` on the final response). 0 = unlimited; 1 =
    /// no keep-alive, every response closes its connection.
    size_t max_requests_per_connection = 1000;
    /// Concurrent connections accepted; beyond this the server answers
    /// 503 (best-effort, never blocking the event loop) and closes.
    /// 0 = derive from RLIMIT_NOFILE minus headroom, so a deployment
    /// holds as many mostly-idle keep-alive sockets as the process fd
    /// budget allows — connections no longer compete for workers.
    size_t max_connections = 0;
    /// Unsent response bytes buffered per connection before the server
    /// declares the reader abusive and closes it. Must comfortably
    /// exceed the largest single response (a tile is ~hundreds of KB);
    /// the cap exists so a client that pipelines requests but never
    /// reads cannot grow the output buffer without bound.
    size_t max_output_buffer_bytes = 8 * 1024 * 1024;
    /// Registry the transport counters live in. Null = the server owns
    /// a private registry (counters still work, /metrics just is not
    /// shared); serve_main passes one registry to every layer so
    /// /metrics shows the whole process.
    obs::MetricsRegistry* registry = nullptr;
    /// Destination for finished request traces (/debug/requests).
    /// Null disables per-request tracing entirely — no ids are minted
    /// and handlers see request.trace == nullptr. Must outlive the
    /// server.
    obs::TraceRing* trace_ring = nullptr;
    /// With tracing on, a request whose total latency (parse through
    /// last byte drained) is >= this emits one structured warn log
    /// with its span breakdown. 0 disables slow-request logging.
    int64_t slow_request_ms = 0;
  };

  HttpServer(Options options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the event loop. IoError when the
  /// address or port cannot be bound.
  Status Start();

  /// Stops accepting and drains gracefully: requests already being
  /// handled (and request heads already partially received) finish,
  /// idle keep-alive sockets close without waiting out their idle
  /// timeout, then the event thread and workers join. Idempotent;
  /// called by the destructor.
  void Stop();

  /// The port actually bound (the ephemeral one when options.port = 0).
  uint16_t port() const { return port_; }

  /// Requests fully handled so far.
  size_t requests_served() const { return requests_served_->Value(); }

  /// Connections currently open (being served or idle in keep-alive).
  size_t active_connections() const {
    return static_cast<size_t>(active_connections_->Value());
  }

  /// Connections accepted so far (excludes ones refused with 503).
  size_t connections_accepted() const {
    return connections_accepted_->Value();
  }

  /// Connections refused with 503 because the connection limit was hit.
  size_t connections_refused() const { return connections_refused_->Value(); }

  /// The registry the transport counters live in (the Options one, or
  /// the server's private registry when none was given).
  obs::MetricsRegistry* metrics_registry() const { return registry_; }

 private:
  struct Conn;
  struct Completion;
  struct PendingTrace;

  void EventLoop();
  void AcceptReady();
  bool ReadReady(Conn* conn);
  bool ProcessInput(Conn* conn);
  bool DispatchRequest(Conn* conn, const std::string& head_text);
  bool QueueDirectResponse(Conn* conn, const HttpResponse& response);
  bool AppendResponse(Conn* conn, Completion completion);
  bool FlushOutput(Conn* conn);
  void UpdateInterest(Conn* conn);
  void DrainCompletions();
  void SweepDeadlines();
  void CloseIdleConnections();
  void DestroyConn(Conn* conn);
  void PushCompletion(Completion completion);
  void Wake();
  /// Finishes traces whose response bytes have fully reached the
  /// socket (ring push + slow-request log), and — on teardown — the
  /// ones whose connection died first.
  void SettleDrainedTraces(Conn* conn);
  void FinishTrace(PendingTrace pending, bool aborted);

  const Options options_;
  const Handler handler_;
  /// Backs the metric pointers below when Options.registry is null.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  std::thread event_thread_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  size_t connection_limit_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  /// Transport metrics, owned by registry_. The registry objects are
  /// the only storage — the accessors read them, /metrics renders
  /// them, and /stats reads them by name.
  obs::Counter* requests_served_ = nullptr;
  obs::Gauge* active_connections_ = nullptr;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_refused_ = nullptr;
  obs::Counter* bytes_received_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Histogram* request_duration_ns_ = nullptr;

  /// Everything below `conns_` is owned by the event thread; workers
  /// communicate only through the completion queue + wake_fd_.
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 16;
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

/// A parsed response from the test/bench clients below.
struct HttpFetchResult {
  int status = 0;
  std::string body;
  std::map<std::string, std::string> headers;
};

/// Tiny blocking HTTP/1.1 client for tests and benches that keeps its
/// connection open across requests — the client half of keep-alive.
/// Responses are framed by Content-Length (or bodyless statuses), so
/// sequential Gets reuse one socket. Receive timeouts (SO_RCVTIMEO
/// expiry) are reported as explicit "timed out" IoErrors, distinct
/// from the peer closing the connection; interrupted recv/send calls
/// (EINTR) are retried.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }

  HttpClient(HttpClient&& other) noexcept { *this = std::move(other); }
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1 (or `host`) on `port`. `timeout_seconds`
  /// bounds each socket send/receive.
  static StatusOr<HttpClient> Connect(uint16_t port,
                                      const std::string& host = "127.0.0.1",
                                      int timeout_seconds = 30);

  /// One GET over the open connection. `extra_headers` are sent
  /// verbatim (e.g. {"If-None-Match", etag} or {"Connection", "close"}).
  /// IoError once the server has closed the connection.
  StatusOr<HttpFetchResult> Get(
      const std::string& target,
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {});

  /// True while the socket is open from this client's point of view.
  bool connected() const { return fd_ >= 0; }

  void Close();

 private:
  std::string host_ = "127.0.0.1";
  int fd_ = -1;
  /// Bytes received past the previous response's frame.
  std::string leftover_;
};

/// One GET over a fresh connection (sends `Connection: close`), kept
/// for callers that want the old one-shot shape.
StatusOr<HttpFetchResult> HttpGet(uint16_t port, const std::string& target,
                                  const std::string& host = "127.0.0.1");

}  // namespace vas

#endif  // VAS_SERVICE_HTTP_SERVER_H_
