// HTTP transport under keep-alive vs reconnect-per-request. The tile
// server's interactivity budget is spent per *fetch*, so the transport
// overhead a panning browser pays matters as much as render latency:
// this bench drives the real HttpServer with concurrent clients in
// four modes — (1) a fresh TCP connection per request (the
// pre-keep-alive behavior), (2) one persistent connection per client
// serving sequential requests, (3) persistent + conditional requests,
// where every fetch carries If-None-Match and comes back 304 with no
// body, and (4) high fan-in at low duty cycle: several times more
// parked keep-alive connections than server workers, each fetching
// only occasionally — the browser-fleet shape the epoll transport
// exists for. Reports requests/sec and p50/p90 latency per mode and
// asserts that connection reuse beats reconnecting on p50, that the
// idle herd is admitted without a single 503, and that holding it
// costs at most 2x the low-connection p50.
#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/http_server.h"
#include "util/stopwatch.h"

namespace vas::bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t at = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[at];
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

struct ModeResult {
  std::vector<double> latencies_ms;
  double seconds = 0.0;
  size_t ok = 0;
  size_t errors = 0;

  double Rps() const {
    return seconds > 0 ? static_cast<double>(ok) / seconds : 0.0;
  }
};

/// Runs `clients` threads, each issuing `requests` sequential fetches
/// through `fetch(client_index, request_index, latencies)`.
template <typename Fetch>
ModeResult RunClients(size_t clients, size_t requests, const Fetch& fetch) {
  ModeResult result;
  std::mutex mu;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> errors{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      std::vector<double> local;
      local.reserve(requests);
      for (size_t i = 0; i < requests; ++i) {
        if (fetch(c, i, &local)) {
          ok.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_ms.insert(result.latencies_ms.end(), local.begin(),
                                 local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = watch.ElapsedSeconds();
  result.ok = ok.load();
  result.errors = errors.load();
  return result;
}

void PrintMode(const char* label, const ModeResult& mode) {
  std::printf("%-24s %7.0f req/s   p50 %7.3fms   p90 %7.3fms   "
              "(%zu ok, %zu errors)\n",
              label, mode.Rps(), Percentile(mode.latencies_ms, 0.5),
              Percentile(mode.latencies_ms, 0.9), mode.ok, mode.errors);
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("clients", "8", "concurrent client threads");
  flags.Define("requests", "200", "requests per client per mode");
  flags.Define("payload", "16384",
               "response body bytes (roughly one encoded tile)");
  flags.Define("http-threads", "16", "server request-handler workers");
  flags.Define("idle-connections", "0",
               "keep-alive connections held in the low-duty-cycle mode "
               "(0 = 4x http-threads)");
  if (!ParseBenchFlags(flags, argc, argv,
                       "HTTP keep-alive vs reconnect-per-request: req/s "
                       "and p50 latency across concurrent clients, plus "
                       "the conditional-request (If-None-Match -> 304) "
                       "fast path.")) {
    return 0;
  }
  size_t clients = static_cast<size_t>(flags.GetInt("clients"));
  size_t requests = static_cast<size_t>(flags.GetInt("requests"));
  size_t payload_bytes = static_cast<size_t>(flags.GetInt("payload"));
  if (flags.GetBool("quick")) {
    clients = std::min<size_t>(clients, 4);
    requests = std::min<size_t>(requests, 50);
  }

  PrintHeader(StrFormat(
      "HTTP keep-alive vs reconnect (%zu clients x %zu requests, %zu-byte "
      "payload)",
      clients, requests, payload_bytes));

  // A handler shaped like the tile fast path: a shared immutable body
  // (zero-copy, like a cached PNG) behind a strong ETag honoring
  // If-None-Match — so the bench isolates transport cost, not render
  // cost.
  auto payload = std::make_shared<const std::string>(
      std::string(payload_bytes, 'x'));
  const std::string etag = "\"bench-payload-1\"";
  HttpServer::Options options;
  options.port = 0;
  options.bind_address = "127.0.0.1";
  options.num_threads = static_cast<size_t>(flags.GetInt("http-threads"));
  // Modes 2 and 3 share one socket per client for 2x`requests`
  // sequential fetches — no cap, the bench measures pure reuse. The
  // idle timeout is parked too: client threads finish modes at
  // different times, and a loaded CI runner must not have the server
  // reap a finished client's socket before the next mode begins.
  options.max_requests_per_connection = 0;
  options.idle_timeout_ms = 600000;
  HttpServer server(options, [payload, etag](const HttpRequest& request) {
    HttpResponse response;
    response.extra_headers.emplace_back("ETag", etag);
    auto match = request.headers.find("if-none-match");
    if (match != request.headers.end() &&
        EtagMatches(match->second, etag)) {
      response.status = 304;
      return response;
    }
    response.content_type = "application/octet-stream";
    response.shared_body = payload;
    return response;
  });
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::printf("serving %zu-byte payloads on 127.0.0.1:%u\n\n", payload_bytes,
              server.port());

  // --- Mode 1: fresh connection per request -------------------------
  ModeResult reconnect =
      RunClients(clients, requests,
                 [&server](size_t, size_t, std::vector<double>* out) {
                   Stopwatch watch;
                   auto result = HttpGet(server.port(), "/payload");
                   out->push_back(watch.ElapsedSeconds() * 1000.0);
                   return result.ok() && result->status == 200 &&
                          !result->body.empty();
                 });
  PrintMode("reconnect per request", reconnect);

  // --- Mode 2: one persistent connection per client -----------------
  std::vector<HttpClient> connections(clients);
  for (size_t c = 0; c < clients; ++c) {
    auto connected = HttpClient::Connect(server.port());
    if (!connected.ok()) return Fail(connected.status().ToString());
    connections[c] = std::move(*connected);
  }
  // Belt and braces for CI: a Get that fails because the server closed
  // the socket reconnects once — the retry's latency is what gets
  // recorded, so a stray close cannot fail the whole mode.
  auto get_with_reconnect =
      [&connections, &server](
          size_t c, const std::vector<std::pair<std::string, std::string>>&
                        extra_headers) -> StatusOr<HttpFetchResult> {
    if (connections[c].connected()) {
      auto result = connections[c].Get("/payload", extra_headers);
      if (result.ok()) return result;
    }
    auto reconnected = HttpClient::Connect(server.port());
    if (!reconnected.ok()) return reconnected.status();
    connections[c] = std::move(*reconnected);
    return connections[c].Get("/payload", extra_headers);
  };

  ModeResult reuse = RunClients(
      clients, requests,
      [&get_with_reconnect](size_t c, size_t, std::vector<double>* out) {
        Stopwatch watch;
        auto result = get_with_reconnect(c, {});
        out->push_back(watch.ElapsedSeconds() * 1000.0);
        return result.ok() && result->status == 200 &&
               !result->body.empty();
      });
  PrintMode("keep-alive reuse", reuse);

  // --- Mode 3: persistent + conditional (client-side cache hits) ----
  ModeResult conditional = RunClients(
      clients, requests,
      [&get_with_reconnect, &etag](size_t c, size_t,
                                   std::vector<double>* out) {
        Stopwatch watch;
        auto result = get_with_reconnect(c, {{"If-None-Match", etag}});
        out->push_back(watch.ElapsedSeconds() * 1000.0);
        return result.ok() && result->status == 304 &&
               result->body.empty();
      });
  PrintMode("keep-alive + 304", conditional);
  connections.clear();

  // --- Mode 4: many mostly-idle connections, low duty cycle ---------
  // Hold several times more keep-alive sockets than the server has
  // workers; each client thread sweeps its slice of the herd, so any
  // given connection is active only a small fraction of the time. With
  // the old thread-per-connection transport this configuration could
  // not even connect (every socket past pool size got 503); here all
  // of them must be admitted and served at near-baseline latency.
  size_t idle_conns =
      static_cast<size_t>(flags.GetInt("idle-connections"));
  if (idle_conns == 0) idle_conns = 4 * options.num_threads;
  std::vector<HttpClient> herd;
  herd.reserve(idle_conns);
  for (size_t i = 0; i < idle_conns; ++i) {
    auto connected = HttpClient::Connect(server.port());
    if (!connected.ok()) return Fail(connected.status().ToString());
    herd.push_back(std::move(*connected));
  }
  // Each thread owns every clients-th connection; fetch i of thread c
  // lands on its (i mod slice)-th owned socket, one sweep per round.
  size_t slice = (idle_conns + clients - 1) / clients;
  size_t rounds = std::max<size_t>(1, requests / 8);
  ModeResult idle = RunClients(
      clients, slice * rounds,
      [&herd, &server, clients, idle_conns, slice](
          size_t c, size_t i, std::vector<double>* out) {
        size_t at = c + (i % slice) * clients;
        if (at >= idle_conns) at = c;  // uneven tail wraps to own socket
        Stopwatch watch;
        StatusOr<HttpFetchResult> result =
            herd[at].connected()
                ? herd[at].Get("/payload")
                : Status::IoError("connection lost");
        if (!result.ok()) {
          auto reconnected = HttpClient::Connect(server.port());
          if (reconnected.ok()) {
            herd[at] = std::move(*reconnected);
            result = herd[at].Get("/payload");
          }
        }
        out->push_back(watch.ElapsedSeconds() * 1000.0);
        return result.ok() && result->status == 200 &&
               !result->body.empty();
      });
  PrintMode("idle fan-in", idle);
  std::printf("  (%zu connections held, %zu active threads)\n", idle_conns,
              clients);
  size_t refused = server.connections_refused();
  herd.clear();
  server.Stop();

  double reconnect_p50 = Percentile(reconnect.latencies_ms, 0.5);
  double reuse_p50 = Percentile(reuse.latencies_ms, 0.5);
  double conditional_p50 = Percentile(conditional.latencies_ms, 0.5);
  double idle_p50 = Percentile(idle.latencies_ms, 0.5);
  std::printf(
      "\nconnection reuse p50 %.3fms vs reconnect p50 %.3fms (%.2fx); "
      "conditional 304s p50 %.3fms\n",
      reuse_p50, reconnect_p50,
      reuse_p50 > 0 ? reconnect_p50 / reuse_p50 : 0.0, conditional_p50);
  std::printf(
      "%zu mostly-idle connections held: p50 %.3fms (%.2fx of reuse "
      "baseline), %zu refused\n",
      idle_conns, idle_p50, reuse_p50 > 0 ? idle_p50 / reuse_p50 : 0.0,
      refused);

  JsonMetrics metrics;
  metrics.Set("clients", clients);
  metrics.Set("requests_per_client", requests);
  metrics.Set("payload_bytes", payload_bytes);
  // Tail latencies go through the obs::Histogram boundaries (the same
  // buckets /metrics exports) instead of exact order statistics, so the
  // checked-in baselines stay comparable with dashboard quantiles.
  LatencyDigest reconnect_digest;
  reconnect_digest.ObserveAllMs(reconnect.latencies_ms);
  LatencyDigest reuse_digest;
  reuse_digest.ObserveAllMs(reuse.latencies_ms);
  LatencyDigest conditional_digest;
  conditional_digest.ObserveAllMs(conditional.latencies_ms);
  LatencyDigest idle_digest;
  idle_digest.ObserveAllMs(idle.latencies_ms);
  metrics.Set("reconnect_rps", reconnect.Rps());
  metrics.Set("reconnect_p50_ms", reconnect_p50);
  metrics.Set("reconnect_p90_ms", Percentile(reconnect.latencies_ms, 0.9));
  metrics.Set("reconnect_p95_ms", reconnect_digest.QuantileMs(0.95));
  metrics.Set("reconnect_p99_ms", reconnect_digest.QuantileMs(0.99));
  metrics.Set("reuse_rps", reuse.Rps());
  metrics.Set("reuse_p50_ms", reuse_p50);
  metrics.Set("reuse_p90_ms", Percentile(reuse.latencies_ms, 0.9));
  metrics.Set("reuse_p95_ms", reuse_digest.QuantileMs(0.95));
  metrics.Set("reuse_p99_ms", reuse_digest.QuantileMs(0.99));
  metrics.Set("conditional_rps", conditional.Rps());
  metrics.Set("conditional_p50_ms", conditional_p50);
  metrics.Set("conditional_p95_ms", conditional_digest.QuantileMs(0.95));
  metrics.Set("conditional_p99_ms", conditional_digest.QuantileMs(0.99));
  metrics.Set("reuse_speedup_p50",
              reuse_p50 > 0 ? reconnect_p50 / reuse_p50 : 0.0);
  metrics.Set("idle_connections_held", idle_conns);
  metrics.Set("idle_rps", idle.Rps());
  metrics.Set("idle_p50_ms", idle_p50);
  metrics.Set("idle_p90_ms", Percentile(idle.latencies_ms, 0.9));
  metrics.Set("idle_p95_ms", idle_digest.QuantileMs(0.95));
  metrics.Set("idle_p99_ms", idle_digest.QuantileMs(0.99));
  metrics.Set("idle_vs_reuse_p50",
              reuse_p50 > 0 ? idle_p50 / reuse_p50 : 0.0);
  metrics.Set("connections_refused", refused);
  metrics.Set("errors", reconnect.errors + reuse.errors +
                            conditional.errors + idle.errors);
  Status wrote = metrics.WriteIfRequested(flags.GetString("json"));
  if (!wrote.ok()) return Fail(wrote.ToString());

  size_t errors = reconnect.errors + reuse.errors + conditional.errors +
                  idle.errors;
  if (errors != 0) {
    return Fail(std::to_string(errors) + " request(s) failed");
  }
  if (reuse_p50 >= reconnect_p50) {
    return Fail(StrFormat(
        "keep-alive reuse p50 %.3fms did not beat reconnect p50 %.3fms",
        reuse_p50, reconnect_p50));
  }
  if (refused != 0) {
    return Fail(StrFormat(
        "%zu connection(s) refused while holding the idle herd — the "
        "fd-based limit should admit them all",
        refused));
  }
  // The herd must ride along at near-baseline latency: small absolute
  // slack so sub-millisecond loopback p50s don't flake the ratio.
  if (idle_p50 > 2.0 * reuse_p50 + 0.25) {
    return Fail(StrFormat(
        "p50 %.3fms with %zu idle connections vs %.3fms baseline — idle "
        "sockets are not free anymore",
        idle_p50, idle_conns, reuse_p50));
  }
  std::printf("keep-alive reuse beats reconnect-per-request at p50; "
              "idle fan-in holds the baseline\n");
  return 0;
}

}  // namespace
}  // namespace vas::bench

int main(int argc, char** argv) { return vas::bench::Run(argc, argv); }
