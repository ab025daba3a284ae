// Route table of the plot server: maps the HTTP surface onto
// PlotService. Kept apart from HttpServer (which stays a generic
// socket/parse layer) so the endpoints are unit-testable without
// opening sockets.
//
//   GET /healthz                          liveness probe, "ok"
//   GET /catalogs                         every registered table, JSON
//   GET /status/{table}                   build/rung/eviction + cache state
//   GET /stats                            transport + render counts read
//                                         from the registry by name, JSON
//   GET /metrics                          Prometheus text exposition
//   GET /debug/requests                   recent request traces, JSON
//   GET /tiles/{table}/{z}/{x}/{y}.png    rendered tile, image/png
//   GET /plot?table=T&xmin=&ymin=&xmax=&ymax=&budget=
//                                         viewport counts from the cached
//                                         UniformGrid, JSON
//
// Tile responses carry a strong ETag (registration generation + tile +
// rung) and a Cache-Control policy that distinguishes finished ladders
// (long max-age) from in-progress ones (short max-age so clients
// revalidate as sharper rungs land); a matching If-None-Match comes
// back as 304 Not Modified without rendering. JSON endpoints are
// Cache-Control: no-cache.
#ifndef VAS_SERVICE_HTTP_ROUTES_H_
#define VAS_SERVICE_HTTP_ROUTES_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/http_server.h"
#include "service/plot_service.h"

namespace vas {

/// Observability wiring for the handler. All referenced objects must
/// outlive the handler.
struct ServiceHandlerOptions {
  /// Enables `GET /metrics` (Prometheus text exposition) and `GET
  /// /stats` (transport + render counts, JSON). /stats reads each count
  /// by metric name, so this must be the registry the HttpServer and
  /// the PlotService write to.
  obs::MetricsRegistry* registry = nullptr;
  /// Enables `GET /debug/requests` (recently finished request traces,
  /// newest first, JSON).
  obs::TraceRing* trace_ring = nullptr;
};

/// Builds the request handler serving `service`'s tables plus whichever
/// of /stats, /metrics, and /debug/requests `options` enables. The
/// service must outlive the returned handler.
HttpServer::Handler MakeServiceHandler(PlotService* service,
                                       ServiceHandlerOptions options = {});

/// Escapes `s` for embedding in a JSON string literal. Exposed for
/// tests.
std::string JsonEscape(const std::string& s);

}  // namespace vas

#endif  // VAS_SERVICE_HTTP_ROUTES_H_
