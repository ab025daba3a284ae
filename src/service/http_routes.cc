#include "service/http_routes.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/strings.h"

namespace vas {

namespace {

HttpResponse JsonResponse(std::string body) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = std::move(body);
  // Status JSON changes as builds progress — never cache it.
  response.extra_headers.emplace_back("Cache-Control", "no-cache");
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  int http = 500;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      http = 400;
      break;
    case StatusCode::kNotFound:
      http = 404;
      break;
    case StatusCode::kFailedPrecondition:
      http = 503;  // e.g. no rung servable yet — retryable
      break;
    default:
      http = 500;
      break;
  }
  HttpResponse response = JsonResponse(
      "{\"error\":\"" + JsonEscape(status.ToString()) + "\"}\n");
  response.status = http;
  return response;
}

/// Doubles render in the shortest form that parses back to the same
/// value, so a client can rebuild the server's TileGrid from `world`
/// (std::to_chars is locale-independent).
std::string JsonDouble(double v) {
  char buffer[32];
  return std::string(buffer,
                     std::to_chars(buffer, buffer + sizeof(buffer), v).ptr);
}

std::string BuildStatusJson(const PlotService::TableInfo& info) {
  std::string out = "{";
  out += "\"table\":\"" + JsonEscape(info.key.table) + "\"";
  out += ",\"x\":\"" + JsonEscape(info.key.x) + "\"";
  out += ",\"y\":\"" + JsonEscape(info.key.y) + "\"";
  out += ",\"rows\":" + std::to_string(info.rows);
  out += ",\"rungs_ready\":" + std::to_string(info.build.rungs_ready);
  out += ",\"rungs_total\":" + std::to_string(info.build.rungs_total);
  out += std::string(",\"done\":") + (info.build.done ? "true" : "false");
  out += std::string(",\"resident\":") +
         (info.build.resident ? "true" : "false");
  out += ",\"memory_bytes\":" + std::to_string(info.build.memory_bytes);
  out += ",\"world\":[" + JsonDouble(info.world.min_x) + "," +
         JsonDouble(info.world.min_y) + "," + JsonDouble(info.world.max_x) +
         "," + JsonDouble(info.world.max_y) + "]";
  out += "}";
  return out;
}

/// Parses one unsigned tile coordinate; rejects junk and minus signs.
bool ParseTileIndex(const std::string& s, uint32_t* out) {
  auto value = ParseInt64(s);
  if (!value.ok() || *value < 0 || *value > 0xffffffffll) return false;
  *out = static_cast<uint32_t>(*value);
  return true;
}

/// Client-cache policy for one tile response. Finished ladders are
/// stable for their registration, so their tiles may live long in
/// browser caches; while rungs are still landing, a short max-age makes
/// clients revalidate quickly — and the strong ETag turns that refetch
/// into a 304 whenever the served rung has not actually advanced yet.
std::string TileCacheControl(const PlotService* service, bool build_done) {
  const PlotService::Options& options = service->options();
  if (build_done) {
    return "public, max-age=" +
           std::to_string(options.tile_final_max_age_seconds);
  }
  return "public, max-age=" +
         std::to_string(options.tile_building_max_age_seconds) +
         ", must-revalidate";
}

HttpResponse HandleTile(PlotService* service, const HttpRequest& request,
                        const std::vector<std::string>& segments) {
  // segments: ["tiles", table, z, x, "y.png"]
  std::string last = segments[4];
  if (last.size() <= 4 || last.substr(last.size() - 4) != ".png") {
    HttpResponse response;
    response.status = 404;
    response.body = "tile paths end in .png\n";
    return response;
  }
  TileKey tile;
  if (!ParseTileIndex(segments[2], &tile.z) ||
      !ParseTileIndex(segments[3], &tile.x) ||
      !ParseTileIndex(last.substr(0, last.size() - 4), &tile.y)) {
    HttpResponse response;
    response.status = 400;
    response.body = "bad tile coordinates\n";
    return response;
  }
  TileStyle style = TileStyle::kScatter;
  auto style_param = request.query.find("style");
  if (style_param != request.query.end()) {
    auto parsed = ParseTileStyle(style_param->second);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    style = *parsed;
  }
  auto if_none_match = request.headers.find("if-none-match");
  auto result = service->RenderTile(
      segments[1], tile,
      if_none_match != request.headers.end() ? if_none_match->second : "",
      style, request.trace);
  if (!result.ok()) return ErrorResponse(result.status());
  HttpResponse response;
  response.extra_headers.emplace_back("ETag", result->etag);
  response.extra_headers.emplace_back("X-Vas-Style", TileStyleName(style));
  response.extra_headers.emplace_back(
      "Cache-Control", TileCacheControl(service, result->build_done));
  response.extra_headers.emplace_back("X-Vas-Rung",
                                      std::to_string(result->sample_size));
  response.extra_headers.emplace_back(
      "X-Vas-Rungs-Ready", std::to_string(result->rungs_ready) + "/" +
                               std::to_string(result->rungs_total));
  if (result->not_modified) {
    // The client's copy is current: no body, no render performed.
    response.status = 304;
    return response;
  }
  response.content_type = "image/png";
  response.shared_body = result->png;
  response.extra_headers.emplace_back(
      "X-Vas-Cache", result->cache_hit ? "hit" : "miss");
  return response;
}

HttpResponse HandlePlot(PlotService* service, const HttpRequest& request) {
  auto param = [&request](const char* name) -> const std::string* {
    auto it = request.query.find(name);
    return it == request.query.end() ? nullptr : &it->second;
  };
  const std::string* table = param("table");
  if (table == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("missing ?table= parameter"));
  }
  // NaN parses as a double, but every comparison with it is false: it
  // would pass the inverted-viewport check below and reach the count
  // grid as a coordinate.
  auto number = [](const char* name,
                   const std::string& raw) -> StatusOr<double> {
    VAS_ASSIGN_OR_RETURN(double value, ParseDouble(raw));
    if (std::isnan(value)) {
      return Status::InvalidArgument(std::string(name) + " is not a number");
    }
    return value;
  };
  Rect viewport;  // empty = whole domain
  const char* names[4] = {"xmin", "ymin", "xmax", "ymax"};
  double* slots[4] = {&viewport.min_x, &viewport.min_y, &viewport.max_x,
                      &viewport.max_y};
  size_t given = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string* raw = param(names[i]);
    if (raw == nullptr) continue;
    auto value = number(names[i], *raw);
    if (!value.ok()) return ErrorResponse(value.status());
    *slots[i] = *value;
    ++given;
  }
  if (given != 0 && given != 4) {
    return ErrorResponse(Status::InvalidArgument(
        "viewport needs all of xmin/ymin/xmax/ymax (or none)"));
  }
  if (given == 4 && viewport.empty()) {
    // An inverted rectangle would read as Rect::empty() == whole
    // domain downstream — a silently wrong answer instead of an error.
    return ErrorResponse(Status::InvalidArgument(
        "inverted viewport: xmin must be <= xmax and ymin <= ymax"));
  }
  double budget = 2.0;
  if (const std::string* raw = param("budget")) {
    auto value = number("budget", *raw);
    if (!value.ok()) return ErrorResponse(value.status());
    budget = *value;
  }
  auto info = service->QueryViewport(*table, viewport, budget);
  if (!info.ok()) return ErrorResponse(info.status());
  std::string out = "{";
  out += "\"table\":\"" + JsonEscape(*table) + "\"";
  out += ",\"sample_size\":" + std::to_string(info->sample_size);
  out += ",\"sample_points_in_viewport\":" +
         std::to_string(info->sample_points_in_viewport);
  out += ",\"points_in_viewport\":" +
         std::to_string(info->points_in_viewport);
  out += ",\"estimated_viz_seconds\":" +
         JsonDouble(info->estimated_viz_seconds);
  out += ",\"estimated_full_viz_seconds\":" +
         JsonDouble(info->estimated_full_viz_seconds);
  out += ",\"rungs_ready\":" + std::to_string(info->rungs_ready);
  out += ",\"rungs_total\":" + std::to_string(info->rungs_total);
  out += "}\n";
  return JsonResponse(std::move(out));
}

/// `"key":N` where N is the registry's Total for `metric` (see
/// MetricsRegistry::Total: label-subset match, histogram sums).
std::string CountField(const obs::MetricsRegistry& registry, const char* key,
                       const char* metric, const obs::LabelSet& match = {}) {
  return "\"" + std::string(key) + "\":" +
         std::to_string(registry.Total(metric, match));
}

HttpResponse HandleStatus(PlotService* service, const std::string& table) {
  auto info = service->GetTable(table);
  if (!info.ok()) return ErrorResponse(info.status());
  const CatalogManager& manager = service->manager();
  auto memory = manager.memory_stats();
  const obs::MetricsRegistry& counts = *manager.metrics_registry();
  const obs::MetricsRegistry& tiles = *service->metrics_registry();
  std::string out = "{";
  out += "\"build\":" + BuildStatusJson(*info);
  out += ",\"memory\":{";
  out += "\"budget_bytes\":" + std::to_string(memory.budget_bytes);
  out += ",\"resident_bytes\":" + std::to_string(memory.resident_bytes);
  out += ",\"mapped_bytes\":" + std::to_string(memory.mapped_bytes);
  out += ",\"touched_page_bytes\":" +
         std::to_string(memory.touched_page_bytes);
  out += "," + CountField(counts, "evictions", "vas_catalog_evictions_total");
  out += "," + CountField(counts, "reloads", "vas_catalog_reloads_total");
  out += "," + CountField(counts, "spill_writes",
                          "vas_catalog_spill_writes_total");
  out += "}";
  out += ",\"tile_cache\":{";
  out += CountField(tiles, "hits", "vas_tile_cache_hits_total");
  out += "," + CountField(tiles, "misses", "vas_tile_cache_misses_total");
  out += "," + CountField(tiles, "evictions", "vas_tile_cache_evictions_total");
  out += "," + CountField(tiles, "invalidated",
                          "vas_tile_cache_invalidations_total");
  out += ",\"entries\":" + std::to_string(service->cache().entries());
  out += ",\"bytes\":" + std::to_string(service->cache().bytes());
  out += "}}\n";
  return JsonResponse(std::move(out));
}

/// /stats: transport and render counts, read from `registry` by metric
/// name — the very series /metrics renders.
std::string BuildStatsJson(const obs::MetricsRegistry& registry) {
  std::string out = "{";
  out += CountField(registry, "requests_served", "vas_http_requests_total");
  out += "," + CountField(registry, "connections_accepted",
                          "vas_http_connections_accepted_total");
  out += "," + CountField(registry, "connections_refused",
                          "vas_http_connections_refused_total");
  out += "," + CountField(registry, "active_connections",
                          "vas_http_active_connections");
  out += ",\"render\":{";
  out += CountField(registry, "tiles_rendered", "vas_tiles_rendered_total");
  out += "," + CountField(registry, "scatter_tiles_rendered",
                          "vas_tiles_rendered_total", {{"style", "scatter"}});
  out += "," + CountField(registry, "heatmap_tiles_rendered",
                          "vas_tiles_rendered_total", {{"style", "heatmap"}});
  out += "," + CountField(registry, "partial_tile_loads",
                          "vas_tile_partial_loads_total");
  out += "," + CountField(registry, "render_nanos", "vas_tile_render_ns");
  out += "," + CountField(registry, "encode_nanos", "vas_tile_encode_ns");
  out += "," + CountField(registry, "encode_bytes_in",
                          "vas_tile_encode_bytes_in_total");
  out += "," + CountField(registry, "encode_bytes_out",
                          "vas_tile_encode_bytes_out_total");
  out += "}}\n";
  return out;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

HttpServer::Handler MakeServiceHandler(PlotService* service,
                                       ServiceHandlerOptions options) {
  return [service, options](const HttpRequest& request) -> HttpResponse {
    if (request.path == "/metrics" && options.registry != nullptr) {
      HttpResponse response;
      response.content_type = obs::MetricsRegistry::ExpositionContentType();
      response.body = options.registry->RenderPrometheusText();
      response.extra_headers.emplace_back("Cache-Control", "no-cache");
      return response;
    }
    if (request.path == "/debug/requests" && options.trace_ring != nullptr) {
      std::string out = "{\"requests\":[";
      bool first = true;
      for (const auto& trace : options.trace_ring->Snapshot()) {
        if (!first) out += ",";
        first = false;
        out += obs::TraceToJson(*trace);
      }
      out += "]}\n";
      return JsonResponse(std::move(out));
    }
    if (request.path == "/stats" && options.registry != nullptr) {
      return JsonResponse(BuildStatsJson(*options.registry));
    }
    if (request.path == "/healthz") {
      HttpResponse response;
      response.body = "ok\n";
      return response;
    }
    if (request.path == "/catalogs") {
      std::string out = "{\"catalogs\":[";
      bool first = true;
      for (const PlotService::TableInfo& info : service->Tables()) {
        if (!first) out += ",";
        first = false;
        out += BuildStatusJson(info);
      }
      out += "]}\n";
      return JsonResponse(std::move(out));
    }
    if (request.path == "/plot") return HandlePlot(service, request);

    HttpResponse not_found;
    not_found.status = 404;
    not_found.body = "not found\n";
    if (request.path.empty() || request.path[0] != '/') return not_found;

    // Segment routes: /status/{table} and /tiles/{table}/{z}/{x}/{y}.png.
    std::vector<std::string> segments;
    for (const std::string& s : Split(request.path.substr(1), '/')) {
      segments.push_back(s);
    }
    if (segments.size() == 2 && segments[0] == "status") {
      return HandleStatus(service, segments[1]);
    }
    if (segments.size() == 5 && segments[0] == "tiles") {
      return HandleTile(service, request, segments);
    }
    return not_found;
  };
}

}  // namespace vas
