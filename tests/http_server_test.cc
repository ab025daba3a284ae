// HttpServer + the route table: target/URI parsing, JSON escaping,
// real-socket request/response round trips on an ephemeral port,
// method handling (GET/HEAD/405), concurrent clients, and the whole
// service surface (/healthz, /catalogs, /status, /tiles, /plot)
// end-to-end through MakeServiceHandler over a PlotService.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/http_routes.h"
#include "service/http_server.h"
#include "service/plot_service.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"
#include "util/strings.h"

namespace vas {
namespace {

TEST(HttpParseTest, UriDecode) {
  EXPECT_EQ(UriDecode("plain"), "plain");
  EXPECT_EQ(UriDecode("a%20b"), "a b");
  EXPECT_EQ(UriDecode("%2Fpath%2f"), "/path/");
  EXPECT_EQ(UriDecode("a+b"), "a+b") << "'+' is literal, not a space";
  // Malformed escapes pass through untouched.
  EXPECT_EQ(UriDecode("100%"), "100%");
  EXPECT_EQ(UriDecode("%zz"), "%zz");
  EXPECT_EQ(UriDecode("%4"), "%4");
}

TEST(HttpParseTest, ParseTargetSplitsPathAndQuery) {
  std::string path;
  std::map<std::string, std::string> query;
  ParseTarget("/plot?table=geo&xmin=-1.5&label=a%20b&flag", &path, &query);
  EXPECT_EQ(path, "/plot");
  EXPECT_EQ(query.size(), 4u);
  EXPECT_EQ(query["table"], "geo");
  EXPECT_EQ(query["xmin"], "-1.5");
  EXPECT_EQ(query["label"], "a b");
  EXPECT_EQ(query["flag"], "");

  ParseTarget("/tiles/t%20x/1/0/0.png", &path, &query);
  EXPECT_EQ(path, "/tiles/t x/1/0/0.png");
  EXPECT_TRUE(query.empty());

  ParseTarget("/bare", &path, &query);
  EXPECT_EQ(path, "/bare");
  EXPECT_TRUE(query.empty());
}

TEST(HttpParseTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

HttpServer::Options EphemeralPort(size_t threads = 4) {
  HttpServer::Options options;
  options.port = 0;  // the OS picks; tests never collide on a port
  options.bind_address = "127.0.0.1";
  options.num_threads = threads;
  return options;
}

TEST(HttpServerTest, ServesHandlerResponses) {
  HttpServer server(EphemeralPort(), [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = request.method + " " + request.path;
    if (auto it = request.query.find("q"); it != request.query.end()) {
      response.body += " q=" + it->second;
    }
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto result = HttpGet(server.port(), "/echo?q=hi%21");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->body, "GET /echo q=hi!");
  EXPECT_EQ(result->headers["content-type"], "text/plain");
  EXPECT_EQ(result->headers["content-length"],
            std::to_string(result->body.size()));
  EXPECT_EQ(result->headers["connection"], "close");
  server.Stop();
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServerTest, SharedBodyAndExtraHeadersReachTheWire) {
  auto bytes = std::make_shared<const std::string>("shared-tile-bytes");
  HttpServer server(EphemeralPort(), [bytes](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "image/png";
    response.shared_body = bytes;
    response.extra_headers.emplace_back("X-Vas-Cache", "hit");
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto result = HttpGet(server.port(), "/tile");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->body, *bytes);
  EXPECT_EQ(result->headers["x-vas-cache"], "hit");
}

TEST(HttpServerTest, RejectsNonGetMethodsAndMalformedRequests) {
  HttpServer server(EphemeralPort(), [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());

  // Raw socket: POST -> 405, garbage -> 400, HEAD -> headers only.
  auto raw_request = [&server](const std::string& wire) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    std::string out;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      out.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  };

  // Transport-level errors close the connection, so reading to EOF
  // returns promptly; the well-formed HEAD asks for close explicitly.
  EXPECT_NE(
      raw_request("POST /x HTTP/1.1\r\nHost: h\r\n\r\n").find("405"),
      std::string::npos);
  EXPECT_NE(raw_request("not-http\r\n\r\n").find("400"), std::string::npos);
  std::string head =
      raw_request("HEAD / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n");
  EXPECT_NE(head.find("200"), std::string::npos);
  EXPECT_EQ(head.find("\r\n\r\n"), head.size() - 4)
      << "HEAD response must carry no body";
}

TEST(HttpServerTest, HandlesManyConcurrentClients) {
  std::atomic<size_t> handled{0};
  HttpServer server(EphemeralPort(8), [&handled](const HttpRequest& request) {
    handled.fetch_add(1);
    HttpResponse response;
    response.body = "pong " + request.path;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 16;
  constexpr size_t kRequests = 8;
  std::atomic<size_t> errors{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &errors, c]() {
      for (size_t i = 0; i < kRequests; ++i) {
        std::string path = "/c" + std::to_string(c) + "/" + std::to_string(i);
        auto result = HttpGet(server.port(), path);
        if (!result.ok() || result->status != 200 ||
            result->body != "pong " + path) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(handled.load(), kClients * kRequests);
  server.Stop();
  EXPECT_EQ(server.requests_served(), kClients * kRequests);
}

TEST(HttpServerTest, StopUnderLiveTrafficShutsDownCleanly) {
  // Regression for the accept-loop shutdown race: Stop() used to shut
  // the pool down while the accept loop could still be handing off a
  // connection, and Submit() on a shut-down pool aborts the process.
  // Hammer the server from several clients and stop it mid-traffic;
  // passing means no abort (late requests may fail, that's fine).
  for (int round = 0; round < 3; ++round) {
    HttpServer server(EphemeralPort(2), [](const HttpRequest&) {
      HttpResponse response;
      response.body = "ok";
      return response;
    });
    ASSERT_TRUE(server.Start().ok());
    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&server, &done]() {
        while (!done.load()) {
          auto result = HttpGet(server.port(), "/x");
          (void)result;  // failures after Stop() are expected
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.Stop();
    done.store(true);
    for (std::thread& t : clients) t.join();
  }
}

TEST(HttpParseTest, EtagMatches) {
  EXPECT_TRUE(EtagMatches("\"abc\"", "\"abc\""));
  EXPECT_TRUE(EtagMatches("  \"abc\" ", "\"abc\""));
  EXPECT_TRUE(EtagMatches("W/\"abc\"", "\"abc\""))
      << "If-None-Match uses weak comparison";
  EXPECT_TRUE(EtagMatches("\"x\", \"abc\", \"y\"", "\"abc\""));
  EXPECT_TRUE(EtagMatches("*", "\"abc\""));
  EXPECT_FALSE(EtagMatches("\"abc\"", "\"abd\""));
  EXPECT_FALSE(EtagMatches("", "\"abc\""));
  EXPECT_FALSE(EtagMatches("\"x\", \"y\"", "\"abc\""));
  EXPECT_FALSE(EtagMatches("\"abc\"", ""));
}

/// Raw-socket exchange: connect, send `wire`, read to EOF (bounded by
/// the client-side receive timeout). Returns everything received.
std::string RawExchange(uint16_t port, const std::string& wire,
                        int timeout_seconds = 10) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = timeout_seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string out;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    out.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(HttpKeepAliveTest, SequentialRequestsShareOneConnection) {
  HttpServer server(EphemeralPort(), [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "echo " + request.path;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  auto client = HttpClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto result = client->Get("/r" + std::to_string(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->status, 200);
    EXPECT_EQ(result->body, "echo /r" + std::to_string(i));
    EXPECT_EQ(result->headers["connection"], "keep-alive");
    EXPECT_TRUE(client->connected());
  }
  server.Stop();
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(server.connections_accepted(), 1u)
      << "three requests must not open three connections";
}

TEST(HttpKeepAliveTest, PipelinedSecondRequestInSamePacketIsServed) {
  // Both request heads arrive in one send() — the leftover bytes after
  // the first head must be consumed as the second request, not dropped.
  HttpServer server(EphemeralPort(), [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "got " + request.path;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  std::string wire =
      "GET /first HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  std::string out = RawExchange(server.port(), wire);
  EXPECT_EQ(CountOccurrences(out, "HTTP/1.1 200"), 2u) << out;
  EXPECT_NE(out.find("got /first"), std::string::npos);
  EXPECT_NE(out.find("got /second"), std::string::npos);
  server.Stop();
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(HttpKeepAliveTest, ConnectionCloseHonoredMidStream) {
  HttpServer server(EphemeralPort(), [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto client = HttpClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  auto first = client->Get("/one");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->headers["connection"], "keep-alive");
  ASSERT_TRUE(client->connected());

  auto second = client->Get("/two", {{"Connection", "close"}});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->headers["connection"], "close");
  EXPECT_FALSE(client->connected());
  EXPECT_FALSE(client->Get("/three").ok())
      << "the server must have closed the socket";
  server.Stop();
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(HttpKeepAliveTest, Http10ClosesByDefaultAndKeepsAliveOnRequest) {
  HttpServer server(EphemeralPort(), [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "v " + request.version;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  std::string plain =
      RawExchange(server.port(), "GET / HTTP/1.0\r\nHost: h\r\n\r\n");
  EXPECT_NE(plain.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(plain.find("Connection: close"), std::string::npos)
      << "HTTP/1.0 without an opt-in must close";

  // An explicit keep-alive opt-in holds the socket open: two pipelined
  // 1.0 requests get two responses, the second closing.
  std::string wire =
      "GET /a HTTP/1.0\r\nHost: h\r\nConnection: keep-alive\r\n\r\n"
      "GET /b HTTP/1.0\r\nHost: h\r\n\r\n";
  std::string out = RawExchange(server.port(), wire);
  EXPECT_EQ(CountOccurrences(out, "HTTP/1.1 200"), 2u) << out;
  EXPECT_NE(out.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(out.find("Connection: close"), std::string::npos);
}

TEST(HttpKeepAliveTest, OversizedRequestHeadGets431) {
  HttpServer::Options options = EphemeralPort();
  options.max_request_bytes = 1024;
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  std::string wire = "GET / HTTP/1.1\r\nHost: h\r\nX-Big: " +
                     std::string(4096, 'a') + "\r\n\r\n";
  std::string out = RawExchange(server.port(), wire);
  EXPECT_NE(out.find("431"), std::string::npos) << out;
}

TEST(HttpKeepAliveTest, IdleSocketIsClosedAfterIdleTimeout) {
  HttpServer::Options options = EphemeralPort();
  options.idle_timeout_ms = 150;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto client = HttpClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Get("/x").ok());
  EXPECT_TRUE(client->connected());

  // Sit idle past the timeout: the server must close the socket (the
  // next read sees EOF -> the Get fails) well before the 10s default.
  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(client->Get("/y").ok());
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(waited.count(), 5000);
  server.Stop();
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpKeepAliveTest, MaxRequestsPerConnectionCapCloses) {
  // A cap of 1 turns keep-alive off: every connection closes after its
  // first response.
  for (size_t cap : {1u, 2u}) {
    HttpServer::Options options = EphemeralPort();
    options.max_requests_per_connection = cap;
    HttpServer server(options, [](const HttpRequest&) {
      HttpResponse response;
      response.body = "ok";
      return response;
    });
    ASSERT_TRUE(server.Start().ok());
    auto client = HttpClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 1; i < cap; ++i) {
      auto kept = client->Get("/" + std::to_string(i));
      ASSERT_TRUE(kept.ok());
      EXPECT_EQ(kept->headers["connection"], "keep-alive") << "cap " << cap;
    }
    auto last = client->Get("/" + std::to_string(cap));
    ASSERT_TRUE(last.ok());
    EXPECT_EQ(last->headers["connection"], "close")
        << "the capped response must announce the close; cap " << cap;
    EXPECT_FALSE(client->connected()) << "cap " << cap;
  }
}

TEST(HttpKeepAliveTest, ConnectionLimitRefusesWith503) {
  HttpServer::Options options = EphemeralPort();
  options.max_connections = 1;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto holder = HttpClient::Connect(server.port());
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(holder->Get("/x").ok());  // connection admitted and live
  EXPECT_EQ(server.active_connections(), 1u);

  auto refused = HttpGet(server.port(), "/y");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 503);

  // Releasing the held connection frees the slot.
  holder->Close();
  for (int i = 0; i < 500 && server.active_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto admitted = HttpGet(server.port(), "/z");
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, 200);
}

TEST(HttpKeepAliveTest, StopClosesIdleKeepAliveSocketsPromptly) {
  // Graceful drain: Stop() must not wait out the (long) idle timeout
  // of parked keep-alive sockets.
  HttpServer::Options options = EphemeralPort();
  options.idle_timeout_ms = 60000;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto client = HttpClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Get("/x").ok());

  auto start = std::chrono::steady_clock::now();
  server.Stop();
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(waited.count(), 5000)
      << "Stop() must close idle sockets, not wait for their timeout";
  EXPECT_FALSE(client->Get("/y").ok());
}

int ConnectRaw(uint16_t port, int rcvbuf_bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    // Must be set before connect so the window scales from the small
    // buffer — this is what makes the server's sends hit EAGAIN.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(HttpEpollTest, SlowClientDoesNotStallFastClient) {
  // The isolation the event loop buys: with a SINGLE render worker, a
  // client dribbling a 1 MiB tile one byte per 100ms must not delay a
  // concurrent fast client — the slow transfer parks in the
  // connection's output buffer, not on the worker.
  auto tile = std::make_shared<const std::string>(std::string(1 << 20, 'T'));
  HttpServer server(EphemeralPort(/*threads=*/1),
                    [tile](const HttpRequest&) {
                      HttpResponse response;
                      response.content_type = "application/octet-stream";
                      response.shared_body = tile;
                      return response;
                    });
  ASSERT_TRUE(server.Start().ok());

  int slow = ConnectRaw(server.port(), 4096);
  std::string wire = "GET /tile HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(slow, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::atomic<bool> stop_reading{false};
  std::thread dribble([&] {
    char byte;
    while (!stop_reading.load()) {
      if (::recv(slow, &byte, 1, 0) <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // Let the slow transfer get rendered and queued first.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto start = std::chrono::steady_clock::now();
  auto fast = HttpGet(server.port(), "/tile");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->body.size(), tile->size());
  // At the dribble rate the slow transfer takes >1 day; anything close
  // to wall-clock seconds here means the worker was pinned on it.
  EXPECT_LT(elapsed.count(), 3000)
      << "slow reader stalled a fast client's request";

  stop_reading.store(true);
  ::shutdown(slow, SHUT_RDWR);
  dribble.join();
  ::close(slow);
  server.Stop();
}

TEST(HttpEpollTest, LargeResponseToPausingReaderArrivesIntact) {
  // Forces many partial sends: a patterned 2 MiB body squeezed through
  // a small client receive window, read in bursts with pauses, must
  // arrive byte-identical — EPOLLOUT re-arm and output-segment offsets
  // cannot drop, duplicate, or reorder anything.
  std::string pattern(2 * 1024 * 1024, '\0');
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<char>('a' + (i % 23));
  }
  auto body = std::make_shared<const std::string>(std::move(pattern));
  HttpServer server(EphemeralPort(2), [body](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/octet-stream";
    response.shared_body = body;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectRaw(server.port(), 4096);
  std::string wire =
      "GET /big HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string out;
  char buffer[32768];
  size_t since_pause = 0;
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    out.append(buffer, static_cast<size_t>(n));
    since_pause += static_cast<size_t>(n);
    if (since_pause >= 256 * 1024) {
      // Let the server's sends run dry and EPOLLOUT disarm/re-arm.
      since_pause = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ::close(fd);
  size_t head_end = out.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(out.substr(head_end + 4), *body);
  server.Stop();
}

TEST(HttpEpollTest, OutputCapDisconnectsReaderThatNeverDrains) {
  // A client that pipelines requests but never reads must be cut off
  // once its unsent responses exceed the output cap — and the server
  // must keep serving everyone else.
  HttpServer::Options options = EphemeralPort(2);
  options.max_output_buffer_bytes = 64 * 1024;
  options.io_timeout_seconds = 60;  // the cap must trigger, not the stall
  std::string chunk(16 * 1024, 'x');
  HttpServer server(options, [chunk](const HttpRequest&) {
    HttpResponse response;
    response.body = chunk;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectRaw(server.port(), 4096);
  std::string wire;
  // Enough pipelined responses to overflow even a fully auto-tuned
  // kernel send buffer (tcp_wmem max is typically 4 MiB) — only then
  // do sends hit EAGAIN and the server-side output buffer grow.
  const size_t kPipelined = 400;
  for (size_t i = 0; i < kPipelined; ++i) {
    wire += "GET /r" + std::to_string(i) + " HTTP/1.1\r\nHost: h\r\n\r\n";
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // Don't read. Wait for the server to hit the cap and close; then
  // drain whatever was in flight — it must be far less than the
  // ~2 MiB total the pipeline asked for.
  timeval tv{};
  tv.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  size_t drained = 0;
  char buffer[32768];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    drained += static_cast<size_t>(n);
  }
  EXPECT_LE(n, 0) << "server must close the capped connection";
  ::close(fd);
  EXPECT_LT(drained, kPipelined * chunk.size())
      << "cap never triggered: the whole pipeline was buffered";

  auto healthy = HttpGet(server.port(), "/after");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->status, 200);
  server.Stop();
}

TEST(HttpEpollTest, ManyMostlyIdleConnectionsAreHeldWithoutRefusals) {
  // The fd-based limit: hundreds of parked keep-alive sockets on a
  // 2-worker server, zero refusals, and requests still served. Sized
  // to the process fd budget (client + server ends both count here).
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  size_t budget =
      limit.rlim_cur > 200 ? (static_cast<size_t>(limit.rlim_cur) - 200) / 2
                           : 16;
  const size_t held = std::min<size_t>(300, budget);
  HttpServer::Options options = EphemeralPort(2);
  options.idle_timeout_ms = 60000;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  std::vector<HttpClient> clients;
  clients.reserve(held);
  for (size_t i = 0; i < held; ++i) {
    auto client = HttpClient::Connect(server.port());
    ASSERT_TRUE(client.ok()) << "connection " << i << ": "
                             << client.status().ToString();
    auto result = client->Get("/warm");
    ASSERT_TRUE(result.ok()) << "connection " << i << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->status, 200) << "no 503s under the fd-based limit";
    clients.push_back(std::move(*client));
  }
  EXPECT_EQ(server.connections_refused(), 0u);
  EXPECT_EQ(server.connections_accepted(), held);
  EXPECT_EQ(server.active_connections(), held);
  EXPECT_EQ(server.requests_served(), held);

  // The parked sockets are all still live, not just counted.
  auto again = clients.front().Get("/again");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->status, 200);
  server.Stop();
}

TEST(HttpEpollTest, RefusedConnectionsAreCounted) {
  HttpServer::Options options = EphemeralPort();
  options.max_connections = 1;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto holder = HttpClient::Connect(server.port());
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(holder->Get("/x").ok());

  auto refused = HttpGet(server.port(), "/y");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 503);
  EXPECT_EQ(server.connections_refused(), 1u)
      << "refusals must show up in the server's own accounting";
  EXPECT_EQ(server.connections_accepted(), 1u)
      << "a refused socket is not an accepted connection";
  server.Stop();
}

TEST(HttpClientTest, RecvTimeoutReportedAsTimeoutNotPeerClose) {
  // A peer that promises 100 body bytes, delivers 7, then stalls: the
  // client must report its receive timeout as a timeout — previously
  // SO_RCVTIMEO expiry was misreported as "connection closed mid-body".
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  uint16_t port = ntohs(addr.sin_port);

  std::thread peer([listener] {
    int conn = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    char buffer[1024];
    ::recv(conn, buffer, sizeof(buffer), 0);  // the request
    std::string head =
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        "Content-Length: 100\r\nConnection: keep-alive\r\n\r\npartial";
    ::send(conn, head.data(), head.size(), MSG_NOSIGNAL);
    // Stall: no more bytes. The blocked recv returns when the client
    // gives up and closes its end.
    ::recv(conn, buffer, sizeof(buffer), 0);
    ::close(conn);
  });

  auto client = HttpClient::Connect(port, "127.0.0.1",
                                    /*timeout_seconds=*/1);
  ASSERT_TRUE(client.ok());
  auto result = client->Get("/stalled");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("timed out"), std::string::npos)
      << "got: " << result.status().ToString();
  EXPECT_EQ(result.status().ToString().find("connection closed"),
            std::string::npos)
      << "a timeout is not a peer close: " << result.status().ToString();
  peer.join();
  ::close(listener);
}

TEST(HttpServerTest, StartTwiceFailsAndStopIsIdempotent) {
  HttpServer server(EphemeralPort(), [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  server.Stop();
  server.Stop();
}

TEST(HttpServerTest, BadBindAddressFailsToStart) {
  HttpServer::Options options;
  options.port = 0;
  options.bind_address = "not-an-address";
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse{};
  });
  EXPECT_FALSE(server.Start().ok());
}

/// The fields of a JSON body in document order, nested objects' fields
/// included: each key with its raw value text (quotes kept on strings;
/// "" for an object or array, whose fields follow). Enough for the
/// flat, escape-free bodies the routes emit.
std::vector<std::pair<std::string, std::string>> JsonFields(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> fields;
  size_t at = 0;
  while ((at = body.find('"', at)) != std::string::npos) {
    size_t close = body.find('"', at + 1);
    if (close == std::string::npos) break;
    std::string key = body.substr(at + 1, close - at - 1);
    at = close + 1;
    if (at >= body.size() || body[at] != ':') continue;  // a string value
    size_t end = ++at;
    if (body[at] == '"') {
      end = body.find('"', at + 1) + 1;
    } else if (body[at] != '{' && body[at] != '[') {
      end = body.find_first_of(",}]", at);
    }
    fields.emplace_back(key, body.substr(at, end - at));
    at = end;
  }
  return fields;
}

std::vector<std::string> JsonKeys(const std::string& body) {
  std::vector<std::string> keys;
  for (const auto& field : JsonFields(body)) keys.push_back(field.first);
  return keys;
}

/// Prometheus text exposition as series -> value ("name{labels}" keys,
/// comments skipped).
std::map<std::string, int64_t> ParseExposition(const std::string& text) {
  std::map<std::string, int64_t> series;
  for (const std::string& line : Split(text, '\n')) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    series[line.substr(0, space)] = std::stoll(line.substr(space + 1));
  }
  return series;
}

/// Sum of every series whose name (labels included) starts with
/// `prefix` — e.g. all styles of one family.
int64_t SeriesSum(const std::map<std::string, int64_t>& series,
                  const std::string& prefix) {
  int64_t total = 0;
  for (const auto& [name, value] : series) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += value;
  }
  return total;
}

/// The full service surface over real sockets: one PlotService with a
/// finished two-rung ladder behind MakeServiceHandler. One registry is
/// wired through the service, the transport, and the handler, which is
/// what /stats reads its counts from.
class ServiceEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlotService::Options service_options;
    service_options.registry = &registry_;
    service_ = std::make_unique<PlotService>(service_options);
    dataset_ = std::make_shared<Dataset>(test::Skewed(4000));
    dataset_->CacheBounds();
    ASSERT_TRUE(service_
                    ->RegisterTable(
                        "geo", dataset_,
                        []() {
                          return std::make_unique<UniformReservoirSampler>(3);
                        },
                        [] {
                          SampleCatalog::Options options;
                          options.ladder = {200, 800};
                          options.embed_density = false;
                          return options;
                        }())
                    .ok());
    ASSERT_TRUE(service_->manager().WaitUntilDone(CatalogKey{"geo"}).ok());
    HttpServer::Options server_options = EphemeralPort();
    server_options.registry = &registry_;
    ServiceHandlerOptions handler_options;
    handler_options.registry = &registry_;
    server_ = std::make_unique<HttpServer>(
        server_options, MakeServiceHandler(service_.get(), handler_options));
    ASSERT_TRUE(server_->Start().ok());
  }

  HttpFetchResult Get(const std::string& target) {
    auto result = HttpGet(server_->port(), target);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : HttpFetchResult{};
  }

  obs::MetricsRegistry registry_;
  std::shared_ptr<Dataset> dataset_;
  std::unique_ptr<PlotService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServiceEndpointTest, Healthz) {
  auto result = Get("/healthz");
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "ok\n");
}

TEST_F(ServiceEndpointTest, StatsEndpointReportsTransportCounters) {
  ASSERT_EQ(Get("/healthz").status, 200);
  auto result = Get("/stats");
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.headers["content-type"], "application/json");
  EXPECT_NE(result.body.find("\"requests_served\":"), std::string::npos)
      << result.body;
  EXPECT_NE(result.body.find("\"connections_accepted\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"connections_refused\":0"), std::string::npos);
  EXPECT_NE(result.body.find("\"active_connections\":"), std::string::npos);
}

TEST_F(ServiceEndpointTest, CatalogsListsTheTable) {
  auto result = Get("/catalogs");
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.headers["content-type"], "application/json");
  EXPECT_NE(result.body.find("\"table\":\"geo\""), std::string::npos);
  EXPECT_NE(result.body.find("\"rungs_ready\":2"), std::string::npos);
  EXPECT_NE(result.body.find("\"done\":true"), std::string::npos);
  EXPECT_NE(result.body.find("\"world\":["), std::string::npos);
}

TEST_F(ServiceEndpointTest, CatalogsWorldRoundTripsExactly) {
  // Clients rebuild the server's TileGrid from `world`, so each bound
  // must parse back to the very double tiles are addressed with.
  auto result = Get("/catalogs");
  ASSERT_EQ(result.status, 200);
  const std::string open = "\"world\":[";
  size_t begin = result.body.find(open);
  ASSERT_NE(begin, std::string::npos) << result.body;
  begin += open.size();
  std::vector<std::string> bounds =
      Split(result.body.substr(begin, result.body.find(']', begin) - begin),
            ',');
  ASSERT_EQ(bounds.size(), 4u) << result.body;
  auto grid = service_->GridFor("geo");
  ASSERT_TRUE(grid.ok());
  const Rect& world = grid->world();
  const double expected[4] = {world.min_x, world.min_y, world.max_x,
                              world.max_y};
  auto bits = [](double v) {
    uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  };
  for (size_t i = 0; i < 4; ++i) {
    double parsed = std::strtod(bounds[i].c_str(), nullptr);
    EXPECT_EQ(bits(parsed), bits(expected[i]))
        << "served " << bounds[i] << " for "
        << StrFormat("%.17g", expected[i]);
  }
}

TEST_F(ServiceEndpointTest, StatusReportsBuildMemoryAndCache) {
  auto result = Get("/status/geo");
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"build\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"memory\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"tile_cache\":"), std::string::npos);
  // The whole shape, in order: clients parse these bodies by key.
  EXPECT_EQ(JsonKeys(result.body),
            (std::vector<std::string>{
                "build", "table", "x", "y", "rows", "rungs_ready",
                "rungs_total", "done", "resident", "memory_bytes", "world",
                "memory", "budget_bytes", "resident_bytes", "mapped_bytes",
                "touched_page_bytes", "evictions", "reloads", "spill_writes",
                "tile_cache", "hits", "misses", "evictions", "invalidated",
                "entries", "bytes"}))
      << result.body;
  EXPECT_EQ(Get("/status/nope").status, 404);
}

TEST_F(ServiceEndpointTest, TileEndpointServesPngWithCacheHeaders) {
  auto cold = Get("/tiles/geo/1/0/1.png");
  EXPECT_EQ(cold.status, 200);
  EXPECT_EQ(cold.headers["content-type"], "image/png");
  ASSERT_GE(cold.body.size(), 8u);
  EXPECT_EQ(cold.body.substr(0, 8), std::string("\x89PNG\r\n\x1a\n", 8));
  EXPECT_EQ(cold.headers["x-vas-cache"], "miss");
  EXPECT_EQ(cold.headers["x-vas-rung"], "800");
  EXPECT_EQ(cold.headers["x-vas-rungs-ready"], "2/2");

  auto warm = Get("/tiles/geo/1/0/1.png");
  EXPECT_EQ(warm.headers["x-vas-cache"], "hit");
  EXPECT_EQ(warm.body, cold.body) << "hit and miss must be byte-identical";
}

TEST_F(ServiceEndpointTest, TileConditionalRequestsGet304) {
  auto cold = Get("/tiles/geo/1/0/1.png");
  ASSERT_EQ(cold.status, 200);
  std::string etag = cold.headers["etag"];
  ASSERT_FALSE(etag.empty());
  EXPECT_EQ(etag.front(), '"');
  EXPECT_EQ(etag.back(), '"') << "strong ETags are quoted";
  // The fixture's ladder is finished, so tiles are long-lived.
  EXPECT_EQ(cold.headers["cache-control"], "public, max-age=3600");

  auto client = HttpClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  auto not_modified =
      client->Get("/tiles/geo/1/0/1.png", {{"If-None-Match", etag}});
  ASSERT_TRUE(not_modified.ok());
  EXPECT_EQ(not_modified->status, 304);
  EXPECT_TRUE(not_modified->body.empty())
      << "304 must not carry the tile bytes";
  EXPECT_EQ(not_modified->headers["etag"], etag);
  EXPECT_EQ(not_modified->headers.count("content-length"), 0u);
  EXPECT_TRUE(client->connected())
      << "a 304 must not break the keep-alive framing";

  // The same socket still serves full responses afterwards.
  auto mismatch = client->Get("/tiles/geo/1/0/1.png",
                              {{"If-None-Match", "\"stale\""}});
  ASSERT_TRUE(mismatch.ok());
  EXPECT_EQ(mismatch->status, 200);
  EXPECT_EQ(mismatch->body, cold.body);
}

TEST_F(ServiceEndpointTest, HeatmapStyleServesDistinctCachedTiles) {
  auto scatter = Get("/tiles/geo/1/0/1.png");
  auto heatmap = Get("/tiles/geo/1/0/1.png?style=heatmap");
  EXPECT_EQ(heatmap.status, 200);
  EXPECT_EQ(heatmap.headers["content-type"], "image/png");
  EXPECT_EQ(heatmap.headers["x-vas-style"], "heatmap");
  EXPECT_EQ(scatter.headers["x-vas-style"], "scatter");
  EXPECT_NE(heatmap.headers["etag"], scatter.headers["etag"])
      << "the two styles are distinct resources";
  ASSERT_GE(heatmap.body.size(), 8u);
  EXPECT_EQ(heatmap.body.substr(0, 8), std::string("\x89PNG\r\n\x1a\n", 8));
  EXPECT_NE(heatmap.body, scatter.body);
  EXPECT_EQ(heatmap.headers["x-vas-cache"], "miss");

  auto warm = Get("/tiles/geo/1/0/1.png?style=heatmap");
  EXPECT_EQ(warm.headers["x-vas-cache"], "hit");
  EXPECT_EQ(warm.body, heatmap.body);

  // An explicit ?style=scatter is the same resource as the default.
  auto explicit_scatter = Get("/tiles/geo/1/0/1.png?style=scatter");
  EXPECT_EQ(explicit_scatter.headers["x-vas-cache"], "hit");
  EXPECT_EQ(explicit_scatter.body, scatter.body);
  EXPECT_EQ(explicit_scatter.headers["etag"], scatter.headers["etag"]);
}

TEST_F(ServiceEndpointTest, HeatmapConditionalRequestsArePerStyle) {
  auto heatmap = Get("/tiles/geo/1/0/1.png?style=heatmap");
  ASSERT_EQ(heatmap.status, 200);
  std::string etag = heatmap.headers["etag"];
  auto client = HttpClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  auto conditional = client->Get("/tiles/geo/1/0/1.png?style=heatmap",
                                 {{"If-None-Match", etag}});
  ASSERT_TRUE(conditional.ok());
  EXPECT_EQ(conditional->status, 304);
  // The heatmap tag must not validate the scatter resource.
  auto cross = client->Get("/tiles/geo/1/0/1.png",
                           {{"If-None-Match", etag}});
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->status, 200);
}

TEST_F(ServiceEndpointTest, UnknownTileStyleIs400) {
  auto result = Get("/tiles/geo/1/0/1.png?style=sepia");
  EXPECT_EQ(result.status, 400);
  EXPECT_NE(result.body.find("unknown tile style"), std::string::npos)
      << result.body;
}

TEST_F(ServiceEndpointTest, StatsReportsRenderAndEncodeCounters) {
  ASSERT_EQ(Get("/tiles/geo/0/0/0.png").status, 200);
  ASSERT_EQ(Get("/tiles/geo/0/0/0.png?style=heatmap").status, 200);
  auto result = Get("/stats");
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"render\":{"), std::string::npos)
      << result.body;
  EXPECT_NE(result.body.find("\"tiles_rendered\":2"), std::string::npos);
  EXPECT_NE(result.body.find("\"scatter_tiles_rendered\":1"),
            std::string::npos);
  EXPECT_NE(result.body.find("\"heatmap_tiles_rendered\":1"),
            std::string::npos);
  EXPECT_NE(result.body.find("\"encode_bytes_in\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"encode_bytes_out\":"), std::string::npos);
}

TEST_F(ServiceEndpointTest, JsonEndpointsAreNoCache) {
  EXPECT_EQ(Get("/catalogs").headers["cache-control"], "no-cache");
  EXPECT_EQ(Get("/status/geo").headers["cache-control"], "no-cache");
  EXPECT_EQ(Get("/plot?table=geo").headers["cache-control"], "no-cache");
}

TEST_F(ServiceEndpointTest, TileErrorsMapToHttpCodes) {
  EXPECT_EQ(Get("/tiles/nope/0/0/0.png").status, 404);
  EXPECT_EQ(Get("/tiles/geo/1/9/0.png").status, 400) << "x outside 2^z grid";
  EXPECT_EQ(Get("/tiles/geo/1/-1/0.png").status, 400);
  EXPECT_EQ(Get("/tiles/geo/1/x/0.png").status, 400);
  EXPECT_EQ(Get("/tiles/geo/1/0/0.jpg").status, 404) << "only .png exists";
}

TEST_F(ServiceEndpointTest, PlotReturnsViewportCounts) {
  auto whole = Get("/plot?table=geo");
  EXPECT_EQ(whole.status, 200);
  EXPECT_NE(whole.body.find("\"points_in_viewport\":4000"),
            std::string::npos)
      << whole.body;
  EXPECT_NE(whole.body.find("\"sample_size\":800"), std::string::npos);

  EXPECT_EQ(Get("/plot").status, 400) << "missing ?table=";
  EXPECT_EQ(Get("/plot?table=geo&xmin=0").status, 400)
      << "partial viewport";
  EXPECT_EQ(Get("/plot?table=geo&xmin=a&ymin=0&xmax=1&ymax=1").status, 400);
  EXPECT_EQ(Get("/plot?table=geo&xmin=5&ymin=5&xmax=1&ymax=1").status, 400)
      << "inverted viewport must error, not silently mean whole-domain";
  EXPECT_EQ(Get("/plot?table=geo&xmin=nan&ymin=0&xmax=1&ymax=1").status, 400)
      << "NaN passes every comparison, so it must be rejected on parse";
  EXPECT_EQ(Get("/plot?table=geo&budget=nan").status, 400);
  EXPECT_EQ(Get("/plot?table=nope").status, 404);

  // A viewport reaching far past the data counts what the same viewport
  // clipped to the world does: the brute-force count of its points.
  const Rect world = dataset_->Bounds();
  const Point center = world.Center();
  const Rect far = Rect::Of(center.x, center.y, 1e20, 1e20);
  size_t brute = 0;
  for (const Point& p : dataset_->points) {
    if (far.Contains(p)) ++brute;
  }
  ASSERT_GT(brute, 0u);
  const std::string expected =
      "\"points_in_viewport\":" + std::to_string(brute) + ",";
  const std::string corner =
      StrFormat("/plot?table=geo&xmin=%.17g&ymin=%.17g", center.x, center.y);
  auto far_plot = Get(corner + "&xmax=1e20&ymax=1e20");
  EXPECT_EQ(far_plot.status, 200);
  EXPECT_NE(far_plot.body.find(expected), std::string::npos) << far_plot.body;
  auto clipped = Get(corner + StrFormat("&xmax=%.17g&ymax=%.17g",
                                        world.max_x, world.max_y));
  EXPECT_EQ(clipped.status, 200);
  EXPECT_NE(clipped.body.find(expected), std::string::npos) << clipped.body;
}

TEST_F(ServiceEndpointTest, UnknownRouteIs404) {
  EXPECT_EQ(Get("/").status, 404);
  EXPECT_EQ(Get("/tiles/geo/1/0.png").status, 404) << "wrong segment count";
}

/// The fully observed deployment shape: one shared registry and trace
/// ring wired through the service, the transport, and the handler —
/// the same wiring serve_main does.
class ObservedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlotService::Options service_options;
    service_options.registry = &registry_;
    service_ = std::make_unique<PlotService>(service_options);
    auto dataset = std::make_shared<Dataset>(test::Skewed(4000));
    dataset->CacheBounds();
    ASSERT_TRUE(service_
                    ->RegisterTable(
                        "geo", dataset,
                        []() {
                          return std::make_unique<UniformReservoirSampler>(3);
                        },
                        [] {
                          SampleCatalog::Options options;
                          options.ladder = {200, 800};
                          options.embed_density = false;
                          return options;
                        }())
                    .ok());
    ASSERT_TRUE(service_->manager().WaitUntilDone(CatalogKey{"geo"}).ok());
    HttpServer::Options server_options = EphemeralPort();
    server_options.registry = &registry_;
    server_options.trace_ring = &ring_;
    ServiceHandlerOptions handler_options;
    handler_options.registry = &registry_;
    handler_options.trace_ring = &ring_;
    server_ = std::make_unique<HttpServer>(
        server_options, MakeServiceHandler(service_.get(), handler_options));
    ASSERT_TRUE(server_->Start().ok());
  }

  HttpFetchResult Get(const std::string& target) {
    auto result = HttpGet(server_->port(), target);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : HttpFetchResult{};
  }

  /// /debug/requests for `request_id`, retried briefly: the trace only
  /// reaches the ring after the response bytes drain, which races the
  /// client seeing the body.
  std::string DebugEntryFor(const std::string& request_id) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto debug = Get("/debug/requests");
      EXPECT_EQ(debug.status, 200);
      size_t at = debug.body.find(request_id);
      if (at != std::string::npos) {
        // The entry runs from its opening brace to the next one (each
        // trace object is emitted on one line of the array).
        size_t begin = debug.body.rfind('{', at);
        size_t end = debug.body.find("{\"request_id\"", at);
        return debug.body.substr(
            begin, end == std::string::npos ? std::string::npos : end - begin);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return "";
  }

  /// duration_ns of the named span inside one /debug/requests entry,
  /// or -1 when the span is absent.
  static int64_t SpanDurationIn(const std::string& entry,
                                const std::string& span_name) {
    size_t at = entry.find("\"name\":\"" + span_name + "\"");
    if (at == std::string::npos) return -1;
    at = entry.find("\"duration_ns\":", at);
    if (at == std::string::npos) return -1;
    return std::strtoll(entry.c_str() + at + 14, nullptr, 10);
  }

  obs::MetricsRegistry registry_;
  obs::TraceRing ring_{8};
  std::unique_ptr<PlotService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ObservedServiceTest, MetricsEndpointSpeaksPrometheusText) {
  ASSERT_EQ(Get("/tiles/geo/1/0/1.png").status, 200);
  ASSERT_EQ(Get("/tiles/geo/1/0/1.png").status, 200) << "second hit caches";
  auto result = Get("/metrics");
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.headers["content-type"],
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(result.headers["cache-control"], "no-cache");
  const std::string& body = result.body;
  // Transport, pool, render, and cache series all land in one scrape.
  EXPECT_NE(body.find("# TYPE vas_http_requests_total counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("vas_http_requests_total "), std::string::npos);
  EXPECT_NE(body.find("vas_pool_queue_wait_ns_count{pool=\"http\"}"),
            std::string::npos);
  EXPECT_NE(body.find("vas_tiles_rendered_total{style=\"scatter\"} 1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("vas_tile_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(body.find("vas_tile_render_ns_count{style=\"scatter\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("vas_tile_render_ns_bucket{style=\"scatter\",le="),
            std::string::npos);
  EXPECT_NE(body.find("vas_catalog_resident_bytes"), std::string::npos)
      << "manager callback gauges must appear in the shared registry";
  // Zero-valued render counters must not leak the disabled state: the
  // histogram count equals the counter by construction.
  EXPECT_EQ(body.find("vas_tiles_rendered_total{style=\"scatter\"} 0"),
            std::string::npos);
}

TEST_F(ObservedServiceTest, SuppliedRequestIdIsEchoed) {
  auto client = HttpClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  auto result = client->Get("/tiles/geo/1/0/1.png",
                            {{"X-Vas-Request-Id", "caller-trace-77"}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->headers["x-vas-request-id"], "caller-trace-77");
  EXPECT_NE(DebugEntryFor("caller-trace-77"), "")
      << "the caller's id names the ring entry";
}

TEST_F(ObservedServiceTest, MintedRequestIdReachesDebugRing) {
  auto result = Get("/tiles/geo/1/1/0.png");
  ASSERT_EQ(result.status, 200);
  std::string id = result.headers["x-vas-request-id"];
  ASSERT_EQ(id.substr(0, 4), "vas-") << "minted ids carry the vas- prefix";

  std::string entry = DebugEntryFor(id);
  ASSERT_NE(entry, "") << "traced request never reached /debug/requests";
  // The span chain covers transport and render stages with real time.
  // Every cold tile resolves its sample in one materialize span; a
  // resident ladder's reads no page bytes.
  for (const char* span : {"parse", "queue_wait", "handle", "rung_choice",
                           "materialize", "render", "encode",
                           "send_drain"}) {
    EXPECT_NE(entry.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span << " missing from " << entry;
  }
  const size_t materialize = entry.find("\"name\":\"materialize\"");
  ASSERT_NE(materialize, std::string::npos) << entry;
  const std::string annotations =
      entry.substr(materialize, entry.find('}', materialize) - materialize);
  EXPECT_NE(annotations.find("\"touched_bytes\":0"), std::string::npos)
      << annotations;
  const size_t points = annotations.find("\"points\":");
  ASSERT_NE(points, std::string::npos) << annotations;
  EXPECT_GT(std::strtoll(annotations.c_str() + points + 9, nullptr, 10), 0)
      << annotations;
  // The acceptance bar: queue-wait, render, and encode all cost real,
  // attributed time on a cold tile.
  EXPECT_GT(SpanDurationIn(entry, "queue_wait"), 0) << entry;
  EXPECT_GT(SpanDurationIn(entry, "render"), 0) << entry;
  EXPECT_GT(SpanDurationIn(entry, "encode"), 0) << entry;
  EXPECT_NE(entry.find("\"status\":200"), std::string::npos) << entry;
}

TEST_F(ObservedServiceTest, StatsAndMetricsAgreeByConstruction) {
  // Every request rides one keep-alive connection, so between the
  // /stats and /metrics fetches the only count that moves is the
  // /stats request itself, counted once its response is queued.
  auto client = HttpClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  auto fetch = [&client](const std::string& target) {
    auto result = client->Get(target);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : HttpFetchResult{};
  };
  ASSERT_EQ(fetch("/tiles/geo/0/0/0.png").status, 200);
  ASSERT_EQ(fetch("/tiles/geo/0/0/0.png?style=heatmap").status, 200);
  auto stats = fetch("/stats");
  EXPECT_EQ(stats.status, 200);
  auto exposition = fetch("/metrics");
  ASSERT_EQ(exposition.status, 200);

  EXPECT_EQ(JsonKeys(stats.body),
            (std::vector<std::string>{
                "requests_served", "connections_accepted",
                "connections_refused", "active_connections", "render",
                "tiles_rendered", "scatter_tiles_rendered",
                "heatmap_tiles_rendered", "partial_tile_loads",
                "render_nanos", "encode_nanos", "encode_bytes_in",
                "encode_bytes_out"}))
      << stats.body;
  std::map<std::string, std::string> field;
  for (const auto& [key, value] : JsonFields(stats.body)) field[key] = value;
  const std::map<std::string, int64_t> series =
      ParseExposition(exposition.body);
  auto value_of = [&series](const std::string& name) {
    auto it = series.find(name);
    EXPECT_NE(it, series.end()) << name << " missing from /metrics";
    return it == series.end() ? int64_t{-1} : it->second;
  };
  EXPECT_EQ(field["requests_served"],
            std::to_string(value_of("vas_http_requests_total") - 1));
  EXPECT_EQ(field["connections_accepted"],
            std::to_string(value_of("vas_http_connections_accepted_total")));
  EXPECT_EQ(field["connections_refused"],
            std::to_string(value_of("vas_http_connections_refused_total")));
  EXPECT_EQ(field["active_connections"],
            std::to_string(value_of("vas_http_active_connections")));
  EXPECT_EQ(field["tiles_rendered"],
            std::to_string(SeriesSum(series, "vas_tiles_rendered_total{")));
  EXPECT_EQ(field["scatter_tiles_rendered"],
            std::to_string(
                value_of("vas_tiles_rendered_total{style=\"scatter\"}")));
  EXPECT_EQ(field["heatmap_tiles_rendered"],
            std::to_string(
                value_of("vas_tiles_rendered_total{style=\"heatmap\"}")));
  EXPECT_EQ(field["partial_tile_loads"],
            std::to_string(value_of("vas_tile_partial_loads_total")));
  EXPECT_EQ(field["render_nanos"],
            std::to_string(SeriesSum(series, "vas_tile_render_ns_sum{")));
  EXPECT_EQ(field["encode_nanos"],
            std::to_string(SeriesSum(series, "vas_tile_encode_ns_sum{")));
  EXPECT_EQ(field["encode_bytes_in"],
            std::to_string(value_of("vas_tile_encode_bytes_in_total")));
  EXPECT_EQ(field["encode_bytes_out"],
            std::to_string(value_of("vas_tile_encode_bytes_out_total")));
  EXPECT_EQ(field["tiles_rendered"], "2");
  EXPECT_NE(field["render_nanos"], "0");
  // The JSON fields are read back from the same registry objects the
  // exposition renders, so the two surfaces cannot drift.
  auto scatter = registry_.GetCounter(
      "vas_tiles_rendered_total", "Cold tile renders (cache hits excluded).",
      {{"style", "scatter"}});
  auto heatmap = registry_.GetCounter(
      "vas_tiles_rendered_total", "Cold tile renders (cache hits excluded).",
      {{"style", "heatmap"}});
  EXPECT_NE(stats.body.find("\"tiles_rendered\":" +
                            std::to_string(scatter->Value() +
                                           heatmap->Value())),
            std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"scatter_tiles_rendered\":" +
                            std::to_string(scatter->Value())),
            std::string::npos);
  // Back-compat: the pre-registry field names survive the rebuild.
  for (const char* field :
       {"\"requests_served\":", "\"connections_accepted\":",
        "\"connections_refused\":", "\"active_connections\":",
        "\"render\":{", "\"render_nanos\":", "\"encode_nanos\":"}) {
    EXPECT_NE(stats.body.find(field), std::string::npos)
        << field << " missing from " << stats.body;
  }
}

TEST_F(ObservedServiceTest, DebugRequestsIsBoundedAndNewestFirst) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(Get("/healthz").status, 200);
  }
  // All twelve traces eventually drain into the 8-slot ring.
  auto debug = Get("/debug/requests");
  EXPECT_EQ(debug.status, 200);
  EXPECT_EQ(debug.headers["cache-control"], "no-cache");
  size_t count = 0;
  for (size_t at = debug.body.find("\"request_id\"");
       at != std::string::npos;
       at = debug.body.find("\"request_id\"", at + 1)) {
    ++count;
  }
  EXPECT_LE(count, 8u) << "ring must stay bounded at its capacity";
  EXPECT_GE(count, 1u);
}

}  // namespace
}  // namespace vas
