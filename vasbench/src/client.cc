#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace vasbench {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

uint32_t BigEndian32(const std::string& s, size_t at) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(s[at])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(s[at + 1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(s[at + 2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[at + 3]));
}

}  // namespace

bool Connection::Open(uint16_t port) {
  Close();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  buf_.clear();
  return true;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Connection::ReadMore() {
  char chunk[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Connection::Get(const std::string& target,
                     const std::string& extra_headers, Response* out) {
  if (fd_ < 0) return false;
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
                        extra_headers + "\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  size_t head_end = std::string::npos;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!ReadMore()) {
      Close();
      return false;
    }
  }
  *out = Response{};
  size_t content_length = 0;
  size_t line_start = 0;
  bool first = true;
  while (line_start < head_end) {
    size_t line_end = buf_.find("\r\n", line_start);
    if (line_end == std::string::npos || line_end > head_end) line_end = head_end;
    std::string line = buf_.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    if (first) {
      first = false;
      size_t sp = line.find(' ');
      if (sp == std::string::npos) {
        Close();
        return false;
      }
      out->status = std::atoi(line.c_str() + sp + 1);
      continue;
    }
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = Lower(line.substr(0, colon));
    std::string value = Trim(line.substr(colon + 1));
    if (name == "content-length") {
      content_length = static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (name == "connection") {
      out->close = Lower(value) == "close";
    } else if (name == "etag") {
      out->etag = value;
    } else if (name == "x-vas-rung") {
      out->rung = std::strtol(value.c_str(), nullptr, 10);
    }
  }
  if (out->status == 304 || out->status == 204) content_length = 0;
  const size_t body_start = head_end + 4;
  while (buf_.size() < body_start + content_length) {
    if (!ReadMore()) {
      Close();
      return false;
    }
  }
  out->body = buf_.substr(body_start, content_length);
  buf_.erase(0, body_start + content_length);
  if (out->close) Close();
  return true;
}

bool IsPngOfSize(const std::string& body, uint32_t width, uint32_t height) {
  static const char kSignature[8] = {'\x89', 'P', 'N', 'G', '\r', '\n', '\x1a', '\n'};
  if (body.size() < 33) return false;
  if (std::memcmp(body.data(), kSignature, 8) != 0) return false;
  if (body.compare(12, 4, "IHDR") != 0) return false;
  return BigEndian32(body, 16) == width && BigEndian32(body, 20) == height;
}

long long JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  at += needle.size();
  if (at >= json.size() || !std::isdigit(static_cast<unsigned char>(json[at]))) {
    return -1;
  }
  return std::strtoll(json.c_str() + at, nullptr, 10);
}

}  // namespace vasbench
