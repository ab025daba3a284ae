// The benchmark's own HTTP/1.1 load-generator connection. It is kept
// out of the program under test so that a change to the server's test
// client can never change what the benchmark's client costs.
#ifndef VASBENCH_CLIENT_H_
#define VASBENCH_CLIENT_H_

#include <cstdint>
#include <string>

namespace vasbench {

/// One parsed response: the headers the benchmark checks, and the body.
struct Response {
  int status = 0;
  std::string body;
  std::string etag;
  /// X-Vas-Rung, or -1 when absent.
  long rung = -1;
  /// The server announced `Connection: close`; the next request needs a
  /// fresh connection.
  bool close = false;
};

/// A blocking keep-alive connection to 127.0.0.1. Responses are framed
/// by Content-Length; 304 carries no body.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(uint16_t port);
  void Close();
  bool open() const { return fd_ >= 0; }

  /// Sends one GET and reads its whole response. `extra_headers` are
  /// complete header lines, each ending in "\r\n". False on a transport
  /// error (the connection is closed then).
  bool Get(const std::string& target, const std::string& extra_headers,
           Response* out);

 private:
  bool ReadMore();

  int fd_ = -1;
  std::string buf_;
};

/// True when `body` is a PNG whose IHDR says `width` x `height`.
bool IsPngOfSize(const std::string& body, uint32_t width, uint32_t height);

/// The unsigned integer after `"key":` in a flat JSON object, or -1.
long long JsonField(const std::string& json, const std::string& key);

}  // namespace vasbench

#endif  // VASBENCH_CLIENT_H_
