// Blocking client for the prediction service: one connection (unix-domain
// or TCP), synchronous request/response over the length-prefixed JSON
// framing of serve/protocol.hpp. Used by `pprophet client`, the loopback
// tests, and perfbench's serve workload.
#pragma once

#include <string>

#include "serve/json.hpp"

namespace pprophet::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to the daemon at `socket_path`. Throws std::runtime_error
  /// when nothing is listening there.
  void connect(const std::string& socket_path);

  /// Connects to a TCP endpoint ("HOST:PORT", IPv4). Same wire protocol.
  void connect_tcp(const std::string& host_port);

  /// Dispatches on the spec's shape: "HOST:PORT" (a colon followed by
  /// digits, and no '/') connects over TCP, anything else is a unix socket
  /// path. What `pprophet client --connect` and the bench harness use.
  void connect_endpoint(const std::string& spec);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends one request object and blocks for its response. Throws
  /// ProtocolError if the server hangs up mid-exchange.
  JsonValue call(const JsonValue& request);

  /// Convenience: {"op":op} request.
  JsonValue call(const std::string& op);
  JsonValue call(const char* op) { return call(std::string(op)); }

  /// Uploads raw PPTB bytes; returns the server's content key. Throws
  /// std::runtime_error when the server rejects the upload.
  std::string upload(const std::string& pptb_bytes);

 private:
  int fd_ = -1;
};

}  // namespace pprophet::serve
