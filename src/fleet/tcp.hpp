// The TCP front door of `kswsim fleet`: parse an endpoint and bind a
// listening socket that serve::Service::run_listen accepts on.
#pragma once

#include <string>

#include "serve/service.hpp"

namespace ksw::fleet {

/// Host and port of a TCP endpoint.
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = an ephemeral port chosen at bind time
};

/// Parse "HOST:PORT" or "PORT" (host 127.0.0.1). Throws kUsage on an
/// empty host or a port outside [0, 65535].
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

/// Bind and listen on an IPv4 endpoint (SO_REUSEADDR, so a restart does
/// not wait out TIME_WAIT). Listener::port() gives the bound port.
/// Throws kUsage for a host that is not an IPv4 address, kIo when the
/// endpoint cannot be bound.
[[nodiscard]] serve::Listener listen_tcp(const Endpoint& endpoint);

}  // namespace ksw::fleet
