#include "fleet/tcp.hpp"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/error.hpp"

namespace ksw::fleet {

Endpoint parse_endpoint(const std::string& text) {
  Endpoint endpoint;
  std::string port_text = text;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos) {
    endpoint.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (endpoint.host.empty())
      throw usage_error("--tcp: empty host in '" + text + "'");
  }
  try {
    std::size_t used = 0;
    const int port = std::stoi(port_text, &used);
    if (used != port_text.size() || port < 0 || port > 65535)
      throw std::invalid_argument(port_text);
    endpoint.port = port;
  } catch (const std::exception&) {
    throw usage_error("--tcp: bad port '" + port_text + "' in '" + text +
                      "' (want HOST:PORT or PORT)");
  }
  return endpoint;
}

serve::Listener listen_tcp(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.port));
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1)
    throw usage_error("--tcp: bad host address: " + endpoint.host);
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0)
    throw io_error(std::string("fleet: socket failed: ") +
                   std::strerror(errno));
  serve::Listener listener(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0)
    throw io_error("fleet: cannot bind " + endpoint.host + ":" +
                   std::to_string(endpoint.port) + ": " +
                   std::strerror(errno));
  return listener;
}

}  // namespace ksw::fleet
