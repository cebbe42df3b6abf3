#include "svc/telemetry_http.hpp"

#include <cerrno>
#include <cstring>

#include "svc/json.hpp"
#include "svc/service.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace cals::svc {
namespace {

/// One flight record as the /jobs summary object (the full record is one
/// /jobs/<id> away; the list stays scannable).
std::string flight_summary_json(const FlightRecord& f) {
  JsonObjectWriter w;
  w.field("job_id", static_cast<std::uint64_t>(f.id));
  w.field("name", f.name);
  w.field("state", f.state);
  w.field("status", f.status_code);
  w.field("run_sequence", f.run_sequence);
  w.field("cache_hit", f.cache_hit);
  w.field("coalesced", f.coalesced);
  w.field("dataset", f.dataset);
  w.field("queue_seconds", f.queue_seconds);
  w.field("exec_seconds", f.exec_seconds);
  w.field("k_factor", f.k_factor);
  w.field("wirelength_um", f.wirelength_um);
  w.field("routing_violations", f.routing_violations);
  w.field("route_iterations", f.route_iterations());
  return std::move(w).finish();
}

std::string status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Bad Request";
  }
}

}  // namespace

TelemetryServer::TelemetryServer(const FlowService& service)
    : TelemetryServer(service, Options{}) {}

TelemetryServer::TelemetryServer(const FlowService& service, Options options)
    : service_(service), options_(std::move(options)) {}

TelemetryServer::~TelemetryServer() { stop(); }

TelemetryServer::Response TelemetryServer::handle(std::string_view method,
                                                  std::string_view target) const {
  Response r;
  if (method != "GET") {
    r.status = 405;
    r.content_type = "application/json";
    r.body = "{\"error\":\"GET only\"}";
    return r;
  }
  // Strip any query string: the endpoints take no parameters.
  const std::size_t q = target.find('?');
  const std::string_view path = q == std::string_view::npos ? target : target.substr(0, q);

  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::Registry::instance().prometheus();
    // Service-level counters ride along even when obs recording is off —
    // a scraper should always see queue state.
    const FlowService::Stats s = service_.stats();
    r.body += strprintf(
        "# TYPE cals_service_jobs_submitted counter\n"
        "cals_service_jobs_submitted %llu\n"
        "# TYPE cals_service_jobs_done counter\ncals_service_jobs_done %llu\n"
        "# TYPE cals_service_jobs_failed counter\ncals_service_jobs_failed %llu\n"
        "# TYPE cals_service_jobs_cancelled counter\n"
        "cals_service_jobs_cancelled %llu\n"
        "# TYPE cals_service_jobs_rejected counter\n"
        "cals_service_jobs_rejected %llu\n"
        "# TYPE cals_service_cache_hits counter\ncals_service_cache_hits %llu\n"
        "# TYPE cals_service_dataset_hits counter\n"
        "cals_service_dataset_hits %llu\n"
        "# TYPE cals_service_flow_executions counter\n"
        "cals_service_flow_executions %llu\n"
        "# TYPE cals_service_queued gauge\ncals_service_queued %zu\n"
        "# TYPE cals_service_running gauge\ncals_service_running %zu\n",
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.done),
        static_cast<unsigned long long>(s.failed),
        static_cast<unsigned long long>(s.cancelled),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.cache_hits),
        static_cast<unsigned long long>(s.dataset_hits),
        static_cast<unsigned long long>(s.flow_executions), s.queued, s.running);
    return r;
  }

  if (path == "/healthz") {
    const FlowService::Stats s = service_.stats();
    JsonObjectWriter w;
    w.field("status", "ok");
    w.field("accepting", service_.accepting());
    w.field("draining", draining_.load(std::memory_order_relaxed));
    w.field("queued", static_cast<std::uint64_t>(s.queued));
    w.field("running", static_cast<std::uint64_t>(s.running));
    w.field("done", s.done);
    w.field("failed", s.failed);
    r.content_type = "application/json";
    r.body = std::move(w).finish();
    return r;
  }

  if (path == "/jobs") {
    std::string body = "[";
    bool first = true;
    for (const FlightRecord& f : service_.recent_flights()) {
      if (!first) body += ',';
      first = false;
      body += flight_summary_json(f);
    }
    body += "]";
    r.content_type = "application/json";
    r.body = std::move(body);
    return r;
  }

  constexpr std::string_view kJobsPrefix = "/jobs/";
  if (path.size() > kJobsPrefix.size() && path.substr(0, kJobsPrefix.size()) == kJobsPrefix) {
    const std::string_view id_text = path.substr(kJobsPrefix.size());
    std::uint64_t id = 0;
    bool valid = !id_text.empty();
    for (const char c : id_text) {
      if (c < '0' || c > '9' || id > (UINT64_MAX - 9) / 10) {
        valid = false;
        break;
      }
      id = id * 10 + static_cast<std::uint64_t>(c - '0');
    }
    r.content_type = "application/json";
    if (valid) {
      if (std::optional<FlightRecord> f = service_.flight(id)) {
        r.body = flight_record_to_json(*f);
        return r;
      }
    }
    r.status = 404;
    r.body = strprintf("{\"error\":\"no flight record for job %s\"}",
                       json_escape(std::string(id_text)).c_str());
    return r;
  }

  r.status = 404;
  r.content_type = "application/json";
  r.body = "{\"error\":\"unknown path; try /metrics /jobs /jobs/<id> /healthz\"}";
  return r;
}

#ifndef _WIN32

Status TelemetryServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Status::internal("telemetry: cannot create listen socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    stop();
    return Status::internal(strprintf("telemetry: bad bind address '%s'",
                                      options_.bind_address.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    stop();
    return Status::internal(strprintf("telemetry: cannot bind %s:%u: %s",
                                      options_.bind_address.c_str(),
                                      static_cast<unsigned>(options_.port),
                                      std::strerror(err)));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    stop();
    return Status::internal(
        strprintf("telemetry: listen failed: %s", std::strerror(err)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);

  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return Status();
}

void TelemetryServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void TelemetryServer::handle_connection(int fd) const {
  // A scraper that stalls mid-request times out instead of wedging the
  // accept loop.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  // Read until the end of the header block (we ignore bodies: GET only).
  std::string request;
  char buffer[2048];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    request.append(buffer, static_cast<std::size_t>(n));
  }
  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = request.find("\r\n");
  const std::string_view line =
      std::string_view(request).substr(0, line_end == std::string::npos
                                              ? request.size()
                                              : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                        : line.find(' ', sp1 + 1);
  Response response;
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    response.status = 400;
    response.content_type = "application/json";
    response.body = "{\"error\":\"malformed request line\"}";
  } else {
    response = handle(line.substr(0, sp1), line.substr(sp1 + 1, sp2 - sp1 - 1));
  }

  std::string out = strprintf(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, status_reason(response.status).c_str(),
      response.content_type.c_str(), response.body.size());
  out += response.body;
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

#else  // _WIN32

Status TelemetryServer::start() {
  return Status::internal("telemetry: HTTP listener not supported on this platform");
}
void TelemetryServer::stop() {}
void TelemetryServer::serve_loop() {}
void TelemetryServer::handle_connection(int) const {}

#endif  // _WIN32

}  // namespace cals::svc
