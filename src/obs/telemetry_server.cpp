#include "obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::obs {
namespace {

/// Prometheus sample values: integers render without an exponent so
/// scrape-side reconciliation against JSONL dumps is byte-exact.
std::string fmt_num(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      v > -9e15 && v < 9e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

void json_escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << *s;
    }
  }
}

/// One exposition family: a # TYPE line followed by its samples. Rows
/// from different ranks of the same instrument share a family.
struct Family {
  const char* type = "counter";
  std::vector<std::string> samples;
};

std::string label_block(const std::string& rank) {
  if (rank.empty()) return "";
  return "{rank=\"" + TelemetryServer::prometheus_escape_label(rank) + "\"}";
}

void render_families(std::ostream& os,
                     const std::map<std::string, Family>& families) {
  for (const auto& [name, fam] : families) {
    os << "# TYPE " << name << ' ' << fam.type << '\n';
    for (const std::string& s : fam.samples) os << s << '\n';
  }
}

}  // namespace

std::string TelemetryServer::prometheus_escape_label(
    const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string TelemetryServer::prometheus_metric_name(const std::string& name,
                                                    std::string& rank) {
  rank.clear();
  std::string base = name;
  // Trailing ".r<k>" (k all digits) is the per-rank scoping convention;
  // surface it as a label instead of exploding the metric namespace.
  const size_t dot = base.rfind(".r");
  if (dot != std::string::npos && dot + 2 < base.size()) {
    bool digits = true;
    for (size_t i = dot + 2; i < base.size(); ++i) {
      if (base[i] < '0' || base[i] > '9') {
        digits = false;
        break;
      }
    }
    if (digits) {
      rank = base.substr(dot + 2);
      base.resize(dot);
    }
  }
  std::string out = "dmis_";
  for (const char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string TelemetryServer::render_metrics() {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  std::map<std::string, Family> families;
  std::string rank;

  for (const auto& c : snap.counters) {
    const std::string fam = prometheus_metric_name(c.name, rank);
    Family& f = families[fam];
    f.type = "counter";
    f.samples.push_back(fam + label_block(rank) + ' ' +
                        std::to_string(c.value));
  }
  for (const auto& g : snap.gauges) {
    const std::string fam = prometheus_metric_name(g.name, rank);
    Family& f = families[fam];
    f.type = "gauge";
    f.samples.push_back(fam + label_block(rank) + ' ' + fmt_num(g.value));
  }
  for (const auto& h : snap.histograms) {
    const std::string fam = prometheus_metric_name(h.name, rank);
    Family& f = families[fam];
    f.type = "histogram";
    const std::string rank_lbl =
        rank.empty() ? ""
                     : ("rank=\"" + prometheus_escape_label(rank) + "\",");
    int64_t cum = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cum += h.buckets[i];
      const std::string le =
          (i < h.bounds.size()) ? fmt_num(h.bounds[i]) : "+Inf";
      f.samples.push_back(fam + "_bucket{" + rank_lbl + "le=\"" + le +
                          "\"} " + std::to_string(cum));
    }
    f.samples.push_back(fam + "_sum" + label_block(rank) + ' ' +
                        fmt_num(h.sum));
    f.samples.push_back(fam + "_count" + label_block(rank) + ' ' +
                        std::to_string(h.count));
  }
  for (const auto& rh : snap.rolling_histograms) {
    const std::string fam = prometheus_metric_name(rh.name, rank);
    const std::string lbl = label_block(rank);
    const std::pair<const char*, double> quantiles[] = {
        {"_p50", rh.p50}, {"_p90", rh.p90}, {"_p99", rh.p99}};
    for (const auto& [suffix, value] : quantiles) {
      Family& f = families[fam + suffix];
      f.type = "gauge";
      f.samples.push_back(fam + suffix + lbl + ' ' + fmt_num(value));
    }
    Family& rate = families[fam + "_rate"];
    rate.type = "gauge";
    rate.samples.push_back(fam + "_rate" + lbl + ' ' +
                           fmt_num(rh.rate_per_sec));
  }

  const char* flight_dir = std::getenv("DMIS_FLIGHT_DIR");
  Family& info = families["dmis_telemetry_build_info"];
  info.type = "gauge";
  info.samples.push_back(
      "dmis_telemetry_build_info{version=\"pv2\",flight_dir=\"" +
      prometheus_escape_label(flight_dir == nullptr ? "" : flight_dir) +
      "\"} 1");

  std::ostringstream os;
  render_families(os, families);
  return os.str();
}

std::string TelemetryServer::render_healthz(int& http_status) {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  double serve_health = 0.0;
  double world_size = 0.0;
  for (const auto& g : snap.gauges) {
    if (g.name == "serve.health") serve_health = g.value;
    if (g.name == "train.elastic.world_size") world_size = g.value;
  }
  // serve.health: 0 healthy, 1 degraded (breaker open), 2 draining.
  const bool healthy = serve_health < 1.0;
  http_status = healthy ? 200 : 503;
  std::ostringstream os;
  os << "{\"status\":\"" << (healthy ? "ok" : "degraded")
     << "\",\"serve_health\":" << fmt_num(serve_health)
     << ",\"elastic_world_size\":" << fmt_num(world_size) << "}\n";
  return os.str();
}

std::string TelemetryServer::render_spans(size_t max_spans) {
  std::vector<TraceEvent> events = Tracer::instance().events();
  const size_t total = events.size();
  // Most recent spans are the diagnostic ones; keep the tail by
  // timestamp when over the cap.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  const size_t start = (total > max_spans) ? total - max_spans : 0;
  std::ostringstream os;
  os << "{\"total\":" << total
     << ",\"dropped\":" << Tracer::instance().dropped() << ",\"spans\":[";
  for (size_t i = start; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i > start) os << ',';
    os << "{\"name\":\"";
    json_escape(os, ev.name);
    os << "\",\"ts_us\":" << ev.ts_us << ",\"dur_us\":" << ev.dur_us
       << ",\"tid\":" << ev.tid
       << ",\"instant\":" << (ev.instant ? "true" : "false");
    if (ev.n_args > 0) {
      os << ",\"args\":{";
      for (int a = 0; a < ev.n_args; ++a) {
        if (a > 0) os << ',';
        os << '"';
        json_escape(os, ev.args[a].key);
        os << "\":" << ev.args[a].value;
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}\n";
  return os.str();
}

TelemetryServer::TelemetryServer(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DMIS_CHECK_IO(listen_fd_ >= 0,
                "telemetry server: socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    DMIS_CHECK_IO(false, "telemetry server: cannot bind port " << port << ": "
                                                               << err);
  }
  DMIS_CHECK_IO(::listen(listen_fd_, 16) == 0,
                "telemetry server: listen() failed: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  DMIS_CHECK_IO(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
          0,
      "telemetry server: getsockname() failed");
  port_ = ntohs(bound.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
  }
}

void TelemetryServer::handle_connection(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  // Read until the end of the request headers (we only route on the
  // request line; bodies are not supported).
  std::string request;
  char buf[2048];
  while (request.size() < 16384 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }

  std::string method;
  std::string path;
  {
    std::istringstream line(request.substr(0, request.find('\n')));
    line >> method >> path;
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
  }

  int status = 200;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = 405;
    content_type = "text/plain; charset=utf-8";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    body = render_metrics();
  } else if (path == "/healthz") {
    content_type = "application/json";
    body = render_healthz(status);
  } else if (path == "/spans") {
    content_type = "application/json";
    body = render_spans();
  } else {
    status = 404;
    content_type = "text/plain; charset=utf-8";
    body = "not found (try /metrics, /healthz, /spans)\n";
  }

  const char* reason = (status == 200)   ? "OK"
                       : (status == 404) ? "Not Found"
                       : (status == 405) ? "Method Not Allowed"
                                         : "Service Unavailable";
  std::ostringstream os;
  os << "HTTP/1.1 " << status << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  const std::string response = os.str();
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::close(fd);
}

TelemetryServer* TelemetryServer::from_env() {
  static TelemetryServer* server = []() -> TelemetryServer* {
    // This runs in a static initializer, where a throw would terminate
    // the process: a malformed knob disables the server with a warning.
    std::optional<int64_t> port;
    int64_t linger_ms = 0;
    try {
      port = env_int("DMIS_OBS_PORT", 0, 65535);
      if (!port) return nullptr;
      linger_ms = env_int("DMIS_OBS_LINGER_MS", 0).value_or(0);
    } catch (const InvalidArgument& e) {
      DMIS_LOG(kWarn) << e.what() << "; telemetry server disabled";
      return nullptr;
    }
    TelemetryServer* s = nullptr;
    try {
      s = new TelemetryServer(static_cast<uint16_t>(*port));
    } catch (const Error& e) {
      DMIS_LOG(kWarn) << "telemetry server disabled: " << e.what();
      return nullptr;
    }
    DMIS_LOG(kInfo) << "telemetry server serving /metrics /healthz /spans "
                       "on port "
                    << s->port();
    if (linger_ms > 0) {
      // Keep serving through process exit so a polling scraper can
      // take a final scrape after all counters settled — the
      // live-scrape/TuneResult reconciliation in tools/verify.sh
      // depends on this window.
      static const int64_t linger = linger_ms;
      std::atexit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(linger));
      });
    }
    return s;
  }();
  return server;
}

namespace {
// Start the DMIS_OBS_PORT server at program start, mirroring the
// DMIS_METRICS / DMIS_TRACE bootstraps.
const bool g_telemetry_server_bootstrapped =
    (TelemetryServer::from_env(), true);
}  // namespace

}  // namespace dmis::obs
