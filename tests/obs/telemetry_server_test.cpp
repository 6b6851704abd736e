#include "obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/rolling.hpp"
#include "obs/trace.hpp"

namespace dmis::obs {
namespace {

struct HttpResponse {
  int status = -1;
  std::string body;
};

/// Minimal blocking HTTP/1.1 client: one request, read to EOF (the
/// server always closes). Good enough to exercise the real socket path.
HttpResponse http_request(uint16_t port, const std::string& request) {
  HttpResponse r;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return r;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) {
    r.status = std::atoi(raw.c_str() + std::strlen("HTTP/1.1 "));
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) r.body = raw.substr(split + 4);
  return r;
}

HttpResponse http_get(uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n");
}

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset();
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
  void TearDown() override {
    MetricsRegistry::instance().reset();
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

TEST_F(TelemetryServerTest, MetricNameManglingAndRankLabel) {
  std::string rank;
  EXPECT_EQ(TelemetryServer::prometheus_metric_name("comm.allreduce_bytes",
                                                    rank),
            "dmis_comm_allreduce_bytes");
  EXPECT_EQ(rank, "");

  EXPECT_EQ(TelemetryServer::prometheus_metric_name("train.rank_step_us.r3",
                                                    rank),
            "dmis_train_rank_step_us");
  EXPECT_EQ(rank, "3");

  EXPECT_EQ(
      TelemetryServer::prometheus_metric_name("comm.all_reduce.r12", rank),
      "dmis_comm_all_reduce");
  EXPECT_EQ(rank, "12");

  // ".r<non-digits>" is NOT the rank convention — keep it in the name.
  EXPECT_EQ(TelemetryServer::prometheus_metric_name("serve.radius", rank),
            "dmis_serve_radius");
  EXPECT_EQ(rank, "");

  // Arbitrary punctuation mangles to '_'.
  EXPECT_EQ(TelemetryServer::prometheus_metric_name("a-b/c d", rank),
            "dmis_a_b_c_d");
  EXPECT_EQ(rank, "");
}

TEST_F(TelemetryServerTest, LabelEscaping) {
  EXPECT_EQ(TelemetryServer::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(TelemetryServer::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(TelemetryServer::prometheus_escape_label("say \"hi\""),
            "say \\\"hi\\\"");
  EXPECT_EQ(TelemetryServer::prometheus_escape_label("line\nbreak"),
            "line\\nbreak");
}

TEST_F(TelemetryServerTest, RenderMetricsIsPrometheusConformant) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.scrape.count").add(42);
  reg.gauge("test.scrape.gauge").set(1.5);
  Histogram& h = reg.histogram("test.scrape.hist",
                               std::vector<double>{1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(5.0);
  h.observe(1000.0);
  // Two ranks of one instrument must share a single family/TYPE line.
  reg.counter("test.scrape.ranked.r0").add(1);
  reg.counter("test.scrape.ranked.r1").add(2);

  const std::string text = TelemetryServer::render_metrics();

  EXPECT_NE(text.find("# TYPE dmis_test_scrape_count counter\n"
                      "dmis_test_scrape_count 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dmis_test_scrape_gauge gauge\n"
                      "dmis_test_scrape_gauge 1.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dmis_test_scrape_ranked{rank=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dmis_test_scrape_ranked{rank=\"1\"} 2"),
            std::string::npos);

  // Exactly one TYPE line per family, even multi-rank ones.
  size_t type_lines = 0;
  for (size_t pos = 0;
       (pos = text.find("# TYPE dmis_test_scrape_ranked ", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1U);

  // Histogram buckets: cumulative, non-decreasing, +Inf == _count.
  std::istringstream lines(text);
  std::string line;
  std::vector<int64_t> bucket_values;
  int64_t inf_value = -1;
  int64_t count_value = -2;
  bool saw_type = false;
  while (std::getline(lines, line)) {
    if (line == "# TYPE dmis_test_scrape_hist histogram") saw_type = true;
    if (line.rfind("dmis_test_scrape_hist_bucket{", 0) == 0) {
      const size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos);
      bucket_values.push_back(std::atoll(line.c_str() + sp + 1));
      if (line.find("le=\"+Inf\"") != std::string::npos) {
        inf_value = bucket_values.back();
      }
    }
    if (line.rfind("dmis_test_scrape_hist_count ", 0) == 0) {
      count_value = std::atoll(
          line.c_str() + std::strlen("dmis_test_scrape_hist_count "));
    }
  }
  EXPECT_TRUE(saw_type);
  ASSERT_EQ(bucket_values.size(), 4U);  // 3 bounds + overflow
  for (size_t i = 1; i < bucket_values.size(); ++i) {
    EXPECT_GE(bucket_values[i], bucket_values[i - 1]) << "bucket " << i;
  }
  EXPECT_EQ(inf_value, 4);
  EXPECT_EQ(count_value, inf_value);

  // Rolling histograms surface as _rate and quantile gauges.
  reg.rolling_histogram("test.scrape.rhist").observe(50.0);
  const std::string text2 = TelemetryServer::render_metrics();
  EXPECT_NE(text2.find("# TYPE dmis_test_scrape_rhist_rate gauge"),
            std::string::npos);
  EXPECT_NE(text2.find("dmis_test_scrape_rhist_p50 "), std::string::npos);
  EXPECT_NE(text2.find("dmis_test_scrape_rhist_p99 "), std::string::npos);
}

TEST_F(TelemetryServerTest, ServesMetricsOverRealSocket) {
  MetricsRegistry::instance().counter("test.http.counter").add(9);
  TelemetryServer server(0);
  ASSERT_GT(server.port(), 0);

  const HttpResponse r = http_get(server.port(), "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("dmis_test_http_counter 9"), std::string::npos);
  EXPECT_NE(r.body.find("dmis_telemetry_build_info{"), std::string::npos);
}

TEST_F(TelemetryServerTest, HealthzReflectsServeBreakerState) {
  TelemetryServer server(0);

  // No serve.health gauge -> healthy.
  HttpResponse r = http_get(server.port(), "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);

  // Breaker open (serve.health >= 1) -> 503 degraded, and the elastic
  // world size rides along in the body.
  MetricsRegistry::instance().gauge("serve.health").set(1.0);
  MetricsRegistry::instance().gauge("train.elastic.world_size").set(3.0);
  r = http_get(server.port(), "/healthz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(r.body.find("\"serve_health\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"elastic_world_size\":3"), std::string::npos);

  // Breaker closes again -> back to 200.
  MetricsRegistry::instance().gauge("serve.health").set(0.0);
  r = http_get(server.port(), "/healthz");
  EXPECT_EQ(r.status, 200);
}

TEST_F(TelemetryServerTest, SpansEndpointReturnsRecordedSpans) {
  Tracer::instance().enable();
  Tracer::instance().record_span("test.http.span", 100, 50,
                                 {{"bytes", 4096}});
  TelemetryServer server(0);

  const HttpResponse r = http_get(server.port(), "/spans");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(r.body.find("\"name\":\"test.http.span\""), std::string::npos);
  EXPECT_NE(r.body.find("\"bytes\":4096"), std::string::npos);
}

TEST_F(TelemetryServerTest, UnknownPathAndMethodAreRejected) {
  TelemetryServer server(0);
  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_EQ(http_request(server.port(),
                         "POST /metrics HTTP/1.1\r\nHost: x\r\n"
                         "Content-Length: 0\r\n\r\n")
                .status,
            405);
  // Query strings are ignored for routing.
  EXPECT_EQ(http_get(server.port(), "/metrics?x=1").status, 200);
}

TEST_F(TelemetryServerTest, StopIsIdempotentAndRefusesNewConnections) {
  TelemetryServer server(0);
  const uint16_t port = server.port();
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(http_get(port, "/healthz").status, -1);
}

// The TSan gate: scrapes render from snapshots while writer threads
// hammer every instrument kind. Any unsynchronized access shows up as a
// race report; the assertions just keep the compiler honest.
TEST_F(TelemetryServerTest, ConcurrentScrapeWhileUpdating) {
  auto& reg = MetricsRegistry::instance();
  Tracer::instance().enable();
  TelemetryServer server(0);
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&reg, &stop, t] {
      Counter& c = reg.counter("test.race.counter");
      Gauge& g = reg.gauge("test.race.gauge");
      Histogram& h = reg.histogram("test.race.hist.r" + std::to_string(t));
      RollingHistogram& rr =
          reg.rolling_histogram("test.race.rolling.r" + std::to_string(t));
      RollingHistogram& rh = reg.rolling_histogram("test.race.rhist");
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        g.set(static_cast<double>(i));
        h.observe(static_cast<double>(i % 100));
        rr.observe(static_cast<double>(i % 10));
        rh.observe(static_cast<double>(i % 1000));
        Tracer::instance().record_instant("test.race.instant");
        ++i;
      }
    });
  }

  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&server] {
      for (int i = 0; i < 10; ++i) {
        const HttpResponse m = http_get(server.port(), "/metrics");
        EXPECT_EQ(m.status, 200);
        EXPECT_NE(m.body.find("# TYPE"), std::string::npos);
        EXPECT_EQ(http_get(server.port(), "/healthz").status, 200);
        EXPECT_EQ(http_get(server.port(), "/spans").status, 200);
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
}


// DMIS_OBS_PORT and DMIS_OBS_LINGER_MS are read once, by the static-init
// bootstrap, so each case re-executes this binary with the knobs set
// (the threadsafe death-test style) and has the child report whether it
// came up serving. A malformed value must leave the server off — not
// be read as a prefix ("abc" and "0abc" were port 0, an ephemeral
// listener; "4s" lingered 4 ms).
void expect_bootstrap(const char* port, const char* linger, bool serves) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("DMIS_OBS_PORT", port, 1);
  if (linger != nullptr) {
    ::setenv("DMIS_OBS_LINGER_MS", linger, 1);
  } else {
    ::unsetenv("DMIS_OBS_LINGER_MS");
  }
  EXPECT_EXIT(std::_Exit(TelemetryServer::from_env() != nullptr ? 0 : 1),
              ::testing::ExitedWithCode(serves ? 0 : 1), "")
      << "DMIS_OBS_PORT=" << port
      << " DMIS_OBS_LINGER_MS=" << (linger != nullptr ? linger : "(unset)");
  ::unsetenv("DMIS_OBS_PORT");
  ::unsetenv("DMIS_OBS_LINGER_MS");
}

TEST(TelemetryServerEnvTest, MalformedKnobsLeaveTheServerOff) {
  expect_bootstrap("0", nullptr, /*serves=*/true);  // the control
  expect_bootstrap("0", "250", /*serves=*/true);
  expect_bootstrap("abc", nullptr, /*serves=*/false);
  expect_bootstrap("0abc", nullptr, /*serves=*/false);
  expect_bootstrap("65536", nullptr, /*serves=*/false);
  expect_bootstrap("0", "4s", /*serves=*/false);
  expect_bootstrap("0", "-1", /*serves=*/false);
}

}  // namespace
}  // namespace dmis::obs
