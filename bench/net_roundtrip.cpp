// Loopback TCP RPC round-trip latency and throughput.
//
// Measures the hardened transport itself (DESIGN.md §11), independent of
// the scheme: echo round-trips across payload sizes (framing + syscall
// cost), a real protocol operation (access) over TCP, and the overhead the
// retry layer adds on the happy path (it should be ~zero — one mutex and a
// predicate check per call). For each echo size the meta block also holds
// the server reactor's event-loop passes per round trip
// (fgad_net_reactor_loops), `reactor_loops_per_rpc_<size>b`: a request whose
// header and payload arrive in separate segments costs an extra pass.
// Emits BENCH_net_roundtrip.json.
#include <memory>

#include "net/retry.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "proto/messages.h"
#include "support/bench_util.h"

namespace {

using namespace fgad::bench;

double echo_roundtrip_us(fgad::net::RpcChannel& ch, std::size_t payload_size,
                         std::size_t reps, LatencyRecorder* lat = nullptr) {
  const fgad::Bytes payload(payload_size, 0x5a);
  fgad::Stopwatch sw;
  for (std::size_t i = 0; i < reps; ++i) {
    fgad::Stopwatch op;
    auto resp = ch.roundtrip(payload);
    if (!resp || resp.value().size() != payload_size) std::abort();
    if (lat != nullptr) lat->record_ns(op.elapsed_ns());
  }
  return sw.elapsed_seconds() * 1e6 / static_cast<double>(reps);
}

}  // namespace

int main() {
  const std::size_t reps = std::max<std::size_t>(sample_count(), 50);
  std::printf("=== Transport: loopback TCP round-trip (reps = %zu) ===\n\n",
              reps);
  fgad::bench::BenchJson json("net_roundtrip");
  json.meta().set("reps", reps);

  // Echo server: isolates framing + socket cost from protocol work.
  auto echo = fgad::net::TcpServer::create(0, [](fgad::BytesView req) {
    return fgad::Bytes(req.begin(), req.end());
  });
  if (!echo) {
    std::fprintf(stderr, "tcp server failed: %s\n",
                 echo.status().to_string().c_str());
    return 1;
  }
  const std::uint16_t echo_port = echo.value()->port();

  fgad::obs::Counter& loops =
      fgad::obs::Registry::instance().counter("fgad_net_reactor_loops");
  std::printf("%-22s %14s %14s %14s\n", "case", "latency us", "MB/s",
              "loops/rpc");
  for (const std::size_t size : {64ul, 700ul, 4096ul, 65536ul, 1048576ul}) {
    auto ch = fgad::net::TcpChannel::connect("127.0.0.1", echo_port);
    if (!ch) return 1;
    echo_roundtrip_us(*ch.value(), size, 5);  // warm-up
    LatencyRecorder lat;
    const std::uint64_t loops0 = loops.value();
    const double us = echo_roundtrip_us(*ch.value(), size, reps, &lat);
    const double loops_per_rpc = static_cast<double>(loops.value() - loops0) /
                                 static_cast<double>(reps);
    // Payload crosses the wire twice per round-trip.
    const double mbps = 2.0 * static_cast<double>(size) / us;
    std::printf("echo %-17s %14.2f %14.1f %14.2f\n",
                human_bytes(static_cast<double>(size)).c_str(), us, mbps,
                loops_per_rpc);
    auto& row = json.row();
    row.set("case", "echo")
        .set("payload_bytes", size)
        .set("latency_us", us)
        .set("throughput_mbps", mbps);
    json.meta().set("reactor_loops_per_rpc_" + std::to_string(size) + "b",
                    loops_per_rpc);
    lat.emit(row, "echo");
  }

  // Same echo path through RetryChannel: happy-path decoration overhead.
  {
    const std::size_t size = 4096;
    fgad::net::RetryChannel::Options opts;
    opts.retryable = [](fgad::BytesView frame) {
      return fgad::proto::retryable_request(frame);
    };
    fgad::net::RetryChannel ch(
        fgad::net::tcp_dialer("127.0.0.1", echo_port), opts);
    echo_roundtrip_us(ch, size, 5);
    LatencyRecorder lat;
    const double us = echo_roundtrip_us(ch, size, reps, &lat);
    std::printf("echo+retry %-11s %14.2f %14.1f\n",
                human_bytes(static_cast<double>(size)).c_str(), us,
                2.0 * static_cast<double>(size) / us);
    auto& row = json.row();
    row.set("case", "echo_retry")
        .set("payload_bytes", size)
        .set("latency_us", us)
        .set("throughput_mbps", 2.0 * static_cast<double>(size) / us);
    lat.emit(row, "echo");
  }
  echo.value()->stop();

  // A real protocol operation end-to-end over TCP.
  {
    Stack stack;  // direct stack builds the file natively
    const std::size_t n = std::min<std::size_t>(max_n(), 10'000);
    stack.build_file(1, n, small_item);
    auto tcp = fgad::net::TcpServer::create(0, [&stack](fgad::BytesView req) {
      return stack.server.handle(req);
    });
    if (!tcp) return 1;
    auto ch = fgad::net::TcpChannel::connect("127.0.0.1",
                                             tcp.value()->port());
    if (!ch) return 1;
    fgad::client::Client client(*ch.value(), stack.rnd);
    LatencyRecorder lat;
    fgad::Stopwatch sw;
    for (std::size_t i = 0; i < reps; ++i) {
      LatencyRecorder::Timed t(lat);
      auto got = client.access(stack.fh,
                               fgad::proto::ItemRef::id((i * 37) % n));
      if (!got) std::abort();
    }
    const double us = sw.elapsed_seconds() * 1e6 / static_cast<double>(reps);
    std::printf("access (n=%zu) %8s %14.2f %14s\n", n, "", us, "-");
    auto& row = json.row();
    row.set("case", "access").set("n", n).set("latency_us", us);
    lat.emit(row, "access");
    tcp.value()->stop();
  }

  std::printf("\nexpected: sub-ms echo latency on loopback; retry layer "
              "within noise of plain TCP.\n");
  return 0;
}
