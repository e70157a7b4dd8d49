// Flight recorder (DESIGN.md §14): ring accounting across wraparound,
// lock-free concurrent writers, the signal-safe dump format, and the
// acceptance-criterion forensics path — a crash-point firing mid-mutation
// leaves a parseable dump whose tail names the in-flight request (rid)
// and the WAL LSN it had just made durable. Both crash flavors are
// covered: the throw-based harness and the fgad_server-style _exit(42).
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cloud/recovery.h"
#include "cloud/wal.h"
#include "obs/flight_recorder.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "proto/messages.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FGAD_TSAN 1
#endif
#endif
#if !defined(FGAD_TSAN) && defined(__SANITIZE_THREAD__)
#define FGAD_TSAN 1
#endif

namespace fgad {
namespace {

using obs::FlightRecorder;
using obs::FrEvent;

/// A new, empty directory. Named by mkdtemp, not by pid: a directory left
/// by an earlier process with the same (recycled) pid would still hold
/// that process's dumps.
std::string fresh_dir(const std::string& name) {
  std::string d = ::testing::TempDir() + "/" + name + ".XXXXXX";
  EXPECT_NE(::mkdtemp(d.data()), nullptr) << d;
  return d;
}

std::string rid_hex(std::uint64_t rid) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, rid);
  return buf;
}

/// Files in `dir` whose names start with `prefix`, sorted.
std::vector<std::string> dir_matches(const std::string& dir,
                                     const std::string& prefix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string text;
  if (f != nullptr) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  return text;
}

/// One parsed `key=value ...` dump line.
using DumpLine = std::map<std::string, std::string>;

/// Parses a dump into (header-comment count, event lines). Every
/// non-comment line must tokenize as key=value fields.
std::vector<DumpLine> parse_dump(const std::string& text,
                                 std::string* header = nullptr) {
  std::vector<DumpLine> events;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      if (header != nullptr && header->empty()) {
        *header = line;
      }
      continue;
    }
    DumpLine fields;
    std::size_t tok = 0;
    while (tok < line.size()) {
      std::size_t sp = line.find(' ', tok);
      if (sp == std::string::npos) {
        sp = line.size();
      }
      const std::string kv = line.substr(tok, sp - tok);
      tok = sp + 1;
      if (kv.empty()) {
        continue;
      }
      const std::size_t eq = kv.find('=');
      EXPECT_NE(eq, std::string::npos) << "bad token: " << kv;
      if (eq != std::string::npos) {
        fields[kv.substr(0, eq)] = kv.substr(eq + 1);
      }
    }
    events.push_back(std::move(fields));
  }
  return events;
}

TEST(FlightRecorder, ConfigureRoundsUpToPowerOfTwo) {
  auto& fr = FlightRecorder::instance();
  fr.configure(10);
  EXPECT_EQ(fr.capacity(), 16u);
  fr.configure(1);
  EXPECT_EQ(fr.capacity(), 8u);  // floor
  fr.configure(64);
  EXPECT_EQ(fr.capacity(), 64u);
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDropped) {
  auto& fr = FlightRecorder::instance();
  fr.configure(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    fr.record(FrEvent::kMark, /*rid=*/i, /*a=*/i * 10, /*b=*/i * 100);
  }
  EXPECT_EQ(fr.recorded(), 20u);
  EXPECT_EQ(fr.dropped(), 12u);

  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and only the newest 8 survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t want = 12 + i;
    EXPECT_EQ(events[i].seq, want);
    EXPECT_EQ(events[i].rid, want);
    EXPECT_EQ(events[i].a, want * 10);
    EXPECT_EQ(events[i].b, want * 100);
    EXPECT_EQ(events[i].type, FrEvent::kMark);
    if (i > 0) {
      EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
    }
  }
}

TEST(FlightRecorder, DumpFileIsParseable) {
  auto& fr = FlightRecorder::instance();
  fr.configure(16);
  fr.record(FrEvent::kWalAppend, 0xABCDEF0123456789ull, /*a=*/17, /*b=*/96);
  fr.record(FrEvent::kCheckpointCommit, 0, /*a=*/3, /*b=*/4096);

  const std::string path = fresh_dir("fr_dump") + "/manual.dump";
  ASSERT_TRUE(fr.dump_to_path(path.c_str(), "test"));

  std::string header;
  const auto lines = parse_dump(slurp(path), &header);
  EXPECT_NE(header.find("fgad-flight-recorder v1"), std::string::npos);
  EXPECT_NE(header.find("reason=test"), std::string::npos);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("type"), "wal-append");
  EXPECT_EQ(lines[0].at("rid"), "abcdef0123456789");
  EXPECT_EQ(lines[0].at("a"), "17");
  EXPECT_EQ(lines[0].at("b"), "96");
  EXPECT_EQ(lines[1].at("type"), "checkpoint-commit");
  EXPECT_EQ(lines[1].at("a"), "3");
}

TEST(FlightRecorder, RenderJsonAndMetricsGauges) {
  auto& fr = FlightRecorder::instance();
  fr.configure(8);
  fr.record(FrEvent::kRetryDial, 7, /*a=*/2);
  const std::string json = fr.render_json();
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"retry-dial\""), std::string::npos);
  EXPECT_NE(json.find(rid_hex(7)), std::string::npos);

  fr.publish_metrics();
  const std::string text = obs::Registry::instance().render_text();
  EXPECT_NE(text.find("fgad_flight_recorder_capacity 8"), std::string::npos);
  EXPECT_NE(text.find("fgad_flight_recorder_recorded"), std::string::npos);
  EXPECT_NE(text.find("fgad_flight_recorder_dropped"), std::string::npos);
}

/// Writers record (rid, 2 * rid, 3 * rid) while a reader snapshots; every
/// event the reader sees must carry the fields of one record.
void hammer(FlightRecorder& fr, int threads, std::uint64_t per_thread) {
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& e : fr.snapshot()) {
        ASSERT_EQ(e.a, e.rid * 2);
        ASSERT_EQ(e.b, e.rid * 3);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&fr, &go, t, per_thread] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const std::uint64_t rid =
            (static_cast<std::uint64_t>(t) << 32) | i;
        fr.record(FrEvent::kMark, rid, rid * 2, rid * 3);
      }
    });
  }
  go.store(true, std::memory_order_release);  // start all writers at once
  for (auto& w : writers) {
    w.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  for (const auto& e : fr.snapshot()) {
    EXPECT_EQ(e.a, e.rid * 2);
    EXPECT_EQ(e.b, e.rid * 3);
  }
}

TEST(FlightRecorder, ConcurrentWritersLoseNothing) {
  // The TSan hammer: writers race each other and a snapshotting reader.
  auto& fr = FlightRecorder::instance();
  fr.configure(1024);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  hammer(fr, kThreads, kPerThread);

  // Every event is either readable or counted as dropped. A writer whose
  // slot is still held by a writer one ring length behind drops its event,
  // so the ring may end a few events short of full.
  const auto events = fr.snapshot();
  EXPECT_EQ(fr.recorded(), kThreads * kPerThread);
  EXPECT_EQ(events.size() + fr.dropped(), fr.recorded());
  EXPECT_LE(events.size(), fr.capacity());
  EXPECT_GE(events.size(), fr.capacity() - kThreads);
}

TEST(FlightRecorder, WritersALapApartNeverTearASlot) {
  // A ring of 8 slots and more writers than cores: a writer held up
  // mid-write by about one lap shares its slot with the writer a lap
  // ahead, the race that once let a snapshot return the rid of one event
  // with the `a` of another. How often the old recorder failed this
  // depended on the host's load: 0 to 20 runs of 20 on a 4-core host.
  auto& fr = FlightRecorder::instance();
  fr.configure(8);
  hammer(fr, 16, 50000);
  EXPECT_EQ(fr.snapshot().size() + fr.dropped(), fr.recorded());
  fr.configure(64);  // leave a sane state for later tests
}

TEST(FlightRecorder, ConfigureRacesRecordSafely) {
  // Resizing mid-flight must never crash or tear: retired rings stay
  // alive for any writer still holding them.
  auto& fr = FlightRecorder::instance();
  fr.configure(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      fr.record(FrEvent::kMark, ++i);
    }
  });
  for (int i = 0; i < 50; ++i) {
    fr.configure(8u << (i % 5));
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  fr.configure(64);  // leave a sane state for later tests
}

/// Applies one tagged KvPut mutation against a DurableServer and expects
/// the armed crash site to fire (throw flavor).
void mutate_until_crash(cloud::DurableServer& ds, std::uint64_t rid) {
  proto::KvPutReq put;
  put.table = 1;
  put.key = 7;
  put.value = to_bytes("forensics");
  const Bytes tagged = proto::seal_tagged(rid, put.to_frame());
  EXPECT_THROW(ds.handle(tagged), cloud::CrashError);
}

TEST(FlightRecorder, CrashPointDumpTailMatchesInFlightMutation) {
  // The acceptance criterion: kill the durability path mid-mutation and
  // the dump's tail must reconstruct the in-flight request — the WAL
  // append carrying this rid and its LSN, then the crash-point firing.
  auto& fr = FlightRecorder::instance();
  fr.configure(256);
  const std::string dump_dir = fresh_dir("fr_crash_throw");
  ASSERT_TRUE(fr.set_dump_dir(dump_dir));

  cloud::DurableServer::Options dopts;
  dopts.dir = fresh_dir("fr_crash_state");
  dopts.checkpoint_every_n = 0;
  auto opened = cloud::DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();

  constexpr std::uint64_t kRid = 0x00C0FFEE12345678ull;
  cloud::CrashPoint::instance().arm_throw(cloud::CrashSite::kAfterWalPreAck);
  mutate_until_crash(*opened.value(), kRid);
  cloud::CrashPoint::instance().reset();
  const std::uint64_t lsn = opened.value()->last_lsn();
  ASSERT_GT(lsn, 0u);

  const auto dumps = dir_matches(dump_dir, "flightrecorder-crashpoint-");
  ASSERT_EQ(dumps.size(), 1u);
  const auto lines = parse_dump(slurp(dumps[0]));
  ASSERT_GE(lines.size(), 2u);

  // Tail event: the crash-point itself, attributed to our request.
  const DumpLine& last = lines.back();
  EXPECT_EQ(last.at("type"), "crash-point");
  EXPECT_EQ(last.at("rid"), rid_hex(kRid));
  EXPECT_EQ(last.at("a"),
            std::to_string(
                static_cast<int>(cloud::CrashSite::kAfterWalPreAck)));

  // Preceded by the WAL append of the same request with the right LSN.
  bool saw_append = false;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].at("type") == "wal-append" &&
        lines[i].at("rid") == rid_hex(kRid)) {
      saw_append = true;
      EXPECT_EQ(lines[i].at("a"), std::to_string(lsn));
    }
  }
  EXPECT_TRUE(saw_append) << "no wal-append for rid in dump";

  fr.set_dump_dir("");
}

TEST(FlightRecorder, ProcessExitFlavorLeavesDumpBehind) {
#ifdef FGAD_TSAN
  GTEST_SKIP() << "fork-based crash flavor is not TSan-compatible";
#else
  // The fgad_server FGAD_CRASH_AT flavor: the armed site _exit(42)s the
  // process. Run it in a forked child and assert the dump survives.
  const std::string dump_dir = fresh_dir("fr_crash_exit");
  const std::string state_dir = fresh_dir("fr_crash_exit_state");

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: mirror fgad_server's startup, then crash mid-mutation.
    auto& fr = FlightRecorder::instance();
    fr.configure(256);
    if (!fr.set_dump_dir(dump_dir)) {
      ::_exit(3);
    }
    cloud::CrashPoint::instance().reset();
    if (!cloud::CrashPoint::instance().arm_process_exit(
            "after-wal-pre-ack")) {
      ::_exit(4);
    }
    cloud::DurableServer::Options dopts;
    dopts.dir = state_dir;
    dopts.checkpoint_every_n = 0;
    auto opened = cloud::DurableServer::open(dopts);
    if (!opened.is_ok()) {
      ::_exit(5);
    }
    proto::KvPutReq put;
    put.table = 1;
    put.key = 7;
    put.value = to_bytes("forensics");
    opened.value()->handle(proto::seal_tagged(0xDEAD0001ull, put.to_frame()));
    ::_exit(6);  // the crash site should have exited already
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42);

  const auto dumps = dir_matches(dump_dir, "flightrecorder-crashpoint-");
  ASSERT_EQ(dumps.size(), 1u);
  const auto lines = parse_dump(slurp(dumps[0]));
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back().at("type"), "crash-point");
  EXPECT_EQ(lines.back().at("rid"), rid_hex(0xDEAD0001ull));
#endif
}

TEST(FlightRecorder, Sigusr2DumpsOnDemand) {
  auto& fr = FlightRecorder::instance();
  fr.configure(32);
  const std::string dump_dir = fresh_dir("fr_sigusr2");
  ASSERT_TRUE(fr.set_dump_dir(dump_dir));
  fr.record(FrEvent::kMark, 0x51u, /*a=*/1);

  FlightRecorder::install_crash_handlers();
  ASSERT_EQ(::raise(SIGUSR2), 0);

  const auto dumps = dir_matches(dump_dir, "flightrecorder-sigusr2-");
  ASSERT_EQ(dumps.size(), 1u);
  const auto lines = parse_dump(slurp(dumps[0]));
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back().at("type"), "mark");
  EXPECT_EQ(lines.back().at("rid"), rid_hex(0x51u));
  fr.set_dump_dir("");
}

std::string http_get(std::uint16_t port, const std::string& request);

TEST(FlightRecorder, ServedOverHttp) {
  auto& fr = FlightRecorder::instance();
  fr.configure(16);
  fr.record(FrEvent::kFaultInjected, 0x77u, /*a=*/4);

  auto server = obs::MetricsHttpServer::create(0);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  const std::uint16_t port = server.value()->port();

  const std::string resp = http_get(
      port, "GET /flightrecorder.json HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"fault-injected\""), std::string::npos);
  EXPECT_NE(resp.find(rid_hex(0x77u)), std::string::npos);

  // The recorder's status gauges ride along on every metrics scrape.
  const std::string metrics =
      http_get(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("fgad_flight_recorder_capacity 16"),
            std::string::npos);
  server.value()->stop();
}

// Raw-socket GET helper (same shape as obs_test's).
std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      break;
    }
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return resp;
}

}  // namespace
}  // namespace fgad
