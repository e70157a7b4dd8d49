// Benchmark-owned tracing: spans recorded at the three boundaries the
// benchmark itself owns, and nowhere inside the library.
//
//   op         one client operation (erase_item, insert, access, ...),
//              recorded by the client thread around the Client call;
//   rpc        one RpcChannel::roundtrip, recorded by BenchChannel, the
//              decorator every benchmark client talks through;
//   residence  server residence of one request, from the reactor's
//              AsyncHandler call to its Respond, recorded by the handler
//              wrapper make_handler() installs in the TcpServer.
//
// Every span carries a name, start, end, its own id, its parent's id and
// the request id (the id of the client op that caused it). Client-side
// spans know their parent directly. A residence span is linked to its rpc
// afterwards by link_residences(): both sides fingerprint the request
// frame, and a residence belongs to the rpc with the same fingerprint
// whose interval contains it.
//
// Spans stay in memory while the benchmark runs; write_chrome_trace()
// writes them out at the end.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/recovery.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "proto/messages.h"

namespace paperbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : std::uint8_t { kOp, kRpc, kResidence };

struct Span {
  SpanKind kind = SpanKind::kOp;
  std::uint16_t msg = 0;  // proto::MsgType of rpc/residence spans
  std::uint8_t op = 0;    // op kind of op spans (see main.cpp OpKind)
  std::uint32_t lane = 0;  // client index, or the server lane
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t rid = 0;
  std::uint64_t key = 0;  // request fingerprint (rpc/residence)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t dur() const { return end_ns - start_ns; }
};

inline std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// FNV-1a over the frame length and its first and last 64 bytes. Tagged
/// mutations carry a unique request id near the front; reads carry the
/// file and item they address.
inline std::uint64_t fingerprint(fgad::BytesView frame) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const std::size_t n = frame.size();
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<std::uint8_t>(n >> (8 * i)));
  }
  const std::size_t head = std::min<std::size_t>(64, n);
  for (std::size_t i = 0; i < head; ++i) {
    mix(frame[i]);
  }
  for (std::size_t i = std::max(head, n > 64 ? n - 64 : 0); i < n; ++i) {
    mix(frame[i]);
  }
  return h;
}

inline std::uint16_t msg_of(fgad::BytesView frame) {
  const auto t = fgad::proto::peek_type(frame);
  return t ? static_cast<std::uint16_t>(*t) : 0;
}

/// Spans of one client thread; only that thread writes to it.
class ClientTrace {
 public:
  explicit ClientTrace(std::uint32_t lane) : lane_(lane) {}

  void begin_op(std::uint8_t op) {
    cur_ = Span{};
    cur_.kind = SpanKind::kOp;
    cur_.op = op;
    cur_.lane = lane_;
    cur_.id = next_span_id();
    cur_.rid = cur_.id;
    cur_.start_ns = now_ns();
    in_op_ = true;
  }
  void end_op() {
    cur_.end_ns = now_ns();
    spans_.push_back(cur_);
    in_op_ = false;
  }
  void rpc(std::uint16_t msg, std::uint64_t key, std::uint64_t t0,
           std::uint64_t t1) {
    Span s;
    s.kind = SpanKind::kRpc;
    s.msg = msg;
    s.lane = lane_;
    s.id = next_span_id();
    s.parent = in_op_ ? cur_.id : 0;
    s.rid = in_op_ ? cur_.rid : s.id;
    s.key = key;
    s.start_ns = t0;
    s.end_ns = t1;
    spans_.push_back(s);
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::uint32_t lane_;
  Span cur_;
  bool in_op_ = false;
  std::vector<Span> spans_;
};

/// Residence spans, written by reactor and group-commit threads.
class ServerTrace {
 public:
  void add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Decorator every benchmark client talks through. Always counts wire
/// bytes (payload plus the u32 frame header, as net::CountingChannel does)
/// and round trips; records an rpc span per round trip when `trace` is
/// set. Batches take the base class's sequential path, one span per frame.
class BenchChannel final : public fgad::net::RpcChannel {
 public:
  BenchChannel(std::unique_ptr<fgad::net::RpcChannel> inner,
               ClientTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  fgad::Result<fgad::Bytes> roundtrip(fgad::BytesView request) override {
    bytes_ += request.size() + fgad::net::kFrameHeaderSize;
    ++rpcs_;
    const std::uint64_t t0 = trace_ ? now_ns() : 0;
    fgad::Result<fgad::Bytes> resp = inner_->roundtrip(request);
    if (trace_) {
      trace_->rpc(msg_of(request), fingerprint(request), t0, now_ns());
    }
    if (resp) {
      bytes_ += resp.value().size() + fgad::net::kFrameHeaderSize;
    }
    return resp;
  }

  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t rpcs() const { return rpcs_; }
  void set_trace(ClientTrace* trace) { trace_ = trace; }

 private:
  std::unique_ptr<fgad::net::RpcChannel> inner_;
  ClientTrace* trace_;
  std::uint64_t bytes_ = 0;
  std::uint64_t rpcs_ = 0;
};

/// The reactor handler fgad_server installs (every request goes through
/// DurableServer::handle_async and its group committer), wrapped so that
/// each request's residence is recorded when `trace` is set.
inline fgad::net::TcpServer::AsyncHandler make_handler(
    fgad::cloud::DurableServer& ds, ServerTrace* trace) {
  if (trace == nullptr) {
    return [&ds](fgad::Bytes req, fgad::net::TcpServer::Respond respond) {
      ds.handle_async(std::move(req),
                      [respond = std::move(respond)](fgad::Bytes resp) {
                        respond(std::move(resp));
                      });
    };
  }
  return [&ds, trace](fgad::Bytes req, fgad::net::TcpServer::Respond respond) {
    Span s;
    s.kind = SpanKind::kResidence;
    s.lane = 1000;
    s.start_ns = now_ns();
    s.msg = msg_of(req);
    s.key = fingerprint(req);
    ds.handle_async(std::move(req),
                    [respond = std::move(respond), s,
                     trace](fgad::Bytes resp) mutable {
                      s.end_ns = now_ns();
                      s.id = next_span_id();
                      trace->add(s);
                      respond(std::move(resp));
                    });
  };
}

/// Links each residence span to the rpc span it served (same fingerprint,
/// interval inside the rpc's), setting its parent and request id. Returns
/// the number of rpc spans left without a residence.
inline std::size_t link_residences(std::vector<Span*>& rpcs,
                                   std::vector<Span>& residences) {
  std::unordered_map<std::uint64_t, std::vector<Span*>> by_key;
  for (Span& r : residences) {
    by_key[r.key].push_back(&r);
  }
  std::size_t unmatched = 0;
  for (Span* rpc : rpcs) {
    auto it = by_key.find(rpc->key);
    bool found = false;
    if (it != by_key.end()) {
      for (Span* r : it->second) {
        if (r->parent == 0 && r->start_ns >= rpc->start_ns &&
            r->end_ns <= rpc->end_ns) {
          r->parent = rpc->id;
          r->rid = rpc->rid;
          found = true;
          break;
        }
      }
    }
    unmatched += found ? 0 : 1;
  }
  return unmatched;
}

/// Writes spans as a Chrome trace-event document (chrome://tracing,
/// Perfetto). `name_of` maps a span to its display name.
template <class NameOf>
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Span*>& spans,
                        NameOf name_of) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span* s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"rid\":%llu}}",
                 first ? "" : ",\n", name_of(*s).c_str(), s->lane,
                 static_cast<double>(s->start_ns) / 1e3,
                 static_cast<double>(s->dur()) / 1e3,
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent),
                 static_cast<unsigned long long>(s->rid));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace paperbench
