// paperbench — the paper's operations, end to end, over the durable TCP
// stack.
//
// One process hosts a cloud::DurableServer (WAL through the group
// committer, integrity and duplicate tracking on; see durable_options for
// what differs from fgad_server) behind a reactor net::TcpServer on
// loopback, and drives it with a real client::Client (tag_mutations set)
// in a closed loop: the client sends its next op only after the previous
// one returned. After the timed phase a correctness gate checks the server
// against the benchmark's reference model, the server is checkpointed,
// logs a fixed WAL tail, is destroyed without a final checkpoint, reopened
// from its state directory, and checked again.
//
//   paperbench --workload churn --seed 1 --seconds 10 --trace 0
//   paperbench --spec            (prints BENCHMARK.json)
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, taken from the benchmark's own spans (trace.h) and from
// before/after deltas of the library's obs::Registry. See README.md.
#include <openssl/crypto.h>
#include <sched.h>
#include <sys/statfs.h>
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "client/client.h"
#include "cloud/recovery.h"
#include "cloud/replica.h"
#include "crypto/random.h"
#include "model.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"

namespace paperbench {
namespace {

using fgad::Bytes;
using fgad::Errc;
using fgad::Result;
using fgad::Status;
namespace cloud = fgad::cloud;
namespace net = fgad::net;
namespace proto = fgad::proto;
using Client = fgad::client::Client;

// ---- workloads ---------------------------------------------------------------

enum OpKind : std::uint8_t {
  kDelete,      // Client::erase_item
  kInsert,      // Client::insert
  kAccess,      // Client::access
  kModify,      // Client::modify
  kBulkDelete,  // Client::erase_items
  kFetch,       // Client::fetch_all
  kOutsource,   // Client::outsource
  kDrop,        // Client::drop_file
  kOpCount
};
constexpr const char* kOpNames[kOpCount] = {
    "delete", "insert", "access", "modify", "bulk_delete",
    "fetch",  "outsource", "drop"};

/// Relative op weights of a closed-loop mix. A bulk pick is one
/// erase_items(bulk_m) followed by bulk_m refill inserts, so the file size
/// holds steady.
struct Mix {
  std::uint32_t del = 0, ins = 0, acc = 0, mod = 0, bulk = 0;
  std::uint32_t total() const { return del + ins + acc + mod + bulk; }
};

struct Workload {
  std::string name;
  std::string why;
  std::size_t items = 0;       // per file
  std::size_t item_bytes = 0;
  Mix mix;
  std::size_t bulk_m = 16;
  std::uint32_t hot_share_pm = 0;  // per mille of a file's ids that are hot
  std::uint32_t hot_pick_pm = 0;   // per mille of read picks from the hot set
  bool sync_repl = false;
  // wholefile: cycles of outsource, fetch_all, point ops, bulk rounds,
  // fetch_all, drop_file on one connection.
  bool wholefile = false;
  std::size_t rounds = 0;     // erase_items calls per cycle
  std::size_t point_ops = 0;  // single-item ops per cycle
  std::size_t client_threads = 1;  // Client::Options::threads
  std::size_t setups = 9;     // set-up repetitions (setup_s is the median)
  std::size_t reopens = 15;   // restart repetitions (recovery_s: median)
};

// The workloads BENCHMARK.json names. `wholefile` runs too but is left out:
// a run holds only a few of its large ops, and the set-up outsources and
// gate fetches of the other workloads already time the whole-file path.
const std::vector<std::string> kWorkloadNames = {"churn", "read_skew",
                                                 "churn_sync_repl"};

// Every workload reports every end-to-end metric, so each mix holds every
// single-item op, some at a small share. Each workload has one client with
// one file of 16,384 items: one client makes the op sequence, and with it
// every per-op count, a function of the seed alone.
constexpr std::size_t kClients = 1;

std::optional<Workload> make_workload(const std::string& name, bool smoke) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Workload w;
  w.name = name;
  w.items = smoke ? 2048 : 16384;
  w.item_bytes = 256;
  if (smoke) {
    w.setups = 2;
    w.reopens = 2;
  }
  if (name == "churn" || name == "churn_sync_repl") {
    w.mix = Mix{450, 450, 60, 20, 20};
    w.sync_repl = name == "churn_sync_repl";
    w.why = w.sync_repl
                ? "churn against a primary with an in-process sync-ack "
                  "backup, so the replication layer is measured"
                : "the paper's deletion path: two round trips, key rotation, "
                  "WAL append and tree mutation dominate; every mutation "
                  "bypasses the prefix cache";
    return w;
  }
  if (name == "read_skew") {
    w.mix = Mix{50, 50, 9395, 500, 5};
    w.hot_share_pm = 200;
    w.hot_pick_pm = 800;
    w.why = "reads skip the WAL and 80% of picks hit a fixed 20% hot set, "
            "so the server access path, reactor and codec dominate";
    return w;
  }
  if (name == "wholefile") {
    w.items = smoke ? 4096 : 32768;
    w.item_bytes = 1024;
    w.wholefile = true;
    w.rounds = 8;
    w.bulk_m = smoke ? 64 : 256;
    w.point_ops = 4 * 338;
    w.client_threads = nproc;
    w.why = "Table III path on one connection: outsource, fetch_all and "
            "merged-cut erase_items over a large file";
    return w;
  }
  return std::nullopt;
}

// ---- server stack --------------------------------------------------------------

// fgad_server's defaults, except that nothing in the timed phase waits on
// the disk: WAL records are appended and released through the group
// committer but never fsynced (Wal's sync_ms < 0), and checkpoints are
// taken only by the restart check. On the development host an fsync took
// 86-264 us from one run to the next and a checkpoint of the four files
// about 240 ms, so fsync-bound figures spread past any usable bound;
// bench/net_concurrency and bench/wal_overhead measure the fsync path.
cloud::DurableServer::Options durable_options(const std::string& dir,
                                              cloud::ReplRole role) {
  cloud::DurableServer::Options o;
  o.dir = dir;
  o.role = role;
  o.wal_sync_ms = -1;
  o.checkpoint_every_n = 0;
  return o;
}

Result<std::unique_ptr<net::TcpServer>> serve(cloud::DurableServer& ds,
                                              ServerTrace* trace) {
  return net::TcpServer::create(0, make_handler(ds, trace),
                                net::TcpServer::Options{});
}

/// Primary (and, for churn_sync_repl, its backup) behind loopback TCP.
struct Stack {
  std::string primary_dir;
  std::unique_ptr<cloud::DurableServer> primary;
  std::unique_ptr<net::TcpServer> primary_tcp;
  std::unique_ptr<cloud::DurableServer> backup;
  std::unique_ptr<net::TcpServer> backup_tcp;
  std::shared_ptr<cloud::Replicator> repl;

  ~Stack() { stop(); }

  /// Tears everything down without a final checkpoint: what a crash
  /// leaves behind is the WAL tail on top of the newest checkpoint.
  void stop() {
    if (primary_tcp) {
      primary_tcp->stop();
    }
    if (repl) {
      repl->stop();
    }
    primary_tcp.reset();
    primary.reset();
    repl.reset();
    if (backup_tcp) {
      backup_tcp->stop();
    }
    backup_tcp.reset();
    backup.reset();
  }

  std::uint16_t port() const { return primary_tcp->port(); }
};

Status start_stack(Stack& s, const std::string& dir, bool sync_repl,
                   ServerTrace* trace) {
  namespace fs = std::filesystem;
  s.primary_dir = dir + "/primary";
  fs::create_directories(s.primary_dir);
  if (sync_repl) {
    const std::string bdir = dir + "/backup";
    fs::create_directories(bdir);
    auto b = cloud::DurableServer::open(
        durable_options(bdir, cloud::ReplRole::kBackup));
    if (!b) {
      return b.status();
    }
    s.backup = std::move(b).value();
    auto bt = serve(*s.backup, nullptr);
    if (!bt) {
      return bt.status();
    }
    s.backup_tcp = std::move(bt).value();
  }
  auto p = cloud::DurableServer::open(
      durable_options(s.primary_dir, cloud::ReplRole::kPrimary));
  if (!p) {
    return p.status();
  }
  s.primary = std::move(p).value();
  if (sync_repl) {
    cloud::Replicator::Options ropts;
    ropts.mode = cloud::ReplAckMode::kSync;
    const std::uint16_t port = s.backup_tcp->port();
    s.repl = std::make_shared<cloud::Replicator>(
        [port]() -> Result<std::unique_ptr<net::RpcChannel>> {
          auto ch = net::TcpChannel::connect("127.0.0.1", port);
          if (!ch) {
            return ch.error();
          }
          return std::unique_ptr<net::RpcChannel>(std::move(ch).value());
        },
        ropts);
    s.primary->attach_replicator(s.repl, cloud::ReplAckMode::kSync);
  }
  auto pt = serve(*s.primary, trace);
  if (!pt) {
    return pt.status();
  }
  s.primary_tcp = std::move(pt).value();
  return Status::ok();
}

// ---- clients -------------------------------------------------------------------

/// Per-op measurements of one client.
struct OpStats {
  std::array<std::vector<double>, kOpCount> lat_us;
  std::array<double, kOpCount> bytes{}, rpcs{}, compute_us{}, chain{};
  std::array<std::uint64_t, kOpCount> count{};
  double user_bytes = 0;  // plaintext bytes written by mutations
  std::vector<double> fetch_items_per_s, outsource_items_per_s;
  std::vector<double> key_derive_ms, decrypt_ms;

  void merge(const OpStats& o) {
    for (std::size_t k = 0; k < kOpCount; ++k) {
      lat_us[k].insert(lat_us[k].end(), o.lat_us[k].begin(),
                       o.lat_us[k].end());
      bytes[k] += o.bytes[k];
      rpcs[k] += o.rpcs[k];
      compute_us[k] += o.compute_us[k];
      chain[k] += o.chain[k];
      count[k] += o.count[k];
    }
    user_bytes += o.user_bytes;
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(fetch_items_per_s, o.fetch_items_per_s);
    cat(outsource_items_per_s, o.outsource_items_per_s);
    cat(key_derive_ms, o.key_derive_ms);
    cat(decrypt_ms, o.decrypt_ms);
  }
};

struct Ctx {
  std::uint32_t index = 0;
  std::uint64_t seed = 0;
  const Workload* w = nullptr;
  std::unique_ptr<fgad::crypto::DeterministicRandom> rnd;
  std::unique_ptr<ClientTrace> trace;  // null unless --trace 1
  std::unique_ptr<BenchChannel> channel;
  std::unique_ptr<Client> client;
  std::uint64_t counter = 0;  // client counter carried across reconnects
  Client::FileHandle fh;
  bool has_file = false;
  std::uint64_t next_file_id = 0;
  FileModel model;
  std::vector<std::uint64_t> dropped_files;
  Rng rng{0};
  OpStats timed;  // ops of the timed phase
  OpStats side;   // set-up outsources and gate fetches
  OpStats* sink = &side;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool stopped = false;    // an op failed; this client issues no more
  std::string incorrect;   // first correctness violation, if any
  std::string error;       // first op failure, if any
};

Status connect(Ctx& c, std::uint16_t port) {
  auto ch = net::TcpChannel::connect("127.0.0.1", port);
  if (!ch) {
    return ch.status();
  }
  c.channel = std::make_unique<BenchChannel>(std::move(ch).value(),
                                             c.trace.get());
  Client::Options opts;
  opts.tag_mutations = true;
  opts.threads = c.w->client_threads;
  c.client = std::make_unique<Client>(*c.channel, *c.rnd, opts);
  c.client->set_counter(c.counter);
  return Status::ok();
}

void disconnect(Ctx& c) {
  if (c.client) {
    c.counter = c.client->counter();
  }
  c.client.reset();
  c.channel.reset();
}

fgad::obs::Counter& chain_steps() {
  static fgad::obs::Counter& c =
      fgad::obs::Registry::instance().counter("fgad_chain_steps_total");
  return c;
}

/// Runs one client op and records it into c.sink. `body` returns Status.
template <class F>
Status measured(Ctx& c, OpKind k, F&& body) {
  const std::uint64_t b0 = c.channel->bytes();
  const std::uint64_t r0 = c.channel->rpcs();
  const double comp0 = c.client->compute_timer().total_seconds();
  const std::uint64_t ch0 = chain_steps().value();
  if (c.trace) {
    c.trace->begin_op(k);
  }
  const std::uint64_t t0 = now_ns();
  Status st = body();
  const std::uint64_t t1 = now_ns();
  if (c.trace) {
    c.trace->end_op();
  }
  ++c.attempted;
  if (!st) {
    ++c.failed;
    c.stopped = true;
    if (c.error.empty()) {
      c.error = std::string(kOpNames[k]) + ": " + st.to_string();
    }
    return st;
  }
  OpStats& s = *c.sink;
  s.lat_us[k].push_back(static_cast<double>(t1 - t0) / 1e3);
  s.bytes[k] += static_cast<double>(c.channel->bytes() - b0);
  s.rpcs[k] += static_cast<double>(c.channel->rpcs() - r0);
  s.compute_us[k] +=
      (c.client->compute_timer().total_seconds() - comp0) * 1e6;
  s.chain[k] += static_cast<double>(chain_steps().value() - ch0);
  ++s.count[k];
  return st;
}

void flag_incorrect(Ctx& c, const std::string& what) {
  if (c.incorrect.empty()) {
    c.incorrect = what;
  }
  c.stopped = true;
}

std::uint64_t pick_live(Ctx& c) {
  FileModel& m = c.model;
  if (m.hot.size() != 0 && c.rng.chance(c.w->hot_pick_pm)) {
    return m.hot.pick(c.rng);
  }
  const std::uint64_t i = c.rng.below(m.hot.size() + m.cold.size());
  return i < m.hot.size() ? m.hot.pick(c.rng) : m.cold.pick(c.rng);
}

void op_insert(Ctx& c) {
  const std::uint64_t tag = c.rng.next();
  const Bytes plain = content_of(tag, c.w->item_bytes);
  std::uint64_t id = 0;
  const Status st = measured(c, kInsert, [&]() -> Status {
    auto r = c.client->insert(c.fh, plain);
    if (!r) {
      return r.status();
    }
    id = r.value();
    return Status::ok();
  });
  if (st) {
    c.model.add(id, tag);
    c.sink->user_bytes += static_cast<double>(plain.size());
  }
}

void op_delete(Ctx& c) {
  if (c.model.cold.size() == 0) {
    op_insert(c);
    return;
  }
  const std::uint64_t id = c.model.cold.pick(c.rng);
  const Status st = measured(c, kDelete, [&] {
    return c.client->erase_item(c.fh, proto::ItemRef::id(id));
  });
  if (st) {
    c.model.erase(id);
  }
}

void op_access(Ctx& c) {
  const std::uint64_t id = pick_live(c);
  Bytes got;
  const Status st = measured(c, kAccess, [&]() -> Status {
    auto r = c.client->access(c.fh, proto::ItemRef::id(id));
    if (!r) {
      return r.status();
    }
    got = std::move(r).value();
    return Status::ok();
  });
  if (st && got != c.model.expected(id)) {
    flag_incorrect(c, "access returned wrong plaintext for item " +
                          std::to_string(id));
  }
}

void op_modify(Ctx& c) {
  const std::uint64_t id = pick_live(c);
  const std::uint64_t tag = c.rng.next();
  const Bytes plain = content_of(tag, c.w->item_bytes);
  const Status st =
      measured(c, kModify, [&] { return c.client->modify(c.fh, id, plain); });
  if (st) {
    c.model.live[id] = tag;
    c.sink->user_bytes += static_cast<double>(plain.size());
  }
}

/// erase_items over `m` distinct cold ids.
void op_bulk_delete(Ctx& c, std::size_t m) {
  if (c.model.cold.size() < m) {
    return;
  }
  std::vector<std::uint64_t> ids;
  while (ids.size() < m) {
    const std::uint64_t id = c.model.cold.pick(c.rng);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  }
  std::vector<proto::ItemRef> refs;
  for (std::uint64_t id : ids) {
    refs.push_back(proto::ItemRef::id(id));
  }
  const Status st = measured(
      c, kBulkDelete, [&] { return c.client->erase_items(c.fh, refs); });
  if (st) {
    for (std::uint64_t id : ids) {
      c.model.erase(id);
    }
  }
}

/// One pick of the workload mix.
void step(Ctx& c) {
  const Mix& mix = c.w->mix;
  std::uint64_t r = c.rng.below(mix.total());
  if (r < mix.del) {
    op_delete(c);
    return;
  }
  r -= mix.del;
  if (r < mix.ins) {
    op_insert(c);
    return;
  }
  r -= mix.ins;
  if (r < mix.acc) {
    op_access(c);
    return;
  }
  r -= mix.acc;
  if (r < mix.mod) {
    op_modify(c);
    return;
  }
  op_bulk_delete(c, c.w->bulk_m);
  for (std::size_t i = 0; i < c.w->bulk_m && !c.stopped; ++i) {
    op_insert(c);
  }
}

/// Outsources a fresh file for `c` and resets its model to it. Item ids
/// are the client counter's next values; contents come from the seed.
void outsource_file(Ctx& c) {
  const Workload& w = *c.w;
  const std::uint64_t file_id = ++c.next_file_id * 64 + c.index;
  const std::uint64_t content_seed = derive_seed(c.seed, file_id, 7);
  auto tag_of = [content_seed](std::size_t i) {
    return derive_seed(content_seed, i);
  };
  const std::uint64_t base = c.client->counter();
  const Status st = measured(c, kOutsource, [&]() -> Status {
    auto r = c.client->outsource(file_id, w.items, [&](std::size_t i) {
      return content_of(tag_of(i), w.item_bytes);
    });
    if (!r) {
      return r.status();
    }
    c.fh = std::move(r).value();
    return Status::ok();
  });
  if (!st) {
    return;
  }
  const double secs = c.sink->lat_us[kOutsource].back() / 1e6;
  c.has_file = true;
  c.model = FileModel{};
  c.model.file_id = file_id;
  c.model.item_bytes = w.item_bytes;
  const std::size_t hot_n = w.items * w.hot_share_pm / 1000;
  for (std::size_t i = 0; i < w.items; ++i) {
    c.model.add(base + i, tag_of(i), i < hot_n);
  }
  c.sink->user_bytes += static_cast<double>(w.items * w.item_bytes);
  c.sink->outsource_items_per_s.push_back(static_cast<double>(w.items) /
                                          secs);
}

/// fetch_all of c's file, compared item by item against the model.
void fetch_and_check(Ctx& c) {
  Client::FetchedFile f;
  const Status st = measured(c, kFetch, [&]() -> Status {
    auto r = c.client->fetch_all(c.fh);
    if (!r) {
      return r.status();
    }
    f = std::move(r).value();
    return Status::ok();
  });
  if (!st) {
    return;
  }
  const double secs = c.sink->lat_us[kFetch].back() / 1e6;
  c.sink->fetch_items_per_s.push_back(static_cast<double>(f.items.size()) /
                                      secs);
  c.sink->key_derive_ms.push_back(f.key_derive_seconds * 1e3);
  c.sink->decrypt_ms.push_back(f.decrypt_seconds * 1e3);
  if (f.items.size() != c.model.live.size()) {
    flag_incorrect(c, "fetch_all returned " + std::to_string(f.items.size()) +
                          " items, model has " +
                          std::to_string(c.model.live.size()));
    return;
  }
  for (const auto& [id, plain] : f.items) {
    if (c.model.live.count(id) == 0 || plain != c.model.expected(id)) {
      flag_incorrect(c, "fetch_all mismatch at item " + std::to_string(id));
      return;
    }
  }
}

/// One Table III cycle: outsource, fetch_all, the point ops, the bulk
/// rounds, fetch_all, drop_file. The point ops are equal numbers of
/// erase_item, insert, access and modify in a seeded order. The file
/// survives when the deadline has passed, so the gate and the restart check
/// have state to verify.
void wholefile_cycle(Ctx& c, std::uint64_t deadline) {
  // Every cycle replays the same op sequence on a same-sized file, so
  // per-op counts (wire bytes, chain steps) repeat exactly from run to
  // run, however many cycles fit in the run.
  c.rng = Rng(derive_seed(c.seed, 5));
  if (!c.has_file) {
    outsource_file(c);
  }
  fetch_and_check(c);
  std::vector<OpKind> plan;
  for (std::size_t i = 0; i < c.w->point_ops / 4; ++i) {
    plan.insert(plan.end(), {kDelete, kInsert, kAccess, kModify});
  }
  for (std::size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[c.rng.below(i)]);
  }
  for (OpKind k : plan) {
    if (c.stopped) {
      break;
    }
    switch (k) {
      case kDelete: op_delete(c); break;
      case kInsert: op_insert(c); break;
      case kAccess: op_access(c); break;
      default: op_modify(c); break;
    }
  }
  for (std::size_t i = 0; i < c.w->rounds && !c.stopped; ++i) {
    op_bulk_delete(c, c.w->bulk_m);
  }
  fetch_and_check(c);
  if (c.stopped || now_ns() >= deadline) {
    return;
  }
  const Status st =
      measured(c, kDrop, [&] { return c.client->drop_file(c.fh); });
  if (st) {
    c.dropped_files.push_back(c.model.file_id);
    c.has_file = false;
    c.model = FileModel{};
  }
}

// ---- correctness gate ----------------------------------------------------------

/// Server invariants (fsck), then every client's file against its model,
/// then every id it deleted (and every file it dropped) must be gone.
/// Returns the first violation, or "" when everything holds.
std::string gate(cloud::DurableServer& primary, cloud::DurableServer* backup,
                 std::vector<std::unique_ptr<Ctx>>& ctxs) {
  if (auto st = cloud::fsck(primary.server()); !st) {
    return "fsck: " + st.to_string();
  }
  if (backup != nullptr) {
    if (auto st = cloud::fsck(backup->server()); !st) {
      return "backup fsck: " + st.to_string();
    }
    for (const auto& c : ctxs) {
      const auto* pf = primary.server().file(c->model.file_id);
      const auto* bf = backup->server().file(c->model.file_id);
      if (c->has_file && (bf == nullptr || pf == nullptr ||
                          bf->item_count() != pf->item_count())) {
        return "backup diverges from primary on file " +
               std::to_string(c->model.file_id);
      }
    }
  }
  for (auto& c : ctxs) {
    c->sink = &c->side;
    for (int i = 0; i < 12 && c->has_file; ++i) {
      fetch_and_check(*c);
    }
    if (!c->incorrect.empty()) {
      return "client " + std::to_string(c->index) + ": " + c->incorrect;
    }
  }
  std::vector<std::string> verdict(ctxs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    threads.emplace_back([&, i] {
      Ctx& c = *ctxs[i];
      for (std::uint64_t id : c.model.deleted) {
        auto r = c.client->access(c.fh, proto::ItemRef::id(id));
        if (r.code() != Errc::kNotFound) {
          verdict[i] = "deleted item " + std::to_string(id) +
                       " is still readable (" +
                       (r ? std::string("ok") : r.status().to_string()) + ")";
          return;
        }
      }
      for (std::uint64_t f : c.dropped_files) {
        Client::FileHandle gone;
        gone.id = f;
        auto r = c.client->access(gone, proto::ItemRef::ordinal(0));
        if (r.code() != Errc::kNotFound) {
          verdict[i] = "dropped file " + std::to_string(f) + " is readable";
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const std::string& v : verdict) {
    if (!v.empty()) {
      return v;
    }
  }
  return "";
}

/// A checkpoint, then exactly `tail` untimed modifies by the first client,
/// so the restart check loads the same image and replays the same number
/// of WAL records whatever the timed phase did.
std::string checkpoint_and_pad(cloud::DurableServer& ds,
                               std::vector<std::unique_ptr<Ctx>>& ctxs,
                               std::uint64_t tail) {
  if (auto st = ds.checkpoint(); !st) {
    return "checkpoint: " + st.to_string();
  }
  Ctx& c = *ctxs.front();
  while (tail-- > 0 && c.has_file && !c.stopped) {
    op_modify(c);
  }
  return c.error.empty() ? "" : "WAL tail padding: " + c.error;
}

// ---- host ----------------------------------------------------------------------

std::string fs_type_name(const std::string& dir) {
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

/// Median of 4 KiB write + fsync on a fresh file in `dir`, in µs.
double fsync_probe_us(const std::string& dir, int rounds) {
  const std::string path = dir + "/fsync-probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  if (fd < 0) {
    return 0;
  }
  std::vector<char> block(4096, 'p');
  std::vector<double> us;
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t t0 = now_ns();
    if (::write(fd, block.data(), block.size()) < 0 || ::fsync(fd) != 0) {
      break;
    }
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return median(us);
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the highest-numbered CPU it may use, and returns that CPU (-1 if none).
/// With one closed-loop client an op is a chain of thread hand-offs
/// (client, reactor, group committer, replicator); on the shared 4-core
/// development host, hand-offs across CPUs made every latency drift with
/// the host's load. Pinned, the p50 spreads over 5 runs fell from
/// 0.07-0.10 to 0.06-0.07 and throughput's from 0.33 to 0.10.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- metric catalogue ------------------------------------------------------------

struct EndToEndSpec {
  const char* name;
  const char* unit;
  const char* better;
  double bound;
};

// The end-to-end metrics every workload reports (with --trace 0).
const std::vector<EndToEndSpec> kEndToEnd = {
    {"setup_s", "s", "lower", 0.25},
    {"delete_p50_us", "us", "lower", 0.25},
    {"insert_p50_us", "us", "lower", 0.25},
    {"bulk_delete_p50_us", "us", "lower", 0.25},
    {"access_p50_us", "us", "lower", 0.25},
    {"modify_p50_us", "us", "lower", 0.25},
    {"delete_wire_bytes", "bytes", "lower", 0.05},
    {"recovery_s", "s", "lower", 0.25},
};

// Ops and messages that get per-op / per-message per-layer metrics.
const std::vector<OpKind> kPointOps = {kDelete, kInsert, kAccess, kModify,
                                       kBulkDelete};
const std::vector<OpKind> kComputeOps = {kDelete, kInsert, kAccess,
                                         kModify, kBulkDelete, kFetch,
                                         kOutsource};
const std::vector<OpKind> kByteOps = {kDelete, kInsert, kAccess,
                                      kModify, kBulkDelete, kFetch};
// Per-message metrics count the messages of the op that owns them, so an
// access_req sent by Client::modify does not blur the access numbers.
struct MsgSpec {
  proto::MsgType type;
  const char* name;
  OpKind owner;
};
const std::vector<MsgSpec> kMsgs = {
    {proto::MsgType::kDeleteBeginReq, "delete_begin", kDelete},
    {proto::MsgType::kDeleteCommitReq, "delete_commit", kDelete},
    {proto::MsgType::kInsertBeginReq, "insert_begin", kInsert},
    {proto::MsgType::kInsertCommitReq, "insert_commit", kInsert},
    {proto::MsgType::kAccessReq, "access", kAccess},
    {proto::MsgType::kModifyReq, "modify", kModify},
    {proto::MsgType::kDeleteManyBeginReq, "delete_many_begin", kBulkDelete},
    {proto::MsgType::kDeleteManyCommitReq, "delete_many_commit", kBulkDelete},
};

/// Per-layer metric names and units (with --trace 1), in output order.
std::vector<std::pair<std::string, std::string>> per_layer_spec() {
  std::vector<std::pair<std::string, std::string>> out;
  auto add = [&out](std::string n, const char* u) {
    out.emplace_back(std::move(n), u);
  };
  for (OpKind k : kPointOps) add(std::string("client.op_us.") + kOpNames[k], "us");
  add("client.p99_us.delete", "us");
  add("client.p99_us.access", "us");
  for (OpKind k : kComputeOps) add(std::string("client.compute_us.") + kOpNames[k], "us");
  for (OpKind k : kPointOps) add(std::string("client.self_us.") + kOpNames[k], "us");
  for (OpKind k : kPointOps) add(std::string("client.rpcs_per_op.") + kOpNames[k], "count");
  add("client.prefix_cache_hit_ratio", "ratio");
  add("client.fetch_items_per_s", "1/s");
  add("client.outsource_items_per_s", "1/s");
  for (const auto& m : kMsgs) add(std::string("net.rpc_us.") + m.name, "us");
  for (const auto& m : kMsgs) add(std::string("net.wire_us.") + m.name, "us");
  for (OpKind k : kByteOps) add(std::string("net.bytes_per_op.") + kOpNames[k], "bytes");
  for (const auto& m : kMsgs) add(std::string("cloud.residence_us.") + m.name, "us");
  add("cloud.tree_apply_delete_us", "us");
  add("cloud.tree_apply_delete_many_us", "us");
  add("cloud.tree_apply_insert_us", "us");
  add("cloud.ingest_ms", "ms");
  add("wal.commit_batch_mean", "count");
  add("wal.append_us", "us");
  add("wal.bytes_per_user_byte", "ratio");
  add("checkpoint.ms_mean", "ms");
  for (OpKind k : kPointOps) add(std::string("core.chain_steps_per_op.") + kOpNames[k], "count");
  add("core.batch_derive_ms", "ms");
  add("core.key_derive_ms_per_fetch", "ms");
  add("crypto.decrypt_ms_per_fetch", "ms");
  add("replica.ship_us", "us");
  add("replica.records_per_ship", "count");
  add("host.fsync_us", "us");
  add("trace.ops_per_s", "1/s");
  add("trace.unlinked_rpc_share", "ratio");
  return out;
}

std::string json_str(const std::string& s) {
  return "\"" + fgad::obs::json_escape(s) + "\"";
}

/// BENCHMARK.json, generated from the catalogue above.
std::string spec_json() {
  std::string o = "{\n";
  o += "  \"command\": [\"python3\", \"paperbench/run.py\"],\n";
  o += "  \"paths\": [\"paperbench\"],\n";
  o += "  \"run_seconds\": 30,\n";
  o += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < kWorkloadNames.size(); ++i) {
    const Workload w = *make_workload(kWorkloadNames[i], false);
    o += "    {\"name\": " + json_str(w.name) + ", \"why\": " +
         json_str(w.why) + "}" + (i + 1 < kWorkloadNames.size() ? "," : "") +
         "\n";
  }
  o += "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < kEndToEnd.size(); ++i) {
    const EndToEndSpec& m = kEndToEnd[i];
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%g", m.bound);
    o += std::string("    {\"name\": ") + json_str(m.name) +
         ", \"unit\": " + json_str(m.unit) + ", \"better\": " +
         json_str(m.better) + ", \"bound\": " + bound + "}" +
         (i + 1 < kEndToEnd.size() ? "," : "") + "\n";
  }
  o += "  ],\n  \"per_layer\": [\n";
  const auto layers = per_layer_spec();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const std::string& name = layers[i].first;
    const bool higher = name == "client.prefix_cache_hit_ratio" ||
                        name == "client.fetch_items_per_s" ||
                        name == "client.outsource_items_per_s" ||
                        name == "wal.commit_batch_mean" ||
                        name == "replica.records_per_ship" ||
                        name == "trace.ops_per_s";
    o += "    {\"name\": " + json_str(layers[i].first) + ", \"unit\": " +
         json_str(layers[i].second) + ", \"better\": \"" +
         (higher ? "higher" : "lower") + "\"}" +
         (i + 1 < layers.size() ? "," : "") + "\n";
  }
  o += "  ]\n}\n";
  return o;
}

// ---- the run -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string state_dir;
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string describe_host(const std::string& dir, int cpu, double fsync_us) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"pinned_cpu\": %d, \"fs_type\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"openssl\": %s, "
      "\"fsync_us\": %.3f}",
      std::thread::hardware_concurrency(), cpu,
      json_str(fs_type_name(dir)).c_str(),
      json_str(PAPERBENCH_BUILD_TYPE).c_str(), json_str(kCompiler).c_str(),
      json_str(OpenSSL_version(OPENSSL_VERSION)).c_str(), fsync_us);
  return buf;
}

/// Timed-phase spans reduced to per-op and per-(op, message) sums.
struct SpanSums {
  struct Op {
    double n = 0, op_ns = 0, rpc_ns = 0;
  };
  struct Msg {
    double n = 0, rpc_ns = 0, linked = 0, res_ns = 0;
  };
  std::array<Op, kOpCount> ops{};
  std::map<std::pair<std::uint8_t, std::uint16_t>, Msg> msgs;
  double rpcs = 0, unlinked = 0;
};

SpanSums sum_spans(std::vector<std::vector<Span>>& client_spans,
                   std::vector<Span>& residences) {
  SpanSums s;
  std::vector<Span*> rpcs;
  std::unordered_map<std::uint64_t, const Span*> op_by_id;
  for (auto& spans : client_spans) {
    for (Span& sp : spans) {
      if (sp.kind == SpanKind::kRpc) {
        rpcs.push_back(&sp);
      } else {
        op_by_id[sp.id] = &sp;
        SpanSums::Op& o = s.ops[sp.op];
        o.n += 1;
        o.op_ns += static_cast<double>(sp.dur());
      }
    }
  }
  s.rpcs = static_cast<double>(rpcs.size());
  s.unlinked = static_cast<double>(link_residences(rpcs, residences));
  std::unordered_map<std::uint64_t, const Span*> res_by_rpc;
  for (const Span& r : residences) {
    if (r.parent != 0) {
      res_by_rpc[r.parent] = &r;
    }
  }
  for (const Span* rpc : rpcs) {
    const auto op = op_by_id.find(rpc->parent);
    if (op == op_by_id.end()) {
      continue;
    }
    s.ops[op->second->op].rpc_ns += static_cast<double>(rpc->dur());
    SpanSums::Msg& m = s.msgs[{op->second->op, rpc->msg}];
    m.n += 1;
    m.rpc_ns += static_cast<double>(rpc->dur());
    if (auto it = res_by_rpc.find(rpc->id); it != res_by_rpc.end()) {
      m.linked += 1;
      m.res_ns += static_cast<double>(it->second->dur());
    }
  }
  return s;
}

std::string span_name(const Span& s) {
  if (s.kind == SpanKind::kOp) {
    return kOpNames[s.op];
  }
  return std::string(s.kind == SpanKind::kRpc ? "rpc:" : "residence:") +
         proto::msg_type_name(static_cast<proto::MsgType>(s.msg));
}

int run(const Args& a) {
  namespace fs = std::filesystem;
  const std::optional<Workload> wl = make_workload(a.workload, a.smoke);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  const int cpu = pin_to_one_cpu();
  const std::string root =
      a.state_dir + "/" + w.name + "-" + std::to_string(::getpid());
  fs::remove_all(root);
  fs::create_directories(root);
  const RegistrySnap run_before = RegistrySnap::take();

  const double host_fsync_us = fsync_probe_us(root, a.smoke ? 8 : 64);
  std::printf("host: %s\n",
              describe_host(root, cpu, host_fsync_us).c_str());
  std::printf("workload: %s, seed %" PRIu64 ", %zu client(s), %.1f s\n",
              w.name.c_str(), a.seed, kClients, a.seconds);

  std::unique_ptr<ServerTrace> server_trace;
  if (a.trace) {
    server_trace = std::make_unique<ServerTrace>();
  }

  // ---- set-up, repeated; the last one is kept for the timed phase.
  Stack stack;
  std::vector<std::unique_ptr<Ctx>> ctxs;
  std::vector<double> setup_s;
  OpStats retired;  // measurements of set-ups torn down again
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto retire = [&] {
    for (auto& c : ctxs) {
      retired.merge(c->side);
      attempted += c->attempted;
      failed += c->failed;
    }
    ctxs.clear();
  };
  std::string failure;
  for (std::size_t rep = 0; rep < w.setups && failure.empty(); ++rep) {
    if (rep > 0) {
      retire();
      stack.stop();
      fs::remove_all(root + "/setup-" + std::to_string(rep - 1));
      // Hand the torn-down set-up's memory back, so peak_rss_mb reflects
      // one set-up and not allocator arenas left over from earlier ones.
      ::malloc_trim(0);
    }
    const std::uint64_t t0 = now_ns();
    if (auto st = start_stack(stack, root + "/setup-" + std::to_string(rep),
                              w.sync_repl, server_trace.get());
        !st) {
      failure = "server start: " + st.to_string();
      break;
    }
    for (std::size_t i = 0; i < kClients && failure.empty(); ++i) {
      auto c = std::make_unique<Ctx>();
      c->index = static_cast<std::uint32_t>(i);
      c->seed = derive_seed(a.seed, i, 1);
      c->w = &w;
      c->rnd = std::make_unique<fgad::crypto::DeterministicRandom>(
          derive_seed(a.seed, i, 2));
      c->rng = Rng(derive_seed(a.seed, i, 3));
      if (a.trace) {
        c->trace = std::make_unique<ClientTrace>(c->index);
      }
      if (auto st = connect(*c, stack.port()); !st) {
        failure = "connect: " + st.to_string();
        break;
      }
      outsource_file(*c);
      if (!c->error.empty()) {
        failure = "set-up: " + c->error;
      }
      ctxs.push_back(std::move(c));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // ---- timed phase: closed loop until the deadline.
  double elapsed_s = 0;
  RegistrySnap before;
  RegistrySnap after;
  std::vector<std::vector<Span>> client_spans;
  if (failure.empty()) {
    for (auto& c : ctxs) {
      c->sink = &c->timed;
      if (c->trace) {
        c->trace->spans().clear();
      }
    }
    before = RegistrySnap::take();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(a.seconds * 1e9);
    std::vector<std::thread> threads;
    for (auto& cp : ctxs) {
      threads.emplace_back([&w, deadline, c = cp.get()] {
        while (!c->stopped && now_ns() < deadline) {
          if (w.wholefile) {
            wholefile_cycle(*c, deadline);
          } else {
            step(*c);
          }
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
    after = RegistrySnap::take();
    for (auto& c : ctxs) {
      c->sink = &c->side;
      if (c->trace) {
        client_spans.push_back(std::move(c->trace->spans()));
        c->channel->set_trace(nullptr);
        c->trace.reset();
      }
      if (!c->incorrect.empty()) {
        failure = "client " + std::to_string(c->index) + ": " + c->incorrect;
      }
    }
  }

  // ---- correctness gate, restart without a final checkpoint, gate again.
  std::vector<double> recovery_s;
  // client.fetch_items_per_s comes from the live server's gate only,
  // after its first fetch warmed the heap: the recovered server, freshly
  // loaded, fetched 1.3-1.7x faster, and a median over both gates fell
  // between the two.
  std::vector<double> fetch_rate;
  if (failure.empty()) {
    failure = gate(*stack.primary, stack.backup.get(), ctxs);
    for (const auto& c : ctxs) {
      const auto& r = c->side.fetch_items_per_s;
      if (!r.empty()) {
        fetch_rate.insert(fetch_rate.end(), r.begin() + 1, r.end());
      }
    }
  }
  if (failure.empty()) {
    failure = checkpoint_and_pad(*stack.primary, ctxs, 512);
  }
  if (failure.empty()) {
    for (auto& c : ctxs) {
      disconnect(*c);
    }
    const std::string dir = stack.primary_dir;
    stack.stop();
    std::unique_ptr<cloud::DurableServer> ds;
    for (std::size_t rep = 0; rep < w.reopens; ++rep) {
      ds.reset();
      ::malloc_trim(0);
      const std::uint64_t t0 = now_ns();
      auto r = cloud::DurableServer::open(
          durable_options(dir, cloud::ReplRole::kPrimary));
      recovery_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (!r) {
        failure = "reopen: " + r.status().to_string();
        break;
      }
      ds = std::move(r).value();
    }
    if (failure.empty()) {
      std::printf("recovery: checkpoint epoch %" PRIu64 ", %" PRIu64
                  " WAL records replayed\n",
                  ds->recovery_info().checkpoint_epoch,
                  ds->recovery_info().replayed);
      auto tcp = serve(*ds, nullptr);
      if (!tcp) {
        failure = "restart serve: " + tcp.status().to_string();
      }
      for (auto& c : ctxs) {
        if (failure.empty()) {
          if (auto st = connect(*c, tcp.value()->port()); !st) {
            failure = "reconnect: " + st.to_string();
          }
        }
      }
      if (failure.empty()) {
        failure = gate(*ds, nullptr, ctxs);
      }
      for (auto& c : ctxs) {
        disconnect(*c);
      }
      if (tcp) {
        tcp.value()->stop();
      }
    }
  }
  stack.stop();
  for (auto& c : ctxs) {
    attempted += c->attempted;
    failed += c->failed;
    if (!c->error.empty()) {
      std::printf("client %u op failure: %s\n", c->index, c->error.c_str());
    }
  }
  fs::remove_all(root);

  OpStats timed;
  OpStats side = retired;
  for (auto& c : ctxs) {
    timed.merge(c->timed);
    side.merge(c->side);
  }
  const RegistrySnap run_after = RegistrySnap::take();
  const bool correct = failure.empty();
  if (!correct) {
    std::printf("CORRECTNESS FAILURE: %s\n", failure.c_str());
  }
  if (attempted == 0) {
    return 1;
  }

  double ops = 0;
  for (std::size_t k = 0; k < kOpCount; ++k) {
    ops += static_cast<double>(timed.count[k]);
  }
  // Whole-file ops also happen in set-up and in the gate; count those.
  OpStats all = timed;
  all.merge(side);
  std::vector<double>& outsource_rate = all.outsource_items_per_s;

  std::map<std::string, double> e2e;
  auto& lat = timed.lat_us;
  e2e["setup_s"] = median(setup_s);
  e2e["delete_p50_us"] = median(lat[kDelete]);
  e2e["insert_p50_us"] = median(lat[kInsert]);
  e2e["bulk_delete_p50_us"] = median(lat[kBulkDelete]);
  e2e["access_p50_us"] = median(lat[kAccess]);
  e2e["modify_p50_us"] = median(lat[kModify]);
  e2e["delete_wire_bytes"] = ratio(timed.bytes[kDelete], static_cast<double>(timed.count[kDelete]));
  e2e["recovery_s"] = median(recovery_s);

  std::printf("samples:");
  for (std::size_t k = 0; k < kOpCount; ++k) {
    std::printf(" %s=%zu", kOpNames[k], lat[k].size());
  }
  std::printf(" fetch_rate=%zu outsource_rate=%zu setups=%zu reopens=%zu\n",
              fetch_rate.size(), outsource_rate.size(), setup_s.size(),
              recovery_s.size());
  // Printed, not bounded: see README.md.
  std::printf("ops_per_s = %.1f\n", ratio(ops, elapsed_s));
  std::printf("peak_rss_mb = %.1f (VmHWM, whole run)\n", peak_rss_mb());
  std::printf("failed_share = %.6f (%" PRIu64 " of %" PRIu64 ")\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);

  std::map<std::string, double> layer;
  bool closure_ok = true;
  if (a.trace) {
    std::vector<Span> residences = server_trace->take();
    const SpanSums ss = sum_spans(client_spans, residences);
    const RegistryDelta d(before, after);
    const RegistryDelta whole(run_before, run_after);
    auto per_op = [&](const std::array<double, kOpCount> OpStats::*field,
                      OpKind k) {
      const OpStats& s = (k == kFetch || k == kOutsource) ? all : timed;
      return ratio((s.*field)[k], static_cast<double>(s.count[k]));
    };
    for (OpKind k : kPointOps) {
      layer[std::string("client.op_us.") + kOpNames[k]] = ratio(ss.ops[k].op_ns, ss.ops[k].n) / 1e3;
    }
    layer["client.p99_us.delete"] = percentile(lat[kDelete], 99);
    layer["client.p99_us.access"] = percentile(lat[kAccess], 99);
    for (OpKind k : kComputeOps) {
      layer[std::string("client.compute_us.") + kOpNames[k]] = per_op(&OpStats::compute_us, k);
    }
    for (OpKind k : kPointOps) {
      layer[std::string("client.self_us.") + kOpNames[k]] = ratio(ss.ops[k].op_ns - ss.ops[k].rpc_ns, ss.ops[k].n) / 1e3;
    }
    for (OpKind k : kPointOps) {
      layer[std::string("client.rpcs_per_op.") + kOpNames[k]] = per_op(&OpStats::rpcs, k);
    }
    const double hits = d.counter("fgad_prefix_cache_hits_total");
    const double misses = d.counter("fgad_prefix_cache_misses_total");
    layer["client.prefix_cache_hit_ratio"] = ratio(hits, hits + misses);
    // Not end-to-end: over 10 runs of read_skew the fetch rate spread
    // 0.32 and the outsource rate 0.24, and when the shared host sped up
    // the fetch rate moved 1.7x where the p50s moved 1.3x.
    layer["client.fetch_items_per_s"] = median(fetch_rate);
    layer["client.outsource_items_per_s"] = median(outsource_rate);
    // (owner op, message) -> wire and residence means, for the closure.
    std::map<std::pair<std::uint8_t, std::uint16_t>, double> wire_res_us;
    for (const MsgSpec& spec : kMsgs) {
      const auto key = std::make_pair(static_cast<std::uint8_t>(spec.owner),
                                      static_cast<std::uint16_t>(spec.type));
      const auto it = ss.msgs.find(key);
      const SpanSums::Msg m = it == ss.msgs.end() ? SpanSums::Msg{} : it->second;
      const double rpc_us = ratio(m.rpc_ns, m.n) / 1e3;
      const double res_us = ratio(m.res_ns, m.linked) / 1e3;
      const double wire_us = m.linked > 0 ? rpc_us - res_us : 0;
      layer[std::string("net.rpc_us.") + spec.name] = rpc_us;
      layer[std::string("net.wire_us.") + spec.name] = wire_us;
      layer[std::string("cloud.residence_us.") + spec.name] = res_us;
      wire_res_us[key] = wire_us + res_us;
    }
    for (OpKind k : kByteOps) {
      layer[std::string("net.bytes_per_op.") + kOpNames[k]] = per_op(&OpStats::bytes, k);
    }
    layer["cloud.tree_apply_delete_us"] = d.hist_mean("fgad_tree_apply_delete_ns") / 1e3;
    layer["cloud.tree_apply_delete_many_us"] = d.hist_mean("fgad_tree_apply_delete_many_ns") / 1e3;
    layer["cloud.tree_apply_insert_us"] = d.hist_mean("fgad_tree_apply_insert_ns") / 1e3;
    std::vector<double> ingest_ms;
    for (const Span& r : residences) {
      if (r.msg == static_cast<std::uint16_t>(proto::MsgType::kOutsourceReq)) {
        ingest_ms.push_back(static_cast<double>(r.dur()) / 1e6);
      }
    }
    layer["cloud.ingest_ms"] = mean(ingest_ms);
    layer["wal.commit_batch_mean"] = d.hist_mean("fgad_wal_commit_batch_size");
    layer["wal.append_us"] = d.hist_mean("fgad_wal_append_ns") / 1e3;
    layer["wal.bytes_per_user_byte"] = ratio(d.counter("fgad_wal_bytes_total"), timed.user_bytes);
    // The one checkpoint of the run, taken by the restart check.
    layer["checkpoint.ms_mean"] = whole.hist_mean("fgad_checkpoint_duration_ns") / 1e6;
    for (OpKind k : kPointOps) {
      layer[std::string("core.chain_steps_per_op.") + kOpNames[k]] = per_op(&OpStats::chain, k);
    }
    layer["core.batch_derive_ms"] = whole.hist_mean("fgad_batch_derive_ns") / 1e6;
    layer["core.key_derive_ms_per_fetch"] = mean(all.key_derive_ms);
    layer["crypto.decrypt_ms_per_fetch"] = mean(all.decrypt_ms);
    layer["replica.ship_us"] = d.hist_mean("fgad_repl_ship_ns") / 1e3;
    layer["replica.records_per_ship"] = ratio(d.counter("fgad_repl_records_shipped_total"), d.counter("fgad_repl_ships_total"));
    layer["host.fsync_us"] = host_fsync_us;
    layer["trace.ops_per_s"] = ratio(ops, elapsed_s);
    layer["trace.unlinked_rpc_share"] = ratio(ss.unlinked, ss.rpcs);

    // Budget closure from the published per-layer numbers: self time plus,
    // for each message the op sends, its wire and residence means.
    // The three parts compose the op's mean as published: self time plus,
    // per owned message, messages per op times (wire + residence).
    for (OpKind k : {kDelete, kInsert, kAccess, kBulkDelete}) {
      if (ss.ops[k].n == 0) {
        continue;
      }
      const double op_us = ratio(ss.ops[k].op_ns, ss.ops[k].n) / 1e3;
      double parts =
          ratio(ss.ops[k].op_ns - ss.ops[k].rpc_ns, ss.ops[k].n) / 1e3;
      for (const auto& [key, m] : ss.msgs) {
        if (key.first == k) {
          parts += m.n / ss.ops[k].n * wire_res_us[key];
        }
      }
      const double share = ratio(parts, op_us);
      std::printf("closure %-12s self+wire+residence = %.2f us of %.2f us "
                  "(%.3f)\n",
                  kOpNames[k], parts, op_us, share);
      closure_ok = closure_ok && share > 0.9 && share < 1.1;
    }
    // Spans of each client's first kSpansWrittenOps ops, with their
    // round trips and residences, as a Chrome trace next to the state dirs.
    constexpr std::size_t kSpansWrittenOps = 5000;
    std::vector<const Span*> written;
    std::unordered_set<std::uint64_t> rpc_ids;
    for (const auto& spans : client_spans) {
      std::size_t ops_seen = 0;
      for (const Span& s : spans) {
        if (ops_seen == kSpansWrittenOps) {
          break;
        }
        written.push_back(&s);
        if (s.kind == SpanKind::kRpc) {
          rpc_ids.insert(s.id);
        } else {
          ++ops_seen;
        }
      }
    }
    for (const Span& r : residences) {
      if (rpc_ids.count(r.parent) != 0) {
        written.push_back(&r);
      }
    }
    const std::string path = a.state_dir + "/trace-" + w.name + ".json";
    if (write_chrome_trace(path, written, span_name)) {
      std::printf("spans: %zu written to %s\n", written.size(), path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  if (!closure_ok) {
    std::printf("TRACE FAILURE: per-layer parts do not close to within 10%% "
                "of the client-observed time\n");
  }

  // Every metric by name with its unit, in catalogue order, then the
  // one-line JSON result. A per-layer metric with nothing to measure in
  // this workload reads 0.
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> shown;
  if (a.trace) {
    for (const auto& [name, unit] : per_layer_spec()) {
      shown.push_back(Metric{name, layer[name], unit});
    }
  } else {
    for (const EndToEndSpec& m : kEndToEnd) {
      shown.push_back(Metric{m.name, e2e.at(m.name), m.unit});
    }
  }
  std::printf("%s metrics:\n", a.trace ? "per-layer" : "end-to-end");
  std::string json;
  for (const Metric& m : shown) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s%s: {\"value\": %.10g, \"unit\": %s}",
                  json.empty() ? "" : ", ", json_str(m.name).c_str(), m.value,
                  json_str(m.unit).c_str());
    json += buf;
  }
  const bool ok = correct && closure_ok;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              ok ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: paperbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                  [--state-dir DIR] [--smoke]\n"
               "       paperbench --spec\n"
               "workloads: churn read_skew wholefile churn_sync_repl\n");
  return 2;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  paperbench::Args a;
  a.state_dir = ".bench_build/state";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--spec") {
      std::fputs(paperbench::spec_json().c_str(), stdout);
      return 0;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--state-dir" && has_value) {
      a.state_dir = argv[++i];
    } else {
      return paperbench::usage();
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) {
    return paperbench::usage();
  }
  return paperbench::run(a);
}
