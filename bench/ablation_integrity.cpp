// Ablation A5: cost of the integrity substrate (PDP/PoR layer).
//
// Measures (a) per-operation overhead the hash tree adds on the server
// (single and bulk delete wall time with integrity on vs off), (b) audit
// proof size and verification cost vs n, and (c) the client-side
// root-tracking cost of a verified deletion. Expected: O(log n) proof
// sizes, microsecond-level maintenance — integrity is cheap relative to the
// deletion exchange.
#include "integrity/audit.h"
#include "support/bench_util.h"

namespace {

using namespace fgad::bench;
using fgad::BytesView;

double deletes_per_ms(bool integrity_on, std::size_t n, LatencyRecorder& lat) {
  fgad::cloud::CloudServer server{fgad::cloud::CloudServer::Options{
      /*track_duplicates=*/false, integrity_on}};
  fgad::net::DirectChannel ch(
      [&server](fgad::BytesView req) { return server.handle(req); });
  fgad::crypto::DeterministicRandom rnd(n);
  fgad::client::Client client(ch, rnd);
  auto fh = client.outsource(1, n, small_item);
  if (!fh) std::abort();
  const std::size_t reps = 300;
  fgad::Stopwatch sw;
  for (std::size_t i = 0; i < reps; ++i) {
    LatencyRecorder::Timed t(lat);
    if (!client.erase_item(fh.value(), fgad::proto::ItemRef::id(i * 3))) {
      std::abort();
    }
  }
  return sw.elapsed_ms() / reps;
}

// Wall time of one erase_items batch (merged cut, one key rotation) of m
// items spread evenly over the file. With integrity on, the server repairs
// only the ancestors of the relocated leaves.
double bulk_deletes_ms(bool integrity_on, std::size_t n, std::size_t m,
                       LatencyRecorder& lat) {
  fgad::cloud::CloudServer server{fgad::cloud::CloudServer::Options{
      /*track_duplicates=*/false, integrity_on}};
  fgad::net::DirectChannel ch(
      [&server](fgad::BytesView req) { return server.handle(req); });
  fgad::crypto::DeterministicRandom rnd(n + m);
  fgad::client::Client client(ch, rnd);
  auto fh = client.outsource(1, n, small_item);
  if (!fh) std::abort();
  const std::size_t stride = n / m;
  const std::size_t reps = std::min<std::size_t>(stride, 32);
  std::vector<fgad::proto::ItemRef> refs(m);
  fgad::Stopwatch sw;
  for (std::size_t b = 0; b < reps; ++b) {
    for (std::size_t k = 0; k < m; ++k) {
      refs[k] = fgad::proto::ItemRef::id(b + k * stride);
    }
    LatencyRecorder::Timed t(lat);
    if (!client.erase_items(fh.value(), refs)) {
      std::abort();
    }
  }
  return sw.elapsed_ms() / reps;
}

}  // namespace

int main() {
  const std::size_t n = std::min<std::size_t>(max_n(), 100'000);
  std::printf("=== Ablation A5: integrity substrate cost (n = %zu) ===\n\n",
              n);

  std::printf("server-side hash-tree maintenance (end-to-end delete wall "
              "time):\n");
  LatencyRecorder off_lat;
  LatencyRecorder on_lat;
  const double off = deletes_per_ms(false, n, off_lat);
  const double on = deletes_per_ms(true, n, on_lat);
  std::printf("  integrity off: %.4f ms/delete\n", off);
  std::printf("  integrity on:  %.4f ms/delete  (+%.1f%%)\n", on,
              100.0 * (on - off) / off);
  BenchJson json("ablation_integrity");
  auto& meta = json.meta();
  meta.set("n", n)
      .set("delete_ms_integrity_off", off)
      .set("delete_ms_integrity_on", on);
  off_lat.emit(meta, "delete_integrity_off");
  on_lat.emit(meta, "delete_integrity_on");

  const std::size_t bulk_n = std::min<std::size_t>(max_n(), 65'536);
  std::printf("\nbulk deletion (erase_items, n = %zu), wall time per batch:\n",
              bulk_n);
  std::printf("%8s %18s %18s %10s\n", "m", "integrity off ms",
              "integrity on ms", "overhead");
  for (std::size_t m : {16ull, 256ull}) {
    if (m > bulk_n / 2) break;
    LatencyRecorder bulk_off_lat;
    LatencyRecorder bulk_on_lat;
    const double bulk_off = bulk_deletes_ms(false, bulk_n, m, bulk_off_lat);
    const double bulk_on = bulk_deletes_ms(true, bulk_n, m, bulk_on_lat);
    std::printf("%8zu %18.4f %18.4f %9.1f%%\n", m, bulk_off, bulk_on,
                100.0 * (bulk_on - bulk_off) / bulk_off);
    for (const bool on : {false, true}) {
      auto& row = json.row();
      row.set("n", bulk_n)
          .set("bulk_m", m)
          .set("integrity", on ? "on" : "off")
          .set("bulk_delete_ms", on ? bulk_on : bulk_off);
      (on ? bulk_on_lat : bulk_off_lat).emit(row, "bulk_delete");
    }
  }

  std::printf("\naudit proof size and verification vs n:\n");
  std::printf("%12s %16s %18s %20s\n", "n", "proof bytes", "verify us",
              "tracked delete ms");
  for (std::size_t sweep_n : {1'000ull, 10'000ull, 100'000ull}) {
    if (sweep_n > max_n()) break;
    Stack stack;  // integrity disabled in Stack; use a dedicated server
    fgad::cloud::CloudServer server{
        fgad::cloud::CloudServer::Options{false, true}};
    fgad::net::DirectChannel ch(
        [&server](fgad::BytesView req) { return server.handle(req); });
    fgad::net::CountingChannel counting(ch);
    fgad::crypto::DeterministicRandom rnd(sweep_n);
    fgad::client::Client client(counting, rnd,
                                fgad::client::Client::Options{});
    auto fh = client.outsource(1, sweep_n, small_item);
    if (!fh) return 1;

    fgad::integrity::Auditor auditor(counting, fgad::crypto::HashAlg::kSha1,
                                     1);
    {
      const auto* file = server.file(1);
      std::vector<std::pair<std::uint64_t, BytesView>> items;
      std::vector<const fgad::Bytes*> keep;
      for (std::uint64_t i = 0; i < sweep_n; ++i) {
        keep.push_back(
            &file->items().at(*file->items().find(i)).ciphertext);
        items.emplace_back(i, BytesView(*keep.back()));
      }
      auditor.init_from_items(items);
    }

    // Proof size: one single-item audit through the counting channel.
    counting.reset();
    const std::uint64_t ids[] = {sweep_n / 2};
    fgad::Stopwatch sw;
    if (!auditor.audit_items(ids)) return 1;
    const double verify_us = sw.elapsed_ms() * 1e3;
    const double proof_bytes = static_cast<double>(counting.total_bytes()) -
                               static_cast<double>(
                                   client.codec().sealed_size(16));

    // Tracked (verified) deletion: auditor pre-verification + the deletion.
    fgad::Stopwatch dsw;
    LatencyRecorder dlat;
    const std::size_t dreps = 50;
    for (std::size_t i = 0; i < dreps; ++i) {
      LatencyRecorder::Timed t(dlat);
      const std::uint64_t id = i * 7 + 1;
      if (!auditor.before_delete(id)) return 1;
      if (!client.erase_item(fh.value(), fgad::proto::ItemRef::id(id))) {
        return 1;
      }
    }
    std::printf("%12zu %16.0f %18.2f %20.4f\n", static_cast<std::size_t>(sweep_n),
                proof_bytes, verify_us, dsw.elapsed_ms() / dreps);
    auto& row = json.row();
    row.set("n", static_cast<std::size_t>(sweep_n))
        .set("proof_bytes", proof_bytes)
        .set("verify_us", verify_us)
        .set("tracked_delete_ms", dsw.elapsed_ms() / dreps);
    dlat.emit(row, "tracked_delete");
  }
  std::printf("\nexpected: proof bytes and times grow logarithmically; the "
              "hash-tree maintenance adds only a small constant factor to "
              "deletion.\n");
  return 0;
}
