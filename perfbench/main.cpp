// dlfs_perfbench — the repository's benchmark program.
//
//   dlfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR]
//
// A run repeats *rounds* of one workload until S seconds of host time
// have passed (at least two rounds). A round builds a fresh cluster and
// dataset from the seed, mounts DLFS, runs any warm-up epochs (that is
// set-up), then runs the measured epochs. Every round of a run uses the
// same seed, so every virtual-time metric must repeat exactly across
// rounds; host-time metrics are reported as the median over rounds.
//
// Correctness oracle, checked on every epoch of every round: each sample
// is delivered exactly once across the clients, each client receives
// its share in the order the seed defines, every delivered byte matches
// Dataset::fill_content (zero-copy views are checked before their lease
// is released), and the reader tally equals the instances' own
// InstanceStats counters. Any violation makes the run exit non-zero.
//
// Layers are measured only from outside: spans around calls into public
// functions, and before/after deltas of public counters. With --trace 1
// the run alternates untraced and traced rounds, records spans and
// epoch-boundary counter snapshots in memory, writes them under --out
// when the run ends, and prints the per-layer table; the tracing
// overhead is the difference in host_s between the two kinds of round.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A metric a workload does not exercise is null in the
// report file and the printed tables; the last line carries 0 for it.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = dlfs::core;
using dlsim::SimDuration;
using dlsim::SimTime;
using dlsim::Task;

[[noreturn]] void die(const std::string& msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stderr);
  // Exit without unwinding: a failed round may leave simulated coroutine
  // frames that reference objects already torn down.
  std::_Exit(1);
}

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- tracing ----------------------------------------------------------------

struct Span {
  const char* name = "";
  SimTime v0 = 0, v1 = 0;
  double h0 = 0, h1 = 0;
  std::int32_t parent = -1;
  std::int32_t epoch = -1;
  std::int32_t client = -1;
};

/// In-memory span recorder. Disabled, open() records nothing and returns
/// -1, so an untraced round pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  std::int32_t open(const char* name, SimTime v, std::int32_t parent,
                    std::int32_t epoch, std::int32_t client) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.v0 = v;
    s.h0 = host_now();
    s.parent = parent;
    s.epoch = epoch;
    s.client = client;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id, SimTime v) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].v1 = v;
    spans_[static_cast<std::size_t>(id)].h1 = host_now();
  }
  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- one round --------------------------------------------------------------

struct ClientLog {
  std::vector<std::uint32_t> order;
  std::uint64_t bytes = 0;
  std::vector<std::uint32_t> corrupt;  // ids delivered with wrong bytes
  std::uint64_t skipped = 0;
};

struct RoundResult {
  bool traced = false;
  // Virtual time.
  SimDuration epochs_virtual = 0;
  std::uint64_t samples = 0;
  std::uint64_t bytes = 0;
  std::uint32_t max_sample_bytes = 0;
  std::vector<SimDuration> waits;
  SimDuration mount_virtual = 0;
  std::optional<SimDuration> repair_drain;
  SimDuration client_cpu_ns = 0;
  std::uint64_t acquired_units = 0;  // expected prefetch acquisitions
  std::uint64_t prefetch_accounted = 0;  // resident_at_pick + stalled
  std::uint64_t order_digest = 0;
  // Oracle.
  std::uint64_t scheduled = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  // Host time.
  double setup_s = 0, host_s = 0, mount_host_s = 0;
  // Layers over the measured phase, and per epoch (traced rounds only).
  std::vector<Metric> layers;
  std::vector<std::vector<Metric>> epoch_layers;
  std::vector<Span> spans;
};

std::uint64_t epoch_seed(std::uint64_t seed, std::uint32_t epoch) {
  return dlfs::hash_combine(seed, epoch + 1);
}

class Round {
 public:
  Round(const Workload& w, std::uint64_t seed, bool traced)
      : w_(w), seed_(seed), tracer_(traced) {}

  RoundResult run() {
    r_.traced = tracer_.on();
    const double h_start = host_now();
    rig_ = std::make_unique<Rig>(w_, seed_);
    auto& sim = rig_->sim;

    const double h_mount = host_now();
    const auto ms = tracer_.open("mount", sim.now(), -1, -1, -1);
    const SimTime v_mount = sim.now();
    rig_->fleet.mount();
    r_.mount_virtual = sim.now() - v_mount;
    tracer_.close(ms, sim.now());
    r_.mount_host_s = host_now() - h_mount;

    std::vector<Counters> snaps;
    std::uint32_t e = 0;
    for (; e < w_.warmup_epochs; ++e) {
      if (tracer_.on()) snaps.push_back(snapshot(*rig_));
      run_epoch(e, /*measured=*/false);
    }
    if (w_.crash) arm_crash();
    r_.setup_s = host_now() - h_start;

    const double h_measure = host_now();

    const Counters before = snapshot(*rig_);
    for (std::uint32_t i = 0; i < w_.measured_epochs; ++i, ++e) {
      if (tracer_.on()) snaps.push_back(snapshot(*rig_));
      run_epoch(e, /*measured=*/true);
    }
    if (w_.crash) finish_repair();
    const Counters after = snapshot(*rig_);
    r_.host_s = host_now() - h_measure;

    if (tracer_.on()) snaps.push_back(after);

    r_.samples = after.samples_delivered - before.samples_delivered;
    r_.bytes = after.bytes_delivered - before.bytes_delivered;
    r_.max_sample_bytes = rig_->ds.max_sample_bytes();
    r_.client_cpu_ns = (after.io_busy_ns - before.io_busy_ns) +
                       (after.copy_busy_ns - before.copy_busy_ns);
    r_.prefetch_accounted =
        (after.prefetch.units_resident_at_pick -
         before.prefetch.units_resident_at_pick) +
        (after.prefetch.units_stalled - before.prefetch.units_stalled);
    r_.layers = layer_metrics(w_, *rig_, before, after, r_.host_s);
    for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
      r_.epoch_layers.push_back(
          layer_metrics(w_, *rig_, snaps[i], snaps[i + 1], 0.0));
    }
    r_.spans = tracer_.take();
    // The rig's coroutines may still be parked (a crashed node is probed
    // forever); the simulator destroys their frames with the rig.
    rig_.reset();
    return std::move(r_);
  }

 private:
  void violation(std::string msg) {
    if (r_.violations.size() < 20) r_.violations.push_back(std::move(msg));
  }

  static bool same_bytes(const dlfs::dataset::Dataset& ds, std::uint32_t id,
                         std::uint64_t offset, std::span<const std::byte> got,
                         std::vector<std::byte>& want) {
    want.resize(got.size());
    ds.fill_content(id, offset, want);
    return std::memcmp(want.data(), got.data(), got.size()) == 0;
  }

  /// One trainer: a closed loop of bread (or bread_views) calls over this
  /// client's share of the epoch, each followed by a byte check and the
  /// workload's fixed compute step. `log` lives in run_epoch(), which
  /// steps the simulator until every trainer process has finished.
  // DLFSLINT-ALLOW: CL001
  Task<void> trainer(std::uint32_t c, std::uint32_t epoch, bool measured,
                     std::int32_t parent, ClientLog& log) {
    auto& sim = rig_->sim;
    auto& inst = rig_->fleet.instance(c);
    const auto& ds = rig_->ds;
    const auto ep = static_cast<std::int32_t>(epoch);
    const auto ci = static_cast<std::int32_t>(c);
    std::vector<std::byte> arena(w_.batch * ds.max_sample_bytes());
    std::vector<std::byte> want;
    core::ViewLease held;  // zero-copy: previous batch stays pinned
    std::uint64_t batches = 0;
    for (;;) {
      const SimTime t0 = sim.now();
      const auto bs =
          tracer_.open(w_.zero_copy ? "bread_views" : "bread", t0, parent,
                       ep, ci);
      if (w_.zero_copy) {
        core::ViewBatch vb = co_await inst.bread_views(w_.batch);
        tracer_.close(bs, sim.now());
        if (vb.end_of_epoch) break;
        if (measured) r_.waits.push_back(sim.now() - t0);
        log.skipped += vb.samples_skipped;
        const auto vs = tracer_.open("verify", sim.now(), parent, ep, ci);
        for (const auto& s : vb.samples) {
          log.order.push_back(s.sample_id);
          log.bytes += s.len;
          std::uint64_t off = 0;
          bool ok = s.sample_id < ds.num_samples() &&
                    s.len == ds.sample(s.sample_id).size;
          for (const auto& piece : s.pieces) {
            if (!ok) break;
            ok = off + piece.size() <= s.len &&
                 same_bytes(ds, s.sample_id, off, piece, want);
            off += piece.size();
          }
          if (!ok || off != s.len) log.corrupt.push_back(s.sample_id);
        }
        tracer_.close(vs, sim.now());
        held = core::ViewLease(inst, std::move(vb));
      } else {
        core::Batch b = co_await inst.bread(w_.batch, arena);
        tracer_.close(bs, sim.now());
        if (b.end_of_epoch) break;
        if (measured) r_.waits.push_back(sim.now() - t0);
        log.skipped += b.samples_skipped;
        const auto vs = tracer_.open("verify", sim.now(), parent, ep, ci);
        for (const auto& s : b.samples) {
          log.order.push_back(s.sample_id);
          log.bytes += s.len;
          const bool ok =
              s.sample_id < ds.num_samples() &&
              s.len == ds.sample(s.sample_id).size &&
              std::size_t{s.offset_in_arena} + s.len <= arena.size() &&
              same_bytes(ds, s.sample_id, 0,
                         std::span<const std::byte>(
                             arena.data() + s.offset_in_arena, s.len),
                         want);
          if (!ok) log.corrupt.push_back(s.sample_id);
        }
        tracer_.close(vs, sim.now());
      }
      ++batches;
      if (crash_armed_ && measured && c == 0 && batches == crash_batch_) {
        crash_armed_ = false;
        rig_->fleet.target(crash_slot_)->crash();
        crash_at_ = sim.now();
        sim.spawn(drain_monitor(), "perfbench-drain-monitor");
      }
      if (w_.compute > 0) {
        const auto cs = tracer_.open("compute", sim.now(), parent, ep, ci);
        co_await sim.delay(w_.compute);
        tracer_.close(cs, sim.now());
      }
    }
  }

  /// Crash point: a seed-chosen storage slot after a seed-chosen batch in
  /// 10-40 % of client 0's first measured epoch.
  void arm_crash() {
    dlfs::Rng rng(dlfs::hash_combine(seed_, 0xc4a5));
    const std::uint64_t per_epoch =
        (w_.samples / w_.clients.size() + w_.batch - 1) / w_.batch;
    crash_slot_ = static_cast<std::uint32_t>(rng.next_below(w_.storage.size()));
    crash_batch_ = per_epoch / 10 + rng.next_below(per_epoch * 3 / 10);
    crash_armed_ = true;
  }

  /// Virtual time from the crash to an empty repair backlog, polled
  /// every millisecond once the node has been declared dead.
  Task<void> drain_monitor() {
    auto& sim = rig_->sim;
    while (rig_->fleet.num_declared_dead() == 0) co_await sim.delay(1_ms);
    while (!rig_->fleet.repair_backlog().empty()) co_await sim.delay(1_ms);
    r_.repair_drain = sim.now() - crash_at_;
  }

  void finish_repair() {
    if (crash_armed_) {
      violation("the crash point was never reached");
      return;
    }
    step_until([&] { return r_.repair_drain.has_value(); },
               rig_->sim.now() + 60'000'000'000ull, "repair drain");
  }

  void step_until(const std::function<bool()>& done, SimTime deadline,
                  const char* what) {
    auto& sim = rig_->sim;
    while (!done()) {
      if (!sim.step()) {
        die(std::string(what) + ": simulation ran out of events at t=" +
            std::to_string(sim.now()) + "ns");
      }
      if (sim.now() > deadline) {
        die(std::string(what) + ": not finished by t=" +
            std::to_string(deadline) + "ns");
      }
    }
  }

  void run_epoch(std::uint32_t e, bool measured) {
    auto& sim = rig_->sim;
    auto& fleet = rig_->fleet;
    const std::uint32_t n_clients = fleet.num_clients();
    const std::uint64_t es = epoch_seed(seed_, e);
    const auto ep = static_cast<std::int32_t>(e);
    const auto span =
        tracer_.open(measured ? "epoch" : "warmup_epoch", sim.now(), -1, ep,
                     -1);
    std::vector<ClientLog> logs(n_clients);
    std::vector<core::InstanceStats> before;
    for (std::uint32_t c = 0; c < n_clients; ++c) {
      const auto ss = tracer_.open("sequence", sim.now(), span, ep,
                                   static_cast<std::int32_t>(c));
      fleet.instance(c).sequence(es);
      tracer_.close(ss, sim.now());
      before.push_back(fleet.instance(c).stats());
    }
    const SimTime t0 = sim.now();
    std::vector<dlsim::Process> procs;
    for (std::uint32_t c = 0; c < n_clients; ++c) {
      procs.push_back(sim.spawn(trainer(c, e, measured, span, logs[c]),
                                "perfbench-trainer"));
    }
    step_until(
        [&] {
          return std::all_of(procs.begin(), procs.end(),
                             [](const dlsim::Process& p) { return p.done(); });
        },
        t0 + 600'000'000'000ull, "epoch");
    for (const auto& p : procs) {
      try {
        p.rethrow();
      } catch (const std::exception& ex) {
        die(std::string("trainer failed: ") + ex.what());
      }
    }
    if (measured) r_.epochs_virtual += sim.now() - t0;
    tracer_.close(span, sim.now());
    check_epoch(e, es, logs, before, measured);
  }

  void check_epoch(std::uint32_t e, std::uint64_t es,
                   const std::vector<ClientLog>& logs,
                   const std::vector<core::InstanceStats>& before,
                   bool measured) {
    auto& fleet = rig_->fleet;
    const std::size_t n = rig_->ds.num_samples();
    const std::string at = "epoch " + std::to_string(e) + ": ";
    std::vector<std::uint32_t> count(n, 0);
    std::vector<std::uint8_t> bad(n, 0);
    for (std::uint32_t c = 0; c < logs.size(); ++c) {
      const ClientLog& log = logs[c];
      for (const std::uint32_t id : log.order) {
        if (id < n) {
          ++count[id];
        } else {
          violation(at + "sample id " + std::to_string(id) + " out of range");
        }
        r_.order_digest = dlfs::hash_combine(r_.order_digest, id);
      }
      for (const std::uint32_t id : log.corrupt) {
        if (id < n) bad[id] = 1;
      }
      // The seed defines each client's share and its order.
      core::EpochSequence seq(fleet.plan(), es, c,
                              static_cast<std::uint32_t>(logs.size()));
      std::vector<std::uint32_t> expected;
      for (const auto& pk : seq.take(seq.remaining_samples())) {
        for (std::uint32_t i = 0; i < pk.count; ++i) {
          expected.push_back(pk.unit->samples[pk.first_sample + i].sample_id);
        }
      }
      if (expected != log.order) {
        violation(at + "client " + std::to_string(c) +
                  " did not receive the seed's order (" +
                  std::to_string(log.order.size()) + " delivered, " +
                  std::to_string(expected.size()) + " expected)");
      }
      if (measured) {
        const auto group = w_.cfg.batching == core::BatchingMode::kChunkLevel
                               ? 1u
                               : w_.cfg.prefetch.group_samples;
        r_.acquired_units += (seq.my_units() + group - 1) / group;
      }
      const core::InstanceStats after = fleet.instance(c).stats();
      if (after.samples_delivered - before[c].samples_delivered !=
              log.order.size() ||
          after.bytes_delivered - before[c].bytes_delivered != log.bytes ||
          after.samples_skipped - before[c].samples_skipped != log.skipped) {
        violation(at + "client " + std::to_string(c) +
                  " InstanceStats disagree with the reader tally");
      }
    }
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (count[i] != 1 || bad[i] != 0) ++failed;
    }
    r_.scheduled += n;
    r_.failed += failed;
    if (failed > 0) {
      violation(at + std::to_string(failed) +
                " samples not delivered exactly once with correct bytes");
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  Tracer tracer_;
  RoundResult r_;
  std::unique_ptr<Rig> rig_;
  bool crash_armed_ = false;
  std::uint32_t crash_slot_ = 0;
  std::uint64_t crash_batch_ = 0;
  SimTime crash_at_ = 0;
};

// --- end-to-end metrics -----------------------------------------------------

struct Percentile {
  double us = 0;
  std::size_t beyond = 0;  // waits ranked after it
};

Percentile percentile(std::vector<SimDuration> v, double q) {
  Percentile p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  p.us = static_cast<double>(v[idx]) / 1e3;
  p.beyond = v.size() - idx - 1;
  return p;
}

/// The virtual-time end-to-end metrics of one round.
std::vector<Metric> virtual_metrics(const Workload& w, const RoundResult& r) {
  std::vector<Metric> m;
  const double samples = static_cast<double>(r.samples);
  const auto p50 = percentile(r.waits, 0.50);
  const auto p99 = percentile(r.waits, 0.99);
  const std::string base = "base: " + std::to_string(r.waits.size()) +
                           " batches";
  m.push_back(measured("samples_per_s", "samples/s",
                       samples / dlsim::to_seconds(r.epochs_virtual),
                       "mean sample size " + std::to_string(w.sample_bytes) +
                           " B"));
  m.push_back(measured("batch_wait_p50_us", "us", p50.us, base));
  m.push_back(measured("batch_wait_p99_us", "us", p99.us,
                       base + ", " + std::to_string(p99.beyond) +
                           " beyond p99"));
  m.push_back(measured("client_cpu_ns_per_sample", "ns",
                       static_cast<double>(r.client_cpu_ns) / samples));
  m.push_back(measured("mount_ms", "ms", dlsim::to_millis(r.mount_virtual)));
  if (r.repair_drain) {
    m.push_back(measured("repair_drain_ms", "ms",
                         dlsim::to_millis(*r.repair_drain)));
  } else {
    m.push_back(unmeasured("repair_drain_ms", "ms",
                           w.crash ? "repair never drained"
                                   : "no storage node fails"));
  }
  m.push_back(measured("failed_frac", "fraction",
                       ratio(static_cast<double>(r.failed),
                             static_cast<double>(r.scheduled)),
                       "base: " + std::to_string(r.scheduled) +
                           " samples scheduled"));
  return m;
}

/// Everything that must repeat exactly when the seed repeats.
std::string virtual_signature(const Workload& w, const RoundResult& r) {
  std::ostringstream s;
  for (const auto& m : virtual_metrics(w, r)) {
    s << m.name << '=' << (m.value ? num(*m.value) : "null") << ';';
  }
  for (const auto& m : r.layers) {
    if (m.name == "sim.host_ns_per_event") continue;  // host clock
    s << m.name << '=' << (m.value ? num(*m.value) : "null") << ';';
  }
  s << "order=" << r.order_digest;
  return s.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- output -----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o + "\"";
}

std::string metric_json(const Metric& m) {
  std::string o = "{\"value\": " + (m.value ? num(*m.value) : "null") +
                  ", \"unit\": " + json_str(m.unit);
  if (!m.note.empty()) {
    o += std::string(", \"") + (m.value ? "note" : "reason") +
         "\": " + json_str(m.note);
  }
  return o + "}";
}

std::string metrics_json(const std::vector<Metric>& ms, bool full) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    o += (i ? ", " : "") + json_str(m.name) + ": ";
    if (full) {
      o += metric_json(m);
    } else {
      o += "{\"value\": " + num(m.value.value_or(0.0)) +
           ", \"unit\": " + json_str(m.unit) + "}";
    }
  }
  return o + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const auto& m : ms) {
    if (m.value) {
      std::printf("  %-42s %16.6g %-14s %s\n", m.name.c_str(), *m.value,
                  m.unit.c_str(), m.note.c_str());
    } else {
      std::printf("  %-42s %16s %-14s (%s)\n", m.name.c_str(), "null",
                  m.unit.c_str(), m.note.c_str());
    }
  }
}

const Metric* find(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double value_of(const std::vector<Metric>& ms, const std::string& name) {
  const Metric* m = find(ms, name);
  return m && m->value ? *m->value : 0.0;
}

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// Telemetry conservation: the parts must account for the whole.
std::vector<Check> conservation(const Workload& w, const RoundResult& r) {
  std::vector<Check> out;
  const auto& L = r.layers;
  const double delivered = static_cast<double>(r.bytes);
  const double nvme = value_of(L, "hw.nvme.bytes_read");
  const double peer = value_of(L, "dlfs.peer_cache.bytes");
  // Cache hits are counted per sample, not per byte: with size jitter the
  // check allows each hit the largest sample size.
  const double hits = value_of(L, "dlfs.sample_cache.hits");
  const double cached = hits * r.max_sample_bytes;
  const double supply = nvme + peer + cached;
  const double over = supply - delivered;
  const double repair = value_of(L, "dlfs.repair.repair_bytes");
  out.push_back(Check{
      "delivered bytes = nvme read + peer served + cache hits - over-read",
      over >= 0,
      "delivered " + num(delivered) + " B; nvme " + num(nvme) + " + peer " +
          num(peer) + " + " + num(hits) + " cache hits x at most " +
          std::to_string(r.max_sample_bytes) + " B = " + num(supply) +
          " B; over-read " + num(over) + " B = " +
          num(ratio(over, delivered)) + " of delivered, of which " +
          num(repair) + " B are repair reads; read amplification " +
          num(value_of(L, "hw.nvme.read_amplification"))});
  if (w.cfg.peer_cache.enabled && w.size_jitter == 0) {
    const double hits = value_of(L, "dlfs.peer_cache.hits_local") +
                        value_of(L, "dlfs.peer_cache.hits_remote");
    out.push_back(Check{"peer_cache.bytes = peer hits x sample size",
                        peer == hits * w.sample_bytes,
                        num(peer) + " B vs " + num(hits) + " hits x " +
                            std::to_string(w.sample_bytes) + " B"});
  }
  out.push_back(Check{
      "prefetch resident_at_pick + units_stalled = units acquired",
      r.prefetch_accounted == r.acquired_units,
      std::to_string(r.prefetch_accounted) + " accounted vs " +
          std::to_string(r.acquired_units) +
          " units the seed's order makes the clients consume; the "
          "difference went through neither counter"});
  return out;
}

void write_report(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  if (!f) die("cannot write " + path);
}

/// Prints the conservation checks; returns them as a JSON array.
std::string print_checks(const std::vector<Check>& checks) {
  std::printf("\nconservation checks\n");
  std::string json = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto& c = checks[i];
    std::printf("  %s %s\n      %s\n", c.pass ? "PASS" : "FAIL",
                c.name.c_str(), c.detail.c_str());
    json += std::string(i ? ", " : "") + "{\"name\": " + json_str(c.name) +
            ", \"pass\": " + (c.pass ? "true" : "false") +
            ", \"detail\": " + json_str(c.detail) + "}";
  }
  return json + "]";
}

/// Per span name: count, virtual time, host time and host self time.
/// Self time is a span's duration minus the part its children cover.
/// Host time is exclusive only for spans that never suspend (the
/// simulator runs other clients while a bread or compute span is open),
/// so only those are subtracted from their parent and given a self time.
void print_span_summary(const std::vector<Span>& spans) {
  auto exclusive = [](const Span& s) {
    return std::strcmp(s.name, "bread") != 0 &&
           std::strcmp(s.name, "bread_views") != 0 &&
           std::strcmp(s.name, "compute") != 0;
  };
  struct Agg {
    std::uint64_t n = 0;
    double virt_ms = 0, host_ms = 0, self_host_ms = 0;
    bool exclusive = true;
  };
  std::map<std::string, Agg> agg;
  std::vector<double> child_host(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0 && exclusive(s)) {
      child_host[static_cast<std::size_t>(s.parent)] += s.h1 - s.h0;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    Agg& a = agg[s.name];
    ++a.n;
    a.exclusive = exclusive(s);
    a.virt_ms += static_cast<double>(s.v1 - s.v0) / 1e6;
    a.host_ms += (s.h1 - s.h0) * 1e3;
    a.self_host_ms += (s.h1 - s.h0 - child_host[i]) * 1e3;
  }
  std::printf("\nspans (one traced round; host time of suspending spans "
              "overlaps other clients)\n  %-14s %8s %14s %12s %14s\n",
              "span", "count", "virtual_ms", "host_ms", "self_host_ms");
  for (const auto& [name, a] : agg) {
    std::printf("  %-14s %8" PRIu64 " %14.3f %12.3f ", name.c_str(), a.n,
                a.virt_ms, a.host_ms);
    if (a.exclusive) {
      std::printf("%14.3f\n", a.self_host_ms);
    } else {
      std::printf("%14s\n", "-");
    }
  }
}

/// The spans and epoch-boundary layer snapshots of one traced round.
std::string spans_json(const Workload& w, std::uint64_t seed,
                       const RoundResult& r) {
  std::ostringstream t;
  t << "{\"workload\": " << json_str(w.name) << ", \"seed\": " << seed
    << ",\n \"spans\": [\n";
  const double h0 = r.spans.empty() ? 0.0 : r.spans[0].h0;
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const auto& s = r.spans[i];
    t << (i ? ",\n" : "") << "  {\"name\": \"" << s.name
      << "\", \"v0_ns\": " << s.v0 << ", \"v1_ns\": " << s.v1
      << ", \"h0_us\": " << num((s.h0 - h0) * 1e6)
      << ", \"h1_us\": " << num((s.h1 - h0) * 1e6)
      << ", \"parent\": " << s.parent << ", \"epoch\": " << s.epoch
      << ", \"client\": " << s.client << "}";
  }
  t << "],\n \"epochs\": [\n";
  for (std::size_t i = 0; i < r.epoch_layers.size(); ++i) {
    t << (i ? ",\n" : "") << "  " << metrics_json(r.epoch_layers[i], true);
  }
  t << "]}\n";
  return t.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

Args parse(int argc, char** argv) try {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      die("unknown argument " + k);
    }
  }
  if (!have_workload) die("--workload is required");
  return a;
} catch (const std::logic_error& e) {
  die(std::string("bad argument: ") + e.what());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double h_start = host_now();
  // Keep freed memory in the process: rounds after the first then reuse
  // pages that are already mapped instead of faulting them in again, which
  // steadies their host time.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
  const Args args = parse(argc, argv);
  const auto wl = make_workload(args.workload);
  if (!wl) die("unknown workload '" + args.workload + "'");
  const Workload& w = *wl;

  std::printf("workload %s seed %" PRIu64 " trace %d: %u nodes, %zu clients, "
              "%zu storage, %zu x %u B samples, batch %zu, %u warm-up + %u "
              "measured epochs\n",
              w.name.c_str(), args.seed, args.trace ? 1 : 0, w.num_nodes,
              w.clients.size(), w.storage.size(), w.samples, w.sample_bytes,
              w.batch, w.warmup_epochs, w.measured_epochs);

  // Rounds until the time budget is spent; at least two of each kind so
  // the determinism check always has a pair to compare.
  std::vector<RoundResult> rounds;
  double rss_mib = 0.0;
  const int min_rounds = args.trace ? 4 : 2;
  while (static_cast<int>(rounds.size()) < min_rounds ||
         host_now() - h_start < args.seconds) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(Round(w, args.seed, traced).run());
    // Later rounds reuse freed heap unevenly, so the peak of the first
    // round is the one that repeats.
    if (rounds.size() == 1) rss_mib = peak_rss_mib();
    const RoundResult& r = rounds.back();
    std::printf("round %zu%s: setup %.3f s, measured %.3f s host, %" PRIu64
                " samples\n",
                rounds.size(), traced ? " (traced)" : "", r.setup_s, r.host_s,
                r.samples);
  }

  // Oracle: delivery checks of every round, then determinism.
  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    attempted += r.scheduled;
    failed += r.failed;
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
  }
  const std::string sig = virtual_signature(w, rounds.front());
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    if (virtual_signature(w, rounds[i]) != sig) {
      violations.push_back("round " + std::to_string(i + 1) +
                           " did not repeat round 1's virtual-time metrics");
    }
  }
  const RoundResult& first = rounds.front();
  const auto p99 = percentile(first.waits, 0.99);
  if (p99.beyond < 10) {
    violations.push_back("only " + std::to_string(p99.beyond) +
                         " batch waits beyond p99 (need 10)");
  }
  if (w.crash && !first.repair_drain) {
    violations.push_back("the repair backlog never drained");
  }

  auto host_median = [&](bool traced, auto field) {
    std::vector<double> v;
    for (const auto& r : rounds) {
      if (r.traced == traced) v.push_back(field(r));
    }
    return median(v);
  };
  std::vector<Metric> e2e = virtual_metrics(w, first);
  e2e.push_back(measured("setup_s", "s",
                         host_median(false, [](const RoundResult& r) {
                           return r.setup_s;
                         }),
                         "median of untraced rounds"));
  e2e.push_back(measured("host_s", "s",
                         host_median(false, [](const RoundResult& r) {
                           return r.host_s;
                         }),
                         "median of untraced rounds"));
  e2e.push_back(measured("peak_rss_mb", "MiB", rss_mib,
                         "peak resident set after the first round"));
  print_table("end-to-end metrics", e2e);

  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + w.name + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  std::string report = "{\"workload\": " + json_str(w.name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"rounds\": " + std::to_string(rounds.size()) +
                       ", \"end_to_end\": " + metrics_json(e2e, true);

  // The end-to-end metrics the last line carries, as BENCHMARK.json
  // lists them. The others stay in the report: mount_ms and
  // batch_wait_p50_us repeat exactly across seeds on some workloads
  // (fixed sizes, or a median batch that is a fixed CPU cost),
  // failed_frac is 0 on a correct run, repair_drain_ms exists on one
  // workload, and host_s swings by more than any usable bound between
  // runs on a shared machine (the traced run lists it as sim.host_s).
  static const std::vector<std::string> contract_e2e = {
      "samples_per_s", "batch_wait_p99_us", "client_cpu_ns_per_sample",
      "setup_s", "peak_rss_mb"};
  std::vector<Metric> line;

  if (args.trace) {
    const RoundResult* traced = nullptr;
    for (const auto& r : rounds) {
      if (r.traced) traced = &r;
    }
    const double h_traced = host_median(true, [](const RoundResult& r) {
      return r.host_s;
    });
    const double h_plain = host_median(false, [](const RoundResult& r) {
      return r.host_s;
    });
    std::vector<Metric> layers = {
        measured("sim.host_s", "s", h_plain, "median of untraced rounds"),
        measured("cluster.mount_host_s", "s",
                 host_median(true, [](const RoundResult& r) {
                   return r.mount_host_s;
                 }),
                 "median of traced rounds")};
    for (Metric m : traced->layers) {
      if (m.name == "sim.host_ns_per_event") {
        m.value = host_median(true, [](const RoundResult& r) {
          return value_of(r.layers, "sim.host_ns_per_event");
        });
        m.note = "median of traced rounds";
      }
      layers.push_back(std::move(m));
    }
    layers.push_back(measured("trace.overhead_frac", "fraction",
                              ratio(h_traced - h_plain, h_plain),
                              "traced host_s " + num(h_traced) +
                                  " s vs untraced " + num(h_plain) + " s"));
    print_table("per-layer metrics (measured epochs)", layers);

    const std::string checks = print_checks(conservation(w, *traced));
    print_span_summary(traced->spans);
    write_report(stem + "-spans.json", spans_json(w, args.seed, *traced));

    report += ",\n \"per_layer\": " + metrics_json(layers, true) +
              ",\n \"conservation\": " + checks;
    line = layers;
  } else {
    for (const auto& name : contract_e2e) line.push_back(*find(e2e, name));
  }

  const bool correct = violations.empty();
  std::string vj = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    vj += (i ? ", " : "") + json_str(violations[i]);
    std::fprintf(stderr, "VIOLATION: %s\n", violations[i].c_str());
  }
  report += ",\n \"correct\": " + std::string(correct ? "true" : "false") +
            ", \"violations\": " + vj + "]}\n";
  write_report(stem + ".json", report);
  std::printf("\noracle: %s (%" PRIu64 " samples scheduled over %zu rounds, "
              "%" PRIu64 " failed); report %s.json\n",
              correct ? "PASS" : "FAIL", attempted, rounds.size(), failed,
              stem.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(line, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
