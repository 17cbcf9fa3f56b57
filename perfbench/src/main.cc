// End-to-end register benchmark over loopback NAD daemons.
//
// One process starts in-process NadServer daemons on loopback ports,
// connects one NadClient (one event loop) to them, and drives one of the
// paper's emulations from closed-loop sessions for a fixed time. It prints
// every metric as "name value unit" and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 the client
// is wrapped in TracedClient and the per-layer metrics are printed instead
// of the end-to-end ones; spans go to <out-dir>/spans-<workload>.jsonl.
//
//   perfbench --workload swmr-read-heavy --seed 1 --seconds 5 --trace 0
//             [--t0-ns <CLOCK_REALTIME ns at spawn>] [--tmp-dir D]
//             [--out-dir D]
//   perfbench --self-test
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/op_options.h"
#include "core/address.h"
#include "core/coded/coded_mwmr.h"
#include "core/coded/rs_code.h"
#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/swmr_atomic.h"
#include "core/swsr_atomic.h"
#include "nad/client.h"
#include "nad/server.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "tracer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using nadreg::BaseRegisterClient;
using nadreg::RegisterId;
using nadreg::Status;

constexpr std::chrono::milliseconds kOpDeadline{5000};
/// Data fragments of coded-64k (n = its daemon count, 4).
constexpr unsigned kCodedK = 2;

enum class Kind { kSwmr, kCoded, kMwmr };

/// Every shape parameter of a workload, pinned.
struct Shape {
  const char* name;
  Kind kind;
  unsigned disks;
  unsigned quorum;
  unsigned regs;            // emulated registers
  std::size_t value_bytes;
  unsigned sessions;
  double read_frac;         // SWMR mixes
  bool journaled;
  unsigned checkpoint_every;  // session 0's own writes per Checkpoint()
  unsigned pairs_per_round;   // mwmr-fig3: WRITE+READ pairs per session
  double read_tail_pct;
  double write_tail_pct;
};

// Tail percentiles: the highest of p99.9/p99/p90 that leaves at least ten
// samples beyond it in one slice (0.5 s, or one mwmr-fig3 round) at the
// operation rate the shape reaches on a 4-core host, except where a
// higher percentile's run-to-run spread exceeded the benchmark's bound
// (perfbench/README.md).
const Shape kShapes[] = {
    {"swmr-read-heavy", Kind::kSwmr, 3, 2, 16, 64, 2, 0.9, false, 0, 0, 90.0,
     90.0},
    {"block-write-journaled", Kind::kSwmr, 3, 2, 16, 4096, 2, 0.1, true, 64, 0,
     99.0, 99.0},
    {"coded-64k", Kind::kCoded, 4, 3, 1, 65536, 2, 0.5, false, 0, 0, 90.0,
     90.0},
    {"mwmr-fig3", Kind::kMwmr, 3, 2, 1, 16, 2, 0.5, false, 0, 75, 90.0, 90.0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  std::int64_t t0_ns = 0;
  std::string tmp_dir = ".";
  std::string out_dir = ".";
  bool self_test = false;
};

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t RealtimeNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_us = 0;
  std::uint64_t ctx_switches = 0;
};

/// Current resident set size of this process.
double ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? static_cast<double>(resident) * sysconf(_SC_PAGESIZE) : 0;
}

Usage GetUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec +
             ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double Median(std::vector<std::int64_t> v) { return Percentile(v, 50); }

/// Median of a small sample (mean of the middle two when even).
double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Length of one slice of the timed window; the end-to-end figures are
/// medians over the slices (mwmr-fig3 uses its rounds as slices).
constexpr std::int64_t kSliceNs = 500'000'000;

// ---------------------------------------------------------------------------
// Cluster: in-process daemons plus one connected client.

class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { StopAll(); }

  Status Start(unsigned disks, std::uint64_t seed,
               const std::vector<std::string>& data_paths) {
    for (unsigned d = 0; d < disks; ++d) {
      nadreg::nad::NadServer::Options opts;
      opts.seed = Mix(seed, d);
      if (!data_paths.empty()) opts.data_path = data_paths[d];
      auto server = nadreg::nad::NadServer::Start(opts);
      if (!server.ok()) return server.status();
      endpoints_[d] = nadreg::nad::Endpoint{"127.0.0.1", (*server)->port()};
      servers_.push_back(std::move(*server));
    }
    nadreg::nad::ClientOptions copts;
    copts.num_event_loops = 1;
    auto client = nadreg::nad::NadClient::Connect(endpoints_, copts);
    if (!client.ok()) return client.status();
    client_ = std::move(*client);
    return Status::Ok();
  }

  void StopAll() {
    client_.reset();
    for (auto& s : servers_) s->Stop();
    servers_.clear();
    endpoints_.clear();
  }

  nadreg::nad::NadClient& client() { return *client_; }
  std::vector<std::unique_ptr<nadreg::nad::NadServer>>& servers() {
    return servers_;
  }

  /// Waits until no base operation has been outstanding for 20 ms (a
  /// follow-up chained from a completion can briefly leave it at 0).
  bool Quiesce(std::chrono::milliseconds limit) {
    const auto until = std::chrono::steady_clock::now() + limit;
    int idle = 0;
    while (std::chrono::steady_clock::now() < until) {
      idle = client_->InFlight() == 0 ? idle + 1 : 0;
      if (idle >= 20) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

 private:
  std::map<nadreg::DiskId, nadreg::nad::Endpoint> endpoints_;
  std::vector<std::unique_ptr<nadreg::nad::NadServer>> servers_;
  std::unique_ptr<nadreg::nad::NadClient> client_;
};

/// Per-run scratch directory for journals, removed on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path p) : path_(std::move(p)) {
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Blocking helpers over the raw client for probes outside the workload.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t left = 0;
  void Done() {
    std::lock_guard lock(mu);
    if (--left == 0) cv.notify_all();
  }
  bool Wait(std::chrono::milliseconds limit) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, limit, [&] { return left == 0; });
  }
};

std::optional<std::vector<std::size_t>> RawReadSizes(
    nadreg::nad::NadClient& client, const std::vector<RegisterId>& regs) {
  // Shared with the handlers: a handler that runs after a timed-out wait
  // must not write into a dead frame.
  auto sizes = std::make_shared<std::vector<std::size_t>>(regs.size(), 0);
  constexpr std::size_t kChunk = 1024;
  for (std::size_t base = 0; base < regs.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, regs.size() - base);
    auto latch = std::make_shared<Latch>();
    latch->left = n;
    std::vector<BaseRegisterClient::ReadOp> ops;
    ops.reserve(n);
    for (std::size_t i = base; i < base + n; ++i) {
      ops.push_back({regs[i], [latch, sizes, i](nadreg::Value v) {
                       (*sizes)[i] = v.size();
                       latch->Done();
                     }});
    }
    client.IssueReads(/*p=*/9000, std::move(ops));
    if (!latch->Wait(std::chrono::seconds(10))) return std::nullopt;
  }
  return *sizes;
}

/// Median of `n` sequential raw writes of `bytes` to one block of disk 0.
double RawRoundtripUs(nadreg::nad::NadClient& client, std::size_t bytes,
                      int n) {
  const RegisterId reg{0, nadreg::core::MakeBlock(
                              1023, nadreg::core::Component::kScratch, 0)};
  const std::string v(bytes, 'x');
  std::vector<std::int64_t> ns;
  for (int i = 0; i < n; ++i) {
    auto latch = std::make_shared<Latch>();
    latch->left = 1;
    const std::int64_t start = NowNs();
    client.IssueWrite(9001, reg, v, [latch] { latch->Done(); });
    if (!latch->Wait(std::chrono::seconds(5))) return 0;
    ns.push_back(NowNs() - start);
  }
  return Median(ns) / 1000.0;
}

// ---------------------------------------------------------------------------
// One run.

struct Session {
  std::vector<Event> events;  // completed operations, for the oracles
  // (end, duration) of every completed operation, ns
  std::vector<std::pair<std::int64_t, std::int64_t>> read_lat;
  std::vector<std::pair<std::int64_t, std::int64_t>> write_lat;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

struct Checkpoints {
  std::mutex mu;
  std::vector<std::int64_t> ns;  // one entry per checkpoint round
  std::uint64_t journal_bytes = 0;
  std::uint64_t writes = 0;
};

struct SliceEdge {
  std::int64_t ns = 0;
  double cpu_us = 0;
  std::uint64_t ops = 0;
};

class Runner {
 public:
  Runner(const Args& args, const Shape& shape) : a_(args), s_(shape) {}

  int Run();

 private:
  struct Timed {
    bool ok;
    std::int64_t start;
    std::int64_t end;
  };
  /// Runs one emulated operation: counts it, times it, and records its op
  /// span in traced mode. `body` returns false when the operation failed.
  template <class F>
  Timed DoOp(Session& out, bool write, F&& body);

  BaseRegisterClient& Api() {
    return tracer_ ? static_cast<BaseRegisterClient&>(*tracer_)
                   : cluster_.client();
  }
  nadreg::OpOptions Opts() const {
    return nadreg::OpOptions::WithDeadline(kOpDeadline);
  }
  std::vector<RegisterId> SwmrRegs(unsigned r) const {
    return nadreg::core::FarmConfig{1}.Spread(
        nadreg::core::MakeBlock(1, nadreg::core::Component::kFixed, r));
  }

  Status Setup();
  void Window(std::int64_t start_ns);
  /// Samples the time, CPU time and completed operations at a slice edge,
  /// and the resident memory of the system under test.
  SliceEdge MarkEdge();
  /// mwmr-fig3: replaces the cluster by fresh, empty daemons between
  /// rounds, carrying the retired daemons' counters over.
  void RestartCluster();
  void SwmrSession(unsigned s, std::int64_t stop_ns);
  void CodedSession(unsigned s, std::int64_t stop_ns);
  void MwmrRound(unsigned round);
  void MaybeCheckpoint();

  void Check(const std::string& verdict) {
    if (!verdict.empty() && error_.empty()) error_ = verdict;
  }
  void CheckAfterWindow();
  void TracedMetrics(double ops_per_s, std::uint64_t ops);
  void RestartReadback();
  void WriteSpans(const std::vector<const OpSpan*>& ops,
                  const std::vector<const PhaseSpan*>& phases,
                  const std::vector<const BaseSpan*>& base);

  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }

  const Args& a_;
  const Shape& s_;
  std::optional<ScratchDir> scratch_;
  std::vector<std::string> data_paths_;
  Cluster cluster_;
  std::unique_ptr<TracedClient> tracer_;
  std::atomic<std::uint64_t> next_op_{1};
  std::atomic<std::uint64_t> completed_{0};

  // SWMR endpoints: one writer per register (owned by session r % S), one
  // reader per (session, register).
  std::vector<std::unique_ptr<nadreg::core::SwsrAtomicWriter>> writers_;
  std::vector<std::vector<std::unique_ptr<nadreg::core::SwmrAtomicReader>>>
      readers_;
  std::vector<std::uint64_t> write_seq_;  // per register, owner-only
  std::vector<ValueId> last_acked_;       // per register, owner-only
  std::uint64_t own_writes_ = 0;          // session 0's writes
  std::atomic<std::uint64_t> writes_done_{0};
  Checkpoints ckpt_;

  std::vector<std::unique_ptr<nadreg::core::CodedMwmr>> coded_;
  std::uint64_t coded_retries_ = 0;
  std::atomic<std::uint64_t> snapshot_collects_{0};

  std::vector<Session> sessions_;
  std::string error_;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics_;

  std::vector<std::pair<SliceEdge, SliceEdge>> slices_;  // one writer thread
  double peak_rss_bytes_ = 0;  // likewise
  // Counters sampled at the window's edges.
  struct Edge {
    Usage usage;
    std::uint64_t allocs = 0;
    std::uint64_t served = 0;
    std::uint64_t serve_count = 0;
    std::uint64_t serve_sum_us = 0;
    std::uint64_t batch_count = 0;
    std::uint64_t batch_sum = 0;
    std::int64_t ns = 0;
  };
  Edge Sample();
  Edge before_, after_;
  Edge retired_;  // daemon counters carried over by RestartCluster
};

template <class F>
Runner::Timed Runner::DoOp(Session& out, bool write, F&& body) {
  ++out.attempted;
  const std::uint64_t id = next_op_.fetch_add(1, std::memory_order_relaxed);
  ScopedOp scope(id);
  const std::int64_t start = NowNs();
  bool ok = false;
  {
    AllowAllocCount count;
    ok = body();
  }
  const std::int64_t end = NowNs();
  if (tracer_) tracer_->RecordOp(OpSpan{id, write, start, end});
  if (!ok) {
    ++out.failed;
  } else {
    (write ? out.write_lat : out.read_lat).emplace_back(end, end - start);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
  return Timed{ok, start, end};
}

Runner::Edge Runner::Sample() {
  Edge e;
  e.usage = GetUsage();
  e.allocs = AllocCount();
  e.served = retired_.served;
  e.serve_count = retired_.serve_count;
  e.serve_sum_us = retired_.serve_sum_us;
  for (const auto& srv : cluster_.servers()) {
    e.served += srv->ServedCount();
    for (const char* h : {"nad.server.read_serve_us",
                          "nad.server.write_serve_us"}) {
      // Registry lookups are non-const; the histograms already exist.
      auto& hist = const_cast<nadreg::obs::Registry&>(srv->metrics())
                       .GetHistogram(h);
      e.serve_count += hist.Count();
      e.serve_sum_us += hist.SumUs();
    }
  }
  auto& batch =
      nadreg::obs::Registry::Global().GetHistogram("nad.client.batch_size");
  e.batch_count = batch.Count();
  e.batch_sum = batch.SumUs();
  e.ns = NowNs();
  return e;
}

Status Runner::Setup() {
  if (s_.journaled) {
    scratch_.emplace(fs::path(a_.tmp_dir) /
                     ("journals-" + std::to_string(::getpid())));
    for (unsigned d = 0; d < s_.disks; ++d) {
      data_paths_.push_back(
          (scratch_->path() / ("disk" + std::to_string(d))).string());
    }
  }
  if (Status st = cluster_.Start(s_.disks, a_.seed, data_paths_); !st.ok()) {
    return st;
  }
  if (a_.trace) {
    tracer_ = std::make_unique<TracedClient>(cluster_.client(), s_.quorum);
  }
  sessions_.resize(s_.sessions);
  // Reserved up front (virtual until written) so the history never
  // reallocates and its resident size is exactly what MarkEdge subtracts.
  constexpr std::size_t kHistoryCap = 1 << 20;
  for (Session& s : sessions_) {
    s.events.reserve(kHistoryCap);
    s.read_lat.reserve(kHistoryCap);
    s.write_lat.reserve(kHistoryCap);
  }
  const nadreg::core::FarmConfig farm{1};

  switch (s_.kind) {
    case Kind::kSwmr: {
      write_seq_.assign(s_.regs, 0);
      last_acked_.resize(s_.regs);
      readers_.resize(s_.sessions);
      for (unsigned r = 0; r < s_.regs; ++r) {
        writers_.push_back(std::make_unique<nadreg::core::SwsrAtomicWriter>(
            Api(), farm, SwmrRegs(r), /*self=*/100 + r));
        for (unsigned s = 0; s < s_.sessions; ++s) {
          readers_[s].push_back(
              std::make_unique<nadreg::core::SwmrAtomicReader>(
                  Api(), farm, SwmrRegs(r), 1000 + s * s_.regs + r));
        }
      }
      // Preload: every register's owner writes its first value.
      for (unsigned r = 0; r < s_.regs; ++r) {
        const ValueId id{r, r % s_.sessions, ++write_seq_[r]};
        const std::int64_t start = NowNs();
        if (Status st = writers_[r]->Write(
                MakeValue(a_.seed, id, s_.value_bytes), Opts());
            !st.ok()) {
          return st;
        }
        sessions_[0].events.push_back(Event{r, true, id, start, NowNs()});
        last_acked_[r] = id;
      }
      break;
    }
    case Kind::kCoded: {
      const nadreg::core::CodedOptions geo{s_.disks, kCodedK};
      for (unsigned s = 0; s <= s_.sessions; ++s) {
        auto ep = nadreg::core::CodedMwmr::Make(Api(), /*object=*/1,
                                                /*self=*/10 + s, geo);
        if (!ep.ok()) return ep.status();
        coded_.push_back(
            std::make_unique<nadreg::core::CodedMwmr>(std::move(*ep)));
      }
      // The last endpoint preloads the register.
      const ValueId id{0, 50, 1};
      const std::int64_t start = NowNs();
      if (Status st = coded_.back()->Write(
              MakeValue(a_.seed, id, s_.value_bytes), Opts());
          !st.ok()) {
        return st;
      }
      sessions_[0].events.push_back(Event{0, true, id, start, NowNs()});
      break;
    }
    case Kind::kMwmr:
      break;  // each round starts on a fresh, empty object
  }
  return Status::Ok();
}

void Runner::MaybeCheckpoint() {
  if (!s_.journaled || ++own_writes_ % s_.checkpoint_every != 0) return;
  std::uint64_t bytes = 0;
  for (const std::string& p : data_paths_) {
    std::error_code ec;
    const auto size = fs::file_size(p + ".log", ec);
    if (!ec) bytes += size;
  }
  const std::uint64_t writes = writes_done_.exchange(0);
  const std::int64_t start = NowNs();
  for (auto& srv : cluster_.servers()) {
    if (Status st = srv->Checkpoint(); !st.ok()) {
      Check("checkpoint failed: " + st.ToString());
    }
  }
  const std::int64_t ns = NowNs() - start;
  std::lock_guard lock(ckpt_.mu);
  ckpt_.ns.push_back(ns);
  ckpt_.journal_bytes += bytes;
  ckpt_.writes += writes;
}

void Runner::SwmrSession(unsigned s, std::int64_t stop_ns) {
  SuppressAllocCount quiet;
  Session& out = sessions_[s];
  std::mt19937_64 rng(Mix(a_.seed, 0x5e55 + s));
  std::uniform_real_distribution<double> coin(0, 1);
  std::vector<unsigned> owned;
  for (unsigned r = s; r < s_.regs; r += s_.sessions) owned.push_back(r);
  while (NowNs() < stop_ns) {
    if (coin(rng) < s_.read_frac) {
      const unsigned r = static_cast<unsigned>(rng() % s_.regs);
      std::string got;
      const Timed t = DoOp(out, false, [&] {
        auto v = readers_[s][r]->Read(Opts());
        if (!v.ok()) return false;
        got = std::move(*v);
        return true;
      });
      if (!t.ok) continue;
      const auto id = ParseValue(a_.seed, got, s_.value_bytes);
      if (!id || id->reg != r) {
        if (out.error.empty()) {
          out.error = "register " + std::to_string(r) +
                      ": read returned bytes no write produced";
        }
        continue;
      }
      out.events.push_back(Event{r, false, *id, t.start, t.end});
    } else {
      const unsigned r = owned[rng() % owned.size()];
      const ValueId id{r, s, ++write_seq_[r]};
      const std::string v = MakeValue(a_.seed, id, s_.value_bytes);
      const Timed t = DoOp(
          out, true, [&] { return writers_[r]->Write(v, Opts()).ok(); });
      if (!t.ok) continue;
      out.events.push_back(Event{r, true, id, t.start, t.end});
      last_acked_[r] = id;
      writes_done_.fetch_add(1, std::memory_order_relaxed);
      if (s == 0) MaybeCheckpoint();
    }
  }
}

void Runner::CodedSession(unsigned s, std::int64_t stop_ns) {
  SuppressAllocCount quiet;
  Session& out = sessions_[s];
  nadreg::core::CodedMwmr& ep = *coded_[s];
  std::uint64_t seq = 0;
  while (NowNs() < stop_ns) {
    const ValueId id{0, s, ++seq};
    const std::string v = MakeValue(a_.seed, id, s_.value_bytes);
    const Timed w = DoOp(out, true, [&] { return ep.Write(v, Opts()).ok(); });
    if (w.ok) out.events.push_back(Event{0, true, id, w.start, w.end});

    std::optional<std::string> got;
    const Timed r = DoOp(out, false, [&] {
      auto res = ep.Read(Opts());
      if (!res.ok()) return false;
      got = std::move(*res);
      return true;
    });
    if (!r.ok) continue;
    std::optional<ValueId> rid =
        got ? ParseValue(a_.seed, *got, s_.value_bytes)
            : std::optional<ValueId>(ValueId{0, kInitialWriter, 0});
    if (!rid || rid->reg != 0) {
      if (out.error.empty()) out.error = "coded read returned a torn value";
      continue;
    }
    out.events.push_back(Event{0, false, *rid, r.start, r.end});
  }
}

void Runner::MwmrRound(unsigned round) {
  const nadreg::core::FarmConfig farm{1};
  const std::uint32_t object = 1 + round;
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < s_.sessions; ++s) {
    threads.emplace_back([this, s, object, &farm] {
      SuppressAllocCount quiet;
      Session& out = sessions_[s];
      std::unique_ptr<nadreg::core::MwmrAtomic> ep;
      {
        AllowAllocCount count;
        ep = std::make_unique<nadreg::core::MwmrAtomic>(Api(), farm, object,
                                                        /*self=*/1 + s);
      }
      for (unsigned i = 0; i < s_.pairs_per_round; ++i) {
        const ValueId id{object, s, i + 1u};
        const std::string v = MakeValue(a_.seed, id, s_.value_bytes);
        const Timed w =
            DoOp(out, true, [&] { return ep->Write(v, Opts()).ok(); });
        if (w.ok) out.events.push_back(Event{object, true, id, w.start, w.end});

        std::optional<std::string> got;
        const Timed r = DoOp(out, false, [&] {
          auto res = ep->Read(Opts());
          if (!res.ok()) return false;
          got = std::move(*res);
          return true;
        });
        if (!r.ok) continue;
        std::optional<ValueId> rid =
            got ? ParseValue(a_.seed, *got, s_.value_bytes)
                : std::optional<ValueId>(ValueId{object, kInitialWriter, 0});
        if (!rid || rid->reg != object) {
          if (out.error.empty()) out.error = "mwmr read returned a torn value";
          continue;
        }
        out.events.push_back(Event{object, false, *rid, r.start, r.end});
      }
      snapshot_collects_ += ep->snapshot_stats().collects;
      AllowAllocCount count;
      ep.reset();
    });
  }
  for (auto& t : threads) t.join();
}

void Runner::Window(std::int64_t start_ns) {
  const std::int64_t stop_ns =
      start_ns + static_cast<std::int64_t>(a_.seconds * 1e9);
  if (s_.kind == Kind::kMwmr) {
    // Fixed-count rounds: per-operation cost grows with the writes an
    // object has seen, so each round starts on a fresh object.
    // Each round is one slice, on fresh daemons.
    for (unsigned round = 0; round == 0 || NowNs() < stop_ns; ++round) {
      if (round > 0) RestartCluster();
      const SliceEdge begin = MarkEdge();
      MwmrRound(round);
      slices_.emplace_back(begin, MarkEdge());
    }
    return;
  }
  // The sampler cuts the window into kSliceNs slices.
  std::thread sampler([this, start_ns, stop_ns] {
    SliceEdge prev = MarkEdge();
    for (std::int64_t at = start_ns + kSliceNs; at <= stop_ns;
         at += kSliceNs) {
      while (NowNs() < at) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::int64_t>(at - NowNs(), 1'000'000)));
      }
      const SliceEdge next = MarkEdge();
      slices_.emplace_back(prev, next);
      prev = next;
    }
  });
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < s_.sessions; ++s) {
    threads.emplace_back([this, s, stop_ns] {
      if (s_.kind == Kind::kSwmr) {
        SwmrSession(s, stop_ns);
      } else {
        CodedSession(s, stop_ns);
      }
    });
  }
  for (auto& t : threads) t.join();
  sampler.join();
}

SliceEdge Runner::MarkEdge() {
  const std::uint64_t ops = completed_.load();
  const SliceEdge edge{NowNs(), GetUsage().cpu_us, ops};
  // Resident memory of the system under test: the process's RSS less the
  // benchmark's own history, one Event and one latency pair per completed
  // operation (so the figure does not grow with throughput).
  const double history =
      static_cast<double>(ops) *
      (sizeof(Event) + sizeof(std::pair<std::int64_t, std::int64_t>));
  peak_rss_bytes_ = std::max(peak_rss_bytes_, ResidentBytes() - history);
  return edge;
}

void Runner::RestartCluster() {
  SuppressAllocCount quiet;  // scaffolding, not the program's operations
  if (!cluster_.Quiesce(std::chrono::seconds(10))) {
    Check("client did not quiesce between rounds");
  }
  retired_ = Sample();
  cluster_.StopAll();
  if (Status st = cluster_.Start(s_.disks, a_.seed, data_paths_); !st.ok()) {
    Check("restart between rounds failed: " + st.ToString());
    return;
  }
  if (tracer_) {
    tracer_->Rebind(cluster_.client());
    tracer_->ClearWritten();
  }
}

void Runner::CheckAfterWindow() {
  std::uint64_t attempted = 0, failed = 0, ok = 0;
  std::vector<Event> events;
  for (Session& s : sessions_) {
    attempted += s.attempted;
    failed += s.failed;
    ok += s.read_lat.size() + s.write_lat.size();
    Check(s.error);
    events.insert(events.end(), s.events.begin(), s.events.end());
  }
  Check(CheckAttempted(attempted, ok, failed));
  Check(s_.kind == Kind::kSwmr ? CheckSwmrHistory(events)
                               : CheckGkHistory(events));

  if (s_.kind == Kind::kCoded) {
    const RegisterId cell{0, nadreg::core::MakeBlock(
                                 1, nadreg::core::Component::kCodedCell, 0)};
    std::vector<RegisterId> regs;
    for (nadreg::DiskId d = 0; d < s_.disks; ++d) {
      regs.push_back(RegisterId{d, cell.block});
    }
    auto sizes = RawReadSizes(cluster_.client(), regs);
    if (!sizes) {
      Check("coded storage: read-back timed out");
    } else {
      std::uint64_t total = 0;
      for (std::size_t z : *sizes) total += z;
      Check(CheckCodedStorage(total, s_.disks, kCodedK, s_.value_bytes));
    }
    // The codec reproduces its input from random k-subsets.
    auto rs = nadreg::core::RsCode::Make(s_.disks, kCodedK);
    const std::string value = MakeValue(a_.seed, {0, 77, 1}, s_.value_bytes);
    const auto frags = rs->Encode(value);
    std::mt19937_64 rng(Mix(a_.seed, 0xc0de));
    for (int i = 0; i < 16; ++i) {
      std::vector<unsigned> idx(s_.disks);
      for (unsigned j = 0; j < s_.disks; ++j) idx[j] = j;
      std::shuffle(idx.begin(), idx.end(), rng);
      std::vector<std::pair<unsigned, std::string_view>> pick;
      for (unsigned j = 0; j < kCodedK; ++j) {
        pick.emplace_back(idx[j], frags[idx[j]]);
      }
      auto dec = rs->Decode(pick, value.size());
      if (!dec.ok() || *dec != value) {
        Check("rs: decode of a random k-subset did not reproduce the input");
      }
    }
  }
}

void Runner::WriteSpans(const std::vector<const OpSpan*>& ops,
                        const std::vector<const PhaseSpan*>& phases,
                        const std::vector<const BaseSpan*>& base) {
  const fs::path path =
      fs::path(a_.out_dir) / ("spans-" + std::string(s_.name) + ".jsonl");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Check("cannot write span file " + path.string());
    return;
  }
  // The file holds the window's first operations, in id order, until
  // their base operations reach kSpanFileBaseOps, with their phases and
  // base operations plus the background base operations issued before the
  // last of them ended. The metrics use every span.
  constexpr std::size_t kSpanFileBaseOps = 100000;
  std::map<std::uint64_t, std::size_t> base_per_op;
  for (const BaseSpan* b : base) ++base_per_op[b->op];
  std::vector<const OpSpan*> kept = ops;
  std::sort(kept.begin(), kept.end(),
            [](const OpSpan* x, const OpSpan* y) { return x->id < y->id; });
  std::set<std::uint64_t> ids;
  std::int64_t last_end = 0;
  std::size_t budget = kSpanFileBaseOps;
  std::size_t n_kept = 0;
  for (const OpSpan* o : kept) {
    const std::size_t cost = base_per_op[o->id];
    if (n_kept > 0 && cost > budget) break;
    budget -= std::min(cost, budget);
    ids.insert(o->id);
    last_end = std::max(last_end, o->end);
    ++n_kept;
  }
  kept.resize(n_kept);
  auto keep = [&](std::uint64_t op, std::int64_t start) {
    return op == 0 ? start <= last_end : ids.count(op) > 0;
  };
  static const char* kKind[] = {"read", "write", "merge"};
  for (const OpSpan* o : kept) {
    std::fprintf(f,
                 "{\"span\":\"op\",\"id\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 o->id, o->write ? "write" : "read", o->start, o->end);
  }
  for (const PhaseSpan* p : phases) {
    if (!keep(p->op, p->start)) continue;
    std::fprintf(f,
                 "{\"span\":\"phase\",\"id\":%" PRIu64 ",\"phase\":%" PRIu64
                 ",\"name\":\"%s\",\"size\":%u,\"start_ns\":%" PRId64
                 ",\"quorum_ns\":%" PRId64 "}\n",
                 p->op, p->id, kKind[static_cast<int>(p->kind)], p->size,
                 p->start, p->quorum_end.load());
  }
  for (const BaseSpan* b : base) {
    if (!keep(b->op, b->start)) continue;
    std::fprintf(f,
                 "{\"span\":\"base_op\",\"id\":%" PRIu64 ",\"phase\":%" PRIu64
                 ",\"name\":\"%s\",\"disk\":%u,\"block\":%" PRIu64
                 ",\"bytes_out\":%u,\"bytes_in\":%u,\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 b->op, b->phase, kKind[static_cast<int>(b->kind)],
                 b->reg.disk, b->reg.block, b->bytes_out, b->bytes_in.load(),
                 b->start, b->end.load());
  }
  std::fclose(f);
}

void Runner::TracedMetrics(double ops_per_s, std::uint64_t ops) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  const auto op_spans = tracer_->Ops();
  const auto phases = tracer_->Phases();
  const auto base = tracer_->BaseOps();

  // Base operations per operation, background, bytes, and self time.
  std::uint64_t background = 0, bytes_out = 0, bytes_in = 0;
  std::vector<std::int64_t> base_ns;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      by_op;
  for (const BaseSpan* b : base) {
    if (b->op == 0) ++background;
    bytes_out += b->bytes_out;
    bytes_in += b->bytes_in.load();
    const std::int64_t end = b->end.load();
    if (end != 0) {
      base_ns.push_back(end - b->start);
      if (b->op != 0) by_op[b->op].emplace_back(b->start, end);
    }
  }
  double self_ns = 0;
  for (const OpSpan* o : op_spans) {
    auto& iv = by_op[o->id];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, o->start);
      hi = std::min(hi, o->end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self_ns += static_cast<double>(o->end - o->start - covered);
  }
  std::uint64_t op_phases = 0;
  std::vector<std::int64_t> quorum_ns;
  for (const PhaseSpan* p : phases) {
    if (p->op != 0) ++op_phases;
    const std::int64_t q = p->quorum_end.load();
    if (q != 0) quorum_ns.push_back(q - p->start);
  }
  const double op_count = static_cast<double>(std::max<std::size_t>(
      op_spans.size(), 1));
  Metric("trace.ops_per_s", ops_per_s, "1/s");
  Metric("core.base_ops_per_op", base.size() / op_count, "count");
  Metric("core.background_base_ops_per_op", background / op_count, "count");
  Metric("core.rounds_per_op", op_phases / op_count, "count");
  Metric("core.base_bytes_out_per_op", bytes_out / op_count, "B");
  Metric("core.base_bytes_in_per_op", bytes_in / op_count, "B");
  Metric("core.self_us_per_op", self_ns / op_count / 1000.0, "us");
  Metric("core.quorum_phase_us", Median(quorum_ns) / 1000.0, "us");

  // Bytes at rest of every base register the wrapper saw written, over
  // the bytes of each emulated register's last value.
  {
    const auto regs = tracer_->WrittenRegisters();
    auto sizes = RawReadSizes(cluster_.client(), regs);
    double stored = 0;
    if (sizes) {
      for (std::size_t z : *sizes) stored += static_cast<double>(z);
    } else {
      Check("stored bytes: read-back timed out");
    }
    // mwmr-fig3's daemons hold only the last round's object.
    Metric("core.stored_bytes_per_value_byte",
           stored / static_cast<double>(s_.regs * s_.value_bytes), "ratio");
  }

  std::uint64_t reads = 0;
  for (const Session& s : sessions_) reads += s.read_lat.size();
  Metric("core.coded.read_retries_per_read",
         s_.kind == Kind::kCoded
             ? static_cast<double>(coded_retries_) /
                   static_cast<double>(std::max<std::uint64_t>(reads, 1))
             : 0.0,
         "count");

  // Codec calibration at the workload's value size.
  double enc = 0, dec_data = 0, dec_parity = 0;
  if (s_.kind == Kind::kCoded) {
    auto rs = nadreg::core::RsCode::Make(s_.disks, kCodedK);
    const std::string value = MakeValue(a_.seed, {0, 78, 1}, s_.value_bytes);
    const auto frags = rs->Encode(value);
    auto rate = [&](const std::function<void()>& f) {
      const std::int64_t start = NowNs();
      int iters = 0;
      while (NowNs() - start < 40'000'000) {
        f();
        ++iters;
      }
      const double s = (NowNs() - start) / 1e9;
      return iters * static_cast<double>(value.size()) / s / 1e6;
    };
    enc = rate([&] { (void)rs->Encode(value); });
    auto decode_from = [&](unsigned first) {
      std::vector<std::pair<unsigned, std::string_view>> pick;
      for (unsigned j = first; j < first + kCodedK; ++j) {
        pick.emplace_back(j, frags[j]);
      }
      return rate([&] { (void)rs->Decode(pick, value.size()); });
    };
    dec_data = decode_from(0);
    dec_parity = decode_from(s_.disks - kCodedK);
  }
  Metric("core.rs.encode_mb_per_s", enc, "MB/s");
  Metric("core.rs.decode_data_mb_per_s", dec_data, "MB/s");
  Metric("core.rs.decode_parity_mb_per_s", dec_parity, "MB/s");
  Metric("core.snapshot.collects_per_op",
         s_.kind == Kind::kMwmr ? snapshot_collects_.load() / n : 0.0,
         "count");

  Metric("nad.base_op_us", Median(base_ns) / 1000.0, "us");
  Metric("nad.raw_roundtrip_us",
         RawRoundtripUs(cluster_.client(), s_.value_bytes, 200), "us");
  const double frames =
      static_cast<double>(after_.batch_count - before_.batch_count);
  Metric("nad.client.ops_per_frame",
         frames > 0 ? (after_.batch_sum - before_.batch_sum) / frames : 0.0,
         "count");
  const double served = static_cast<double>(after_.serve_count -
                                            before_.serve_count);
  Metric("nad.server.requests_per_op", served / n, "count");
  Metric("nad.server.serve_us_per_request",
         served > 0 ? (after_.serve_sum_us - before_.serve_sum_us) / served
                    : 0.0,
         "us");
  {
    std::lock_guard lock(ckpt_.mu);
    if (ckpt_.ns.empty()) {
      // Volatile daemons: Checkpoint() is a no-op; time that round so the
      // figure is still a measurement (a few microseconds).
      for (int i = 0; i < 5; ++i) {
        const std::int64_t start = NowNs();
        for (auto& srv : cluster_.servers()) (void)srv->Checkpoint();
        ckpt_.ns.push_back(NowNs() - start);
      }
    }
    Metric("nad.journal_bytes_per_write",
           ckpt_.writes > 0 ? static_cast<double>(ckpt_.journal_bytes) /
                                  static_cast<double>(ckpt_.writes)
                            : 0.0,
           "B");
    Metric("nad.checkpoint_ms",
           Median(ckpt_.ns) / 1e6,
           "ms");
  }
  Metric("proc.allocs_per_op",
         static_cast<double>(after_.allocs - before_.allocs) / n, "count");
  Metric("proc.ctx_switches_per_op",
         static_cast<double>(after_.usage.ctx_switches -
                             before_.usage.ctx_switches) /
             n,
         "count");

  WriteSpans(op_spans, phases, base);
}

void Runner::RestartReadback() {
  writers_.clear();
  readers_.clear();
  tracer_.reset();
  cluster_.StopAll();
  if (Status st = cluster_.Start(s_.disks, a_.seed + 1, data_paths_);
      !st.ok()) {
    Check("restart failed: " + st.ToString());
    return;
  }
  std::vector<std::optional<ValueId>> got;
  const nadreg::core::FarmConfig farm{1};
  for (unsigned r = 0; r < s_.regs; ++r) {
    nadreg::core::SwmrAtomicReader reader(cluster_.client(), farm, SwmrRegs(r),
                                          5000 + r);
    auto v = reader.Read(Opts());
    got.push_back(v.ok() ? ParseValue(a_.seed, *v, s_.value_bytes)
                         : std::nullopt);
  }
  Check(CheckReadback(last_acked_, got));
  cluster_.Quiesce(std::chrono::seconds(5));
}

int Runner::Run() {
  if (Status st = Setup(); !st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const double setup_s = (RealtimeNs() - a_.t0_ns) / 1e9;

  before_ = Sample();
  EnableAllocCount(a_.trace);
  if (tracer_) tracer_->SetRecording(true);
  peak_rss_bytes_ = ResidentBytes();
  Window(before_.ns);
  if (tracer_) tracer_->SetRecording(false);
  EnableAllocCount(false);
  after_ = Sample();

  if (!cluster_.Quiesce(std::chrono::seconds(10))) {
    Check("client did not quiesce after the window");
  }
  std::uint64_t attempted = 0, failed = 0, ok = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> reads, writes;
  for (const Session& s : sessions_) {
    attempted += s.attempted;
    failed += s.failed;
    ok += s.read_lat.size() + s.write_lat.size();
    reads.insert(reads.end(), s.read_lat.begin(), s.read_lat.end());
    writes.insert(writes.end(), s.write_lat.begin(), s.write_lat.end());
  }
  // Per-slice throughput, CPU per operation and tails; each end-to-end
  // figure is the median over the slices, so one stalled slice (a noisy
  // neighbour on a shared host) does not move it.
  std::vector<double> slice_rate, slice_cpu, slice_rtail, slice_wtail;
  auto in_slice = [](const std::vector<std::pair<std::int64_t, std::int64_t>>& v,
                     std::int64_t lo, std::int64_t hi) {
    std::vector<std::int64_t> out;
    for (const auto& [end, dur] : v) {
      if (end >= lo && end < hi) out.push_back(dur);
    }
    return out;
  };
  for (const auto& [lo, hi] : slices_) {
    const double ops_i = static_cast<double>(hi.ops - lo.ops);
    slice_rate.push_back(ops_i / ((hi.ns - lo.ns) / 1e9));
    slice_cpu.push_back((hi.cpu_us - lo.cpu_us) /
                        std::max(ops_i, 1.0));
    auto r = in_slice(reads, lo.ns, hi.ns);
    auto w = in_slice(writes, lo.ns, hi.ns);
    slice_rtail.push_back(Percentile(r, s_.read_tail_pct) / 1000.0);
    slice_wtail.push_back(Percentile(w, s_.write_tail_pct) / 1000.0);
  }
  std::vector<std::int64_t> read_durs, write_durs;
  for (const auto& [end, dur] : reads) read_durs.push_back(dur);
  for (const auto& [end, dur] : writes) write_durs.push_back(dur);
  const double window_s = (after_.ns - before_.ns) / 1e9;
  for (const auto& ep : coded_) coded_retries_ += ep->read_retries();
  if (tracer_) {
    std::uint64_t retries =
        nadreg::obs::Registry::Global().GetCounter("nad.client.retries").Get();
    Check(CheckIssuedEqualsServed(tracer_->Issued(), Sample().served,
                                  retries));
  }
  CheckAfterWindow();

  if (a_.trace) {
    TracedMetrics(MedianOf(slice_rate), ok);
  } else {
    Metric("ops_per_s", MedianOf(slice_rate), "1/s");
    Metric("read_p50_us", Percentile(read_durs, 50) / 1000.0, "us");
    Metric("read_tail_us", MedianOf(slice_rtail), "us");
    Metric("write_p50_us", Percentile(write_durs, 50) / 1000.0, "us");
    Metric("write_tail_us", MedianOf(slice_wtail), "us");
    Metric("cpu_us_per_op", MedianOf(slice_cpu), "us");
    Metric("setup_s", setup_s, "s");
    Metric("peak_rss_mib", peak_rss_bytes_ / (1024.0 * 1024.0), "MiB");
  }
  std::fprintf(stderr,
               "perfbench: %s seed %" PRIu64 " trace %d: %" PRIu64
               " ops (%zu reads, %zu writes) in %.3f s\n",
               s_.name, a_.seed, a_.trace ? 1 : 0, ok, reads.size(),
               writes.size(), window_s);

  coded_.clear();
  if (s_.journaled) RestartReadback();
  writers_.clear();
  readers_.clear();
  tracer_.reset();
  cluster_.StopAll();

  for (const auto& [name, vu] : metrics_) {
    std::printf("%-36s %14.4f %s\n", name.c_str(), vu.first, vu.second);
  }
  if (!error_.empty()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error_.c_str());
  }
  std::string json = "{\"correct\": ";
  json += error_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                  metrics_[i].second.first, metrics_[i].second.second);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return error_.empty() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--t0-ns") {
      a->t0_ns = std::strtoll(v.c_str(), nullptr, 10);
    } else if (k == "--tmp-dir") {
      a->tmp_dir = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::int64_t entry_ns = RealtimeNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--t0-ns <ns>] [--tmp-dir <dir>] "
                 "[--out-dir <dir>] | --self-test\n");
    return 2;
  }
  if (args.self_test) return RunSelfTest() == 0 ? 0 : 1;
  if (args.t0_ns == 0) args.t0_ns = entry_ns;
  for (const Shape& shape : kShapes) {
    if (args.workload == shape.name) return Runner(args, shape).Run();
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
