// The traced mode's forwarding BaseRegisterClient. It sits between the
// emulations and the NadClient and records, in memory, three kinds of span:
//   op      — one emulated READ or WRITE (recorded by the session loop);
//   phase   — one issue call (IssueRead(s)/IssueWrite(s)/IssueMerge(s));
//   base_op — one base-register operation, from issue to its handler.
// Spans of one operation share its id. A base operation issued while no
// operation is current on the issuing thread (Fig. 1 pending writes chained
// from completion handlers on the event loop) gets id 0: background.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/base_register.h"

namespace perfbench {

/// Counting global allocator (alloc_count.cc): while enabled, every
/// operator new outside a SuppressAllocCount scope bumps the counter.
void EnableAllocCount(bool on);
std::uint64_t AllocCount();

/// Scope in which this thread's allocations are not counted: the tracer's
/// own bookkeeping must not show up as the program's allocations.
class SuppressAllocCount {
 public:
  SuppressAllocCount();
  ~SuppressAllocCount();
  SuppressAllocCount(const SuppressAllocCount&) = delete;
  SuppressAllocCount& operator=(const SuppressAllocCount&) = delete;
};

/// Scope that counts this thread's allocations again inside a
/// SuppressAllocCount scope: a session suppresses its own bookkeeping and
/// allows the program's calls.
class AllowAllocCount {
 public:
  AllowAllocCount();
  ~AllowAllocCount();
  AllowAllocCount(const AllowAllocCount&) = delete;
  AllowAllocCount& operator=(const AllowAllocCount&) = delete;

 private:
  int saved_;
};

std::int64_t NowNs();

enum class SpanKind : std::uint8_t { kRead, kWrite, kMerge };

struct OpSpan {
  std::uint64_t id = 0;
  bool write = false;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct PhaseSpan {
  std::uint64_t id = 0;  // phase id
  std::uint64_t op = 0;  // owning operation, 0 = background
  SpanKind kind = SpanKind::kRead;
  std::uint32_t size = 0;
  std::uint32_t target = 0;  // completions that make its quorum
  std::int64_t start = 0;
  std::atomic<std::uint32_t> done{0};
  std::atomic<std::int64_t> quorum_end{0};
};

struct BaseSpan {
  std::uint64_t op = 0;
  std::uint64_t phase = 0;
  SpanKind kind = SpanKind::kRead;
  nadreg::RegisterId reg{};
  std::uint32_t bytes_out = 0;
  std::int64_t start = 0;
  std::atomic<std::uint32_t> bytes_in{0};
  std::atomic<std::int64_t> end{0};
};

/// Marks the operation this thread is running; base operations issued
/// on the thread while it lives carry its id.
class ScopedOp {
 public:
  explicit ScopedOp(std::uint64_t id);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  std::uint64_t prev_;
};

class TracedClient : public nadreg::BaseRegisterClient {
 public:
  /// `quorum` is the completion count that ends a phase's quorum wait.
  TracedClient(nadreg::BaseRegisterClient& inner, std::uint32_t quorum);
  TracedClient(const TracedClient&) = delete;
  TracedClient& operator=(const TracedClient&) = delete;

  void IssueRead(nadreg::ProcessId p, nadreg::RegisterId r,
                 nadreg::ReadHandler done) override;
  void IssueWrite(nadreg::ProcessId p, nadreg::RegisterId r,
                  nadreg::Value v, nadreg::WriteHandler done) override;
  void IssueReads(nadreg::ProcessId p, std::vector<ReadOp> ops) override;
  void IssueWrites(nadreg::ProcessId p, std::vector<WriteOp> ops) override;
  bool SupportsMerge() const override { return inner_->SupportsMerge(); }
  void IssueMerge(nadreg::ProcessId p, nadreg::RegisterId r,
                  nadreg::Value delta, nadreg::WriteHandler done) override;
  void IssueMerges(nadreg::ProcessId p, std::vector<WriteOp> ops) override;
  bool IsSuspectedCrashed(nadreg::DiskId d) const override {
    return inner_->IsSuspectedCrashed(d);
  }

  /// Spans are kept only while recording (the timed window); the issued
  /// count and the written-register set cover the whole run.
  void SetRecording(bool on) { recording_.store(on); }
  /// Forwards to `inner` from now on (between rounds, when no operation
  /// is outstanding).
  void Rebind(nadreg::BaseRegisterClient& inner) { inner_ = &inner; }
  void ClearWritten();
  void RecordOp(const OpSpan& op);

  std::uint64_t Issued() const { return issued_.load(); }
  std::vector<nadreg::RegisterId> WrittenRegisters() const;

  /// Call only after every session thread has been joined and the
  /// client is quiescent: the span buffers are then no longer written.
  std::vector<const OpSpan*> Ops() const;
  std::vector<const PhaseSpan*> Phases() const;
  std::vector<const BaseSpan*> BaseOps() const;

 private:
  // Appended by its own thread, read by Ops()/Phases()/BaseOps(); the
  // per-buffer lock is uncontended while the run is going.
  struct ThreadBuf {
    std::mutex mu;
    std::vector<OpSpan> ops;
    std::vector<std::unique_ptr<PhaseSpan>> phases;
    std::vector<std::unique_ptr<BaseSpan>> base;
  };
  ThreadBuf& Buf();
  /// Opens a phase of `size` base ops (nullptr when not recording).
  PhaseSpan* BeginPhase(SpanKind kind, std::size_t size);
  BaseSpan* BeginBase(PhaseSpan* phase, SpanKind kind,
                      const nadreg::RegisterId& r, std::size_t bytes_out);
  nadreg::ReadHandler WrapRead(PhaseSpan* phase, const nadreg::RegisterId& r,
                               nadreg::ReadHandler done);
  nadreg::WriteHandler WrapWrite(PhaseSpan* phase, SpanKind kind,
                                 const nadreg::RegisterId& r,
                                 std::size_t bytes, nadreg::WriteHandler done);
  void NoteWritten(const nadreg::RegisterId& r);

  nadreg::BaseRegisterClient* inner_;
  std::uint32_t quorum_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> next_phase_{1};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
  std::set<std::pair<nadreg::DiskId, nadreg::BlockId>> written_;  // mu_
};

}  // namespace perfbench
