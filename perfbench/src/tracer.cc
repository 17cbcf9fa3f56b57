#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_op = 0;

struct BufSlot {
  const void* owner = nullptr;
  void* buf = nullptr;
};
thread_local BufSlot t_buf;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedOp::ScopedOp(std::uint64_t id) : prev_(t_current_op) {
  t_current_op = id;
}
ScopedOp::~ScopedOp() { t_current_op = prev_; }

TracedClient::TracedClient(nadreg::BaseRegisterClient& inner,
                           std::uint32_t quorum)
    : inner_(&inner), quorum_(quorum) {}

TracedClient::ThreadBuf& TracedClient::Buf() {
  if (t_buf.owner != this) {
    std::lock_guard lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    t_buf = {this, bufs_.back().get()};
  }
  return *static_cast<ThreadBuf*>(t_buf.buf);
}

void TracedClient::RecordOp(const OpSpan& op) {
  SuppressAllocCount quiet;
  ThreadBuf& b = Buf();
  std::lock_guard lock(b.mu);
  b.ops.push_back(op);
}

void TracedClient::NoteWritten(const nadreg::RegisterId& r) {
  SuppressAllocCount quiet;
  std::lock_guard lock(mu_);
  written_.emplace(r.disk, r.block);
}

PhaseSpan* TracedClient::BeginPhase(SpanKind kind, std::size_t size) {
  if (!recording_.load(std::memory_order_relaxed)) return nullptr;
  auto ph = std::make_unique<PhaseSpan>();
  ph->id = next_phase_.fetch_add(1, std::memory_order_relaxed);
  ph->op = t_current_op;
  ph->kind = kind;
  ph->size = static_cast<std::uint32_t>(size);
  ph->target = std::min<std::uint32_t>(quorum_, ph->size);
  ph->start = NowNs();
  PhaseSpan* raw = ph.get();
  ThreadBuf& b = Buf();
  std::lock_guard lock(b.mu);
  b.phases.push_back(std::move(ph));
  return raw;
}

BaseSpan* TracedClient::BeginBase(PhaseSpan* phase, SpanKind kind,
                                  const nadreg::RegisterId& r,
                                  std::size_t bytes_out) {
  auto s = std::make_unique<BaseSpan>();
  s->op = phase->op;
  s->phase = phase->id;
  s->kind = kind;
  s->reg = r;
  s->bytes_out = static_cast<std::uint32_t>(bytes_out);
  s->start = NowNs();
  BaseSpan* raw = s.get();
  ThreadBuf& b = Buf();
  std::lock_guard lock(b.mu);
  b.base.push_back(std::move(s));
  return raw;
}

namespace {

void Complete(PhaseSpan* ph, BaseSpan* s, std::size_t bytes_in) {
  const std::int64_t now = NowNs();
  s->bytes_in.store(static_cast<std::uint32_t>(bytes_in));
  s->end.store(now);
  if (ph->done.fetch_add(1) + 1 == ph->target) ph->quorum_end.store(now);
}

}  // namespace

nadreg::ReadHandler TracedClient::WrapRead(PhaseSpan* ph,
                                           const nadreg::RegisterId& r,
                                           nadreg::ReadHandler done) {
  BaseSpan* s = BeginBase(ph, SpanKind::kRead, r, 0);
  return [ph, s, done = std::move(done)](nadreg::Value v) {
    Complete(ph, s, v.size());
    if (done) done(std::move(v));
  };
}

nadreg::WriteHandler TracedClient::WrapWrite(PhaseSpan* ph, SpanKind kind,
                                             const nadreg::RegisterId& r,
                                             std::size_t bytes,
                                             nadreg::WriteHandler done) {
  BaseSpan* s = BeginBase(ph, kind, r, bytes);
  return [ph, s, done = std::move(done)]() {
    Complete(ph, s, 0);
    if (done) done();
  };
}

void TracedClient::IssueRead(nadreg::ProcessId p, nadreg::RegisterId r,
                             nadreg::ReadHandler done) {
  issued_.fetch_add(1, std::memory_order_relaxed);
  {
    SuppressAllocCount quiet;
    if (PhaseSpan* ph = BeginPhase(SpanKind::kRead, 1)) {
      done = WrapRead(ph, r, std::move(done));
    }
  }
  inner_->IssueRead(p, r, std::move(done));
}

void TracedClient::IssueWrite(nadreg::ProcessId p, nadreg::RegisterId r,
                              nadreg::Value v, nadreg::WriteHandler done) {
  issued_.fetch_add(1, std::memory_order_relaxed);
  NoteWritten(r);
  {
    SuppressAllocCount quiet;
    if (PhaseSpan* ph = BeginPhase(SpanKind::kWrite, 1)) {
      done = WrapWrite(ph, SpanKind::kWrite, r, v.size(), std::move(done));
    }
  }
  inner_->IssueWrite(p, r, std::move(v), std::move(done));
}

void TracedClient::IssueMerge(nadreg::ProcessId p, nadreg::RegisterId r,
                              nadreg::Value delta, nadreg::WriteHandler done) {
  issued_.fetch_add(1, std::memory_order_relaxed);
  NoteWritten(r);
  {
    SuppressAllocCount quiet;
    if (PhaseSpan* ph = BeginPhase(SpanKind::kMerge, 1)) {
      done = WrapWrite(ph, SpanKind::kMerge, r, delta.size(), std::move(done));
    }
  }
  inner_->IssueMerge(p, r, std::move(delta), std::move(done));
}

void TracedClient::IssueReads(nadreg::ProcessId p, std::vector<ReadOp> ops) {
  issued_.fetch_add(ops.size(), std::memory_order_relaxed);
  {
    SuppressAllocCount quiet;
    if (PhaseSpan* ph = BeginPhase(SpanKind::kRead, ops.size())) {
      for (ReadOp& op : ops) op.done = WrapRead(ph, op.reg, std::move(op.done));
    }
  }
  inner_->IssueReads(p, std::move(ops));
}

void TracedClient::IssueWrites(nadreg::ProcessId p, std::vector<WriteOp> ops) {
  issued_.fetch_add(ops.size(), std::memory_order_relaxed);
  for (const WriteOp& op : ops) NoteWritten(op.reg);
  {
    SuppressAllocCount quiet;
    if (PhaseSpan* ph = BeginPhase(SpanKind::kWrite, ops.size())) {
      for (WriteOp& op : ops) {
        op.done = WrapWrite(ph, SpanKind::kWrite, op.reg, op.value.size(),
                            std::move(op.done));
      }
    }
  }
  inner_->IssueWrites(p, std::move(ops));
}

void TracedClient::IssueMerges(nadreg::ProcessId p, std::vector<WriteOp> ops) {
  issued_.fetch_add(ops.size(), std::memory_order_relaxed);
  for (const WriteOp& op : ops) NoteWritten(op.reg);
  {
    SuppressAllocCount quiet;
    if (PhaseSpan* ph = BeginPhase(SpanKind::kMerge, ops.size())) {
      for (WriteOp& op : ops) {
        op.done = WrapWrite(ph, SpanKind::kMerge, op.reg, op.value.size(),
                            std::move(op.done));
      }
    }
  }
  inner_->IssueMerges(p, std::move(ops));
}

void TracedClient::ClearWritten() {
  std::lock_guard lock(mu_);
  written_.clear();
}

std::vector<nadreg::RegisterId> TracedClient::WrittenRegisters() const {
  std::lock_guard lock(mu_);
  std::vector<nadreg::RegisterId> out;
  out.reserve(written_.size());
  for (const auto& [d, b] : written_) out.push_back(nadreg::RegisterId{d, b});
  return out;
}

std::vector<const OpSpan*> TracedClient::Ops() const {
  std::lock_guard lock(mu_);
  std::vector<const OpSpan*> out;
  for (const auto& b : bufs_) {
    std::lock_guard l(b->mu);
    for (const OpSpan& s : b->ops) out.push_back(&s);
  }
  return out;
}

std::vector<const PhaseSpan*> TracedClient::Phases() const {
  std::lock_guard lock(mu_);
  std::vector<const PhaseSpan*> out;
  for (const auto& b : bufs_) {
    std::lock_guard l(b->mu);
    for (const auto& s : b->phases) out.push_back(s.get());
  }
  return out;
}

std::vector<const BaseSpan*> TracedClient::BaseOps() const {
  std::lock_guard lock(mu_);
  std::vector<const BaseSpan*> out;
  for (const auto& b : bufs_) {
    std::lock_guard l(b->mu);
    for (const auto& s : b->base) out.push_back(s.get());
  }
  return out;
}

}  // namespace perfbench
