#include "oracle.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kHeader = 8;

std::string Describe(const ValueId& v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "reg %u writer %u seq %" PRIu64, v.reg,
                v.writer, v.seq);
  return buf;
}

/// Groups events by register, preserving order.
std::map<std::uint32_t, std::vector<const Event*>> ByRegister(
    const std::vector<Event>& events) {
  std::map<std::uint32_t, std::vector<const Event*>> out;
  for (const Event& e : events) out[e.reg].push_back(&e);
  return out;
}

}  // namespace

std::string MakeValue(std::uint64_t seed, const ValueId& id,
                      std::size_t size) {
  std::string v(std::max(size, kHeader), '\0');
  const std::uint16_t reg = static_cast<std::uint16_t>(id.reg);
  const std::uint16_t writer = static_cast<std::uint16_t>(id.writer);
  const std::uint32_t seq = static_cast<std::uint32_t>(id.seq);
  std::memcpy(v.data(), &reg, 2);
  std::memcpy(v.data() + 2, &writer, 2);
  std::memcpy(v.data() + 4, &seq, 4);
  std::uint64_t state = seed ^ (std::uint64_t{reg} << 48) ^
                        (std::uint64_t{writer} << 32) ^ seq;
  state = SplitMix(state);
  std::size_t i = kHeader;
  for (; i + 8 <= v.size(); i += 8) {
    const std::uint64_t w = SplitMix(state);
    std::memcpy(v.data() + i, &w, 8);
  }
  if (i < v.size()) {
    const std::uint64_t w = SplitMix(state);
    std::memcpy(v.data() + i, &w, v.size() - i);
  }
  return v;
}

std::optional<ValueId> ParseValue(std::uint64_t seed, std::string_view bytes,
                                  std::size_t expect_size) {
  if (bytes.size() != expect_size || bytes.size() < kHeader) {
    return std::nullopt;
  }
  std::uint16_t reg = 0;
  std::uint16_t writer = 0;
  std::uint32_t seq = 0;
  std::memcpy(&reg, bytes.data(), 2);
  std::memcpy(&writer, bytes.data() + 2, 2);
  std::memcpy(&seq, bytes.data() + 4, 4);
  const ValueId id{reg, writer, seq};
  if (MakeValue(seed, id, expect_size) != bytes) return std::nullopt;
  return id;
}

std::string CheckSwmrHistory(const std::vector<Event>& events) {
  for (const auto& [reg, evs] : ByRegister(events)) {
    std::vector<const Event*> writes;
    std::vector<const Event*> reads;
    for (const Event* e : evs) (e->write ? writes : reads).push_back(e);
    std::sort(writes.begin(), writes.end(),
              [](const Event* a, const Event* b) { return a->start < b->start; });
    for (std::size_t i = 1; i < writes.size(); ++i) {
      if (writes[i]->value.seq <= writes[i - 1]->value.seq ||
          writes[i]->start < writes[i - 1]->end) {
        return "register " + std::to_string(reg) +
               ": writes are not sequential with rising sequence numbers";
      }
    }
    // writes are sequential, so both bounds are monotone in time: the
    // last write that ended before t, and the last write begun before t.
    auto completed_before = [&](std::int64_t t) -> std::uint64_t {
      auto it = std::lower_bound(
          writes.begin(), writes.end(), t,
          [](const Event* w, std::int64_t x) { return w->end < x; });
      return it == writes.begin() ? 0 : (*std::prev(it))->value.seq;
    };
    auto begun_before = [&](std::int64_t t) -> std::uint64_t {
      auto it = std::lower_bound(
          writes.begin(), writes.end(), t,
          [](const Event* w, std::int64_t x) { return w->start < x; });
      return it == writes.begin() ? 0 : (*std::prev(it))->value.seq;
    };
    for (const Event* r : reads) {
      const std::uint64_t seq =
          r->value.writer == kInitialWriter ? 0 : r->value.seq;
      const std::uint64_t lo = completed_before(r->start);
      const std::uint64_t hi = begun_before(r->end);
      if (seq < lo) {
        return "register " + std::to_string(reg) + ": stale read of seq " +
               std::to_string(seq) + " after seq " + std::to_string(lo) +
               " completed";
      }
      if (seq > hi) {
        return "register " + std::to_string(reg) + ": read of seq " +
               std::to_string(seq) + " before it was written";
      }
    }
    // New-old inversion: sweep reads by start, folding in every read that
    // ended before it.
    std::vector<const Event*> by_end = reads;
    std::sort(reads.begin(), reads.end(),
              [](const Event* a, const Event* b) { return a->start < b->start; });
    std::sort(by_end.begin(), by_end.end(),
              [](const Event* a, const Event* b) { return a->end < b->end; });
    std::size_t j = 0;
    std::uint64_t max_done = 0;
    for (const Event* r : reads) {
      while (j < by_end.size() && by_end[j]->end < r->start) {
        max_done = std::max(max_done, by_end[j]->value.seq);
        ++j;
      }
      if (r->value.seq < max_done) {
        return "register " + std::to_string(reg) +
               ": new-old inversion, read of seq " +
               std::to_string(r->value.seq) + " after a read of seq " +
               std::to_string(max_done) + " completed";
      }
    }
  }
  return {};
}

std::string CheckGkHistory(const std::vector<Event>& events) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const auto& [reg, evs] : ByRegister(events)) {
    struct Cluster {
      bool written = false;
      std::int64_t write_start = 0;
      std::int64_t min_end = std::numeric_limits<std::int64_t>::max();
      std::int64_t max_start = kMin;
    };
    using Key = std::tuple<std::uint32_t, std::uint64_t>;
    std::map<Key, Cluster> clusters;
    // The initial value behaves as a write that completed before time.
    Cluster& init = clusters[{kInitialWriter, 0}];
    init.written = true;
    init.write_start = kMin;
    init.min_end = kMin;
    for (const Event* e : evs) {
      if (!e->write) continue;
      Cluster& c = clusters[{e->value.writer, e->value.seq}];
      if (c.written) {
        return "register " + std::to_string(reg) + ": value " +
               Describe(e->value) + " written twice";
      }
      c.written = true;
      c.write_start = e->start;
      c.min_end = std::min(c.min_end, e->end);
      c.max_start = std::max(c.max_start, e->start);
    }
    for (const Event* e : evs) {
      if (e->write) continue;
      const Key key = e->value.writer == kInitialWriter
                          ? Key{kInitialWriter, 0}
                          : Key{e->value.writer, e->value.seq};
      auto it = clusters.find(key);
      if (it == clusters.end() || !it->second.written) {
        return "register " + std::to_string(reg) + ": read of " +
               Describe(e->value) + " that nobody wrote";
      }
      Cluster& c = it->second;
      if (e->end < c.write_start) {
        return "register " + std::to_string(reg) + ": read of " +
               Describe(e->value) + " ended before its write began";
      }
      c.min_end = std::min(c.min_end, e->end);
      c.max_start = std::max(c.max_start, e->start);
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> forward;
    std::vector<std::pair<std::int64_t, std::int64_t>> backward;
    for (const auto& [key, c] : clusters) {
      if (c.max_start == kMin) continue;  // initial value never read
      if (c.min_end < c.max_start) {
        forward.emplace_back(c.min_end, c.max_start);
      } else {
        backward.emplace_back(c.max_start, c.min_end);
      }
    }
    std::sort(forward.begin(), forward.end());
    for (std::size_t i = 1; i < forward.size(); ++i) {
      if (forward[i].first < forward[i - 1].second) {
        return "register " + std::to_string(reg) +
               ": two forward zones overlap (no linearization exists)";
      }
    }
    for (const auto& [lo, hi] : backward) {
      // the forward zone with the largest low end below lo
      auto it = std::lower_bound(forward.begin(), forward.end(),
                                 std::make_pair(lo, kMin));
      if (it == forward.begin()) continue;
      --it;
      if (it->first < lo && hi < it->second) {
        return "register " + std::to_string(reg) +
               ": a backward zone lies inside a forward zone";
      }
    }
  }
  return {};
}

std::string CheckReadback(const std::vector<ValueId>& expected,
                          const std::vector<std::optional<ValueId>>& got) {
  if (expected.size() != got.size()) return "readback: size mismatch";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!got[i]) {
      return "readback: register " + std::to_string(expected[i].reg) +
             " returned a value this run never wrote";
    }
    if (!(*got[i] == expected[i])) {
      return "readback: register " + std::to_string(expected[i].reg) +
             " returned " + Describe(*got[i]) +
             " after restart, last acknowledged was " + Describe(expected[i]);
    }
  }
  return {};
}

std::string CheckCodedStorage(std::uint64_t stored_bytes, unsigned n,
                              unsigned k, std::uint64_t value_bytes) {
  const std::uint64_t floor = std::uint64_t{n} * ((value_bytes + k - 1) / k);
  const double ceiling = 1.1 * n / k * static_cast<double>(value_bytes);
  if (stored_bytes < floor ||
      static_cast<double>(stored_bytes) > ceiling) {
    return "coded storage: " + std::to_string(stored_bytes) +
           " bytes at rest, outside [" + std::to_string(floor) + ", " +
           std::to_string(static_cast<std::uint64_t>(ceiling)) + "]";
  }
  return {};
}

std::string CheckIssuedEqualsServed(std::uint64_t issued,
                                    std::uint64_t served,
                                    std::uint64_t retries) {
  if (issued != served + retries) {
    return "count: wrapper issued " + std::to_string(issued) +
           " base ops, daemons served " + std::to_string(served) + " + " +
           std::to_string(retries) + " retries";
  }
  return {};
}

std::string CheckAttempted(std::uint64_t attempted, std::uint64_t succeeded,
                           std::uint64_t failed) {
  if (attempted != succeeded + failed) {
    return "attempted " + std::to_string(attempted) + " != succeeded " +
           std::to_string(succeeded) + " + failed " + std::to_string(failed);
  }
  return {};
}

int RunSelfTest() {
  constexpr std::uint64_t kSeed = 7;
  int missed = 0;
  auto expect = [&](const char* name, bool want_reject,
                    const std::string& verdict) {
    const bool rejected = !verdict.empty();
    const bool ok = rejected == want_reject;
    if (!ok) ++missed;
    std::fprintf(stderr, "self-test %-34s %s%s%s\n", name,
                 ok ? "ok" : "MISSED",
                 rejected ? " - " : "", verdict.c_str());
  };
  auto w = [](std::uint32_t reg, std::uint32_t writer, std::uint64_t seq,
              std::int64_t s, std::int64_t e) {
    return Event{reg, true, ValueId{reg, writer, seq}, s, e};
  };
  auto r = [](std::uint32_t reg, std::uint32_t writer, std::uint64_t seq,
              std::int64_t s, std::int64_t e) {
    return Event{reg, false, ValueId{reg, writer, seq}, s, e};
  };

  // Values: exact round trip; torn and corrupted bytes are not values.
  {
    const std::string a = MakeValue(kSeed, {3, 1, 9}, 64);
    const std::string b = MakeValue(kSeed, {3, 1, 10}, 64);
    const auto parsed = ParseValue(kSeed, a, 64);
    expect("value round trip", false,
           parsed && *parsed == ValueId{3, 1, 9} ? "" : "not parsed");
    std::string torn = a.substr(0, 32) + b.substr(32);
    expect("torn value", true,
           ParseValue(kSeed, torn, 64) ? "" : "torn value rejected");
    std::string corrupt = b;
    corrupt[40] ^= 0x20;
    expect("corrupted value", true,
           ParseValue(kSeed, corrupt, 64) ? "" : "corrupted value rejected");
    expect("wrong-size value", true,
           ParseValue(kSeed, a.substr(0, 63), 64) ? "" : "short value rejected");
    expect("value of another seed", true,
           ParseValue(kSeed + 1, a, 64) ? "" : "foreign value rejected");
  }

  // SWMR sequence bounds.
  const std::vector<Event> good = {w(0, 1, 1, 0, 10), w(0, 1, 2, 20, 30),
                                   r(0, 1, 1, 12, 18), r(0, 1, 2, 25, 40),
                                   r(0, 1, 1, 22, 28), r(0, 1, 2, 41, 50)};
  expect("swmr good history", false, CheckSwmrHistory(good));
  expect("swmr stale read", true,
         CheckSwmrHistory({w(0, 1, 1, 0, 10), w(0, 1, 2, 20, 30),
                           r(0, 1, 1, 35, 40)}));
  expect("swmr read from the future", true,
         CheckSwmrHistory({w(0, 1, 1, 0, 10), r(0, 1, 2, 12, 18),
                           w(0, 1, 2, 20, 30)}));
  expect("swmr new-old inversion", true,
         CheckSwmrHistory({w(0, 1, 1, 0, 10), w(0, 1, 2, 20, 30),
                           r(0, 1, 2, 21, 24), r(0, 1, 1, 25, 28)}));

  // Gibbons–Korach zones over distinct values.
  expect("gk good history", false,
         CheckGkHistory({r(0, kInitialWriter, 0, 0, 5), w(0, 1, 1, 2, 10),
                         w(0, 2, 1, 8, 20), r(0, 2, 1, 9, 12),
                         r(0, 2, 1, 21, 25), r(0, 1, 1, 3, 9)}));
  expect("gk stale read", true,
         CheckGkHistory({w(0, 1, 1, 0, 10), w(0, 2, 1, 20, 30),
                         r(0, 1, 1, 35, 40)}));
  expect("gk new-old inversion", true,
         CheckGkHistory({w(0, 1, 1, 0, 10), w(0, 2, 1, 20, 40),
                         r(0, 2, 1, 21, 24), r(0, 1, 1, 25, 28)}));
  expect("gk read of the initial after a write", true,
         CheckGkHistory({w(0, 1, 1, 0, 10), r(0, kInitialWriter, 0, 20, 30)}));
  expect("gk read of an unwritten value", true,
         CheckGkHistory({w(0, 1, 1, 0, 10), r(0, 3, 7, 20, 30)}));
  expect("gk read before its write", true,
         CheckGkHistory({r(0, 1, 1, 0, 5), w(0, 1, 1, 10, 20)}));

  // Restart read-back, coded storage bounds, count equality, attempts.
  expect("readback good", false,
         CheckReadback({{0, 1, 5}, {1, 2, 3}},
                       {ValueId{0, 1, 5}, ValueId{1, 2, 3}}));
  expect("readback lost write", true,
         CheckReadback({{0, 1, 5}, {1, 2, 3}},
                       {ValueId{0, 1, 4}, ValueId{1, 2, 3}}));
  expect("readback garbage", true,
         CheckReadback({{0, 1, 5}}, {std::nullopt}));
  expect("coded storage in range", false,
         CheckCodedStorage(4 * 32768 + 200, 4, 2, 65536));
  expect("coded storage below floor", true,
         CheckCodedStorage(4 * 32768 - 1, 4, 2, 65536));
  expect("coded storage above ceiling", true,
         CheckCodedStorage(3 * 65536, 4, 2, 65536));
  expect("count equality holds", false, CheckIssuedEqualsServed(100, 98, 2));
  expect("count lost base op", true, CheckIssuedEqualsServed(100, 99, 0));
  expect("attempted accounted", false, CheckAttempted(10, 9, 1));
  expect("attempted unaccounted", true, CheckAttempted(10, 9, 0));
  return missed;
}

}  // namespace perfbench
