// Correctness oracles of the register benchmark. They are independent of
// the program's own checker (src/checker): every value is regenerated from
// its coordinates and compared byte for byte, and histories are judged by
// the definitions of single-writer atomicity (sequence bounds) and of
// multi-writer linearizability over distinct values (Gibbons–Korach zones).
// Every check returns an empty string when it passes and a one-line reason
// when it fails, so the self-test can plant violations and see them caught.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Coordinates of a benchmark value: (register, writer, sequence).
struct ValueId {
  std::uint32_t reg = 0;
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const ValueId&, const ValueId&) = default;
};

/// Writer id of the register's initial (never written) value.
inline constexpr std::uint32_t kInitialWriter = 0xffff;

/// The value written by `id` under `seed`, `size` bytes (size >= 8). An
/// 8-byte header carries the coordinates; the rest is a keyed stream, so a
/// torn or corrupted value no longer matches its own header.
std::string MakeValue(std::uint64_t seed, const ValueId& id, std::size_t size);

/// Parses the header of `bytes` and checks that the whole value equals the
/// regenerated one of `expect_size` bytes. nullopt = not a value this
/// benchmark wrote (torn, corrupted or wrong size).
std::optional<ValueId> ParseValue(std::uint64_t seed, std::string_view bytes,
                                  std::size_t expect_size);

/// One completed operation of a history (times in ns, any common origin).
struct Event {
  std::uint32_t reg = 0;
  bool write = false;
  ValueId value;  // written, or returned (writer kInitialWriter = initial)
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Single-writer atomicity by sequence bounds, per register: a READ
/// returns a sequence no older than the last WRITE completed before it
/// began, no newer than the last WRITE begun before it ended, and no READ
/// returns an older sequence than a READ that ended before it began.
std::string CheckSwmrHistory(const std::vector<Event>& events);

/// Multi-writer linearizability of a history whose writes carry distinct
/// values (Gibbons–Korach): per register, every READ returns a value some
/// WRITE began before the READ ended (or the initial value), no two
/// forward zones overlap, and no backward zone lies inside a forward zone.
std::string CheckGkHistory(const std::vector<Event>& events);

/// After a restart, register `i` must read back exactly its last
/// acknowledged WRITE `expected[i]`; `got[i]` is what the READ returned
/// (nullopt = an unparsable value).
std::string CheckReadback(const std::vector<ValueId>& expected,
                          const std::vector<std::optional<ValueId>>& got);

/// Bytes at rest of one coded register over n disks with k data fragments
/// and a V-byte value lie between the MDS floor n*ceil(V/k) and
/// 1.1*(n/k)*V.
std::string CheckCodedStorage(std::uint64_t stored_bytes, unsigned n,
                              unsigned k, std::uint64_t value_bytes);

/// Base operations issued through the tracing wrapper equal the requests
/// the daemons served plus the client's retransmissions.
std::string CheckIssuedEqualsServed(std::uint64_t issued,
                                    std::uint64_t served,
                                    std::uint64_t retries);

/// Attempted operations equal succeeded plus failed.
std::string CheckAttempted(std::uint64_t attempted, std::uint64_t succeeded,
                           std::uint64_t failed);

/// Feeds every check above hand-made bad histories and inputs; returns the
/// number of planted violations that were NOT rejected (0 = all caught)
/// and prints one line per case to stderr.
int RunSelfTest();

}  // namespace perfbench
