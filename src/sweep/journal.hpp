// Checkpoint journal: shard-granular sweep persistence that survives a
// killed process.
//
// A sweep appends each completed shard to a line-oriented journal and
// flushes it to the operating system; `--resume` replays the journal
// and recomputes only the shards without a commit marker. Nothing is
// synced to disk, so an OS crash or power loss can drop the last
// appends (replay recomputes those shards). Format:
//
//   fepia-sweep-journal v1
//   spec <hex16-hash> points <P> chunk <C>
//   point <id> <analytic> <closed> <empirical> <degraded> <makespan> <cls>
//   ...
//   shard <s> done
//
// Doubles are written with std::hexfloat (plus nan/inf/-inf tokens) so a
// resumed value is bit-identical to the computed one — the resume
// byte-identity guarantee rests on this exact round-trip. A shard's
// point lines count only once its `shard <s> done` marker is present;
// a torn tail (crash mid-write) is therefore ignored: readJournal skips
// malformed lines (safe because appends are ordered — a flushed commit
// marker implies its point lines were flushed too, so debris always
// belongs to an uncommitted shard that gets re-staged on resume), and
// JournalWriter quarantines a newline-less tail behind a fresh newline
// before appending. The spec hash in the header refuses resuming a
// journal against a different sweep, and the recorded chunk refuses a
// mismatched shard layout.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sweep/result.hpp"

namespace fepia::sweep {

/// Exact-round-trip textual form of a double (hexfloat / nan / inf / -inf).
[[nodiscard]] std::string formatJournalDouble(double v);

/// Inverse of formatJournalDouble; false on a malformed token.
[[nodiscard]] bool parseJournalDouble(const std::string& token, double& out);

/// What a journal replay recovered.
struct JournalContents {
  std::vector<bool> shardDone;        ///< per shard: commit marker seen
  std::vector<PointResult> results;   ///< slots of undone shards are default
  std::size_t doneShards = 0;
};

/// Replays `path`. Throws std::runtime_error when the file cannot be
/// opened, the header does not parse, or the header disagrees with
/// (specHash, points, chunk). Torn or malformed record lines are
/// skipped, not errors; shards committed after them still count.
[[nodiscard]] JournalContents readJournal(const std::string& path,
                                          std::uint64_t specHash,
                                          std::size_t points,
                                          std::size_t chunk,
                                          std::size_t shards);

/// Appends committed shards to a journal file, writing the header on
/// creation. Not thread-safe; the sweep engine serializes appendShard
/// calls under its own mutex.
class JournalWriter {
 public:
  /// Opens `path` (truncating, or appending when `append`); writes the
  /// header unless appending to an existing journal, and when appending
  /// starts with a newline if the existing file lacks a trailing one
  /// (quarantining a crash-torn tail). Throws std::runtime_error when
  /// the file cannot be opened.
  void open(const std::string& path, bool append, std::uint64_t specHash,
            std::size_t points, std::size_t chunk);

  /// Writes one completed shard (point lines + commit marker) and
  /// flushes, so a killed process never loses the shard after return
  /// (an OS crash still can: nothing is synced to disk).
  void appendShard(std::size_t shard, std::size_t firstId,
                   const PointResult* results, std::size_t count);

  [[nodiscard]] bool active() const noexcept { return out_.is_open(); }

 private:
  std::ofstream out_;
};

}  // namespace fepia::sweep
