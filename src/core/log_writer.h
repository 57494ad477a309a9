// LogWriter: appends update records to the redo log. The fsync inside Commit() is the
// database's commit point (paper Section 3: "The commit point is the disk write").
//
// Group commit (Section 5: "arranging to record multiple commit records in a single
// log entry") is supported by appending several records and syncing once.
#ifndef SMALLDB_SRC_CORE_LOG_WRITER_H_
#define SMALLDB_SRC_CORE_LOG_WRITER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/vfs.h"

namespace sdb {

// Snapshot of a LogWriter's counters. The writer keeps these internally as relaxed
// atomics — they are mutated by whichever thread leads a commit batch and read
// lock-free by observers (Database::log_writer_stats) while batches are in flight.
struct LogWriterStats {
  std::uint64_t entries_appended = 0;
  std::uint64_t commits = 0;  // fsyncs
  std::uint64_t bytes_appended = 0;
  std::uint64_t padding_bytes = 0;
};

struct LogWriterOptions {
  // Each Commit pads the log to a page boundary, so the next commit never rewrites a
  // page containing already-committed data. Without this, a torn write of the shared
  // final page could destroy a previously acknowledged update — the one failure the
  // paper's commit-point argument must exclude. (The paper's own framing — "the log
  // entry's length on the first page of the entry" — implies the same alignment.)
  bool pad_to_page_boundary = true;
  std::size_t page_size = 512;
};

class LogWriter {
 public:
  // Takes ownership of an open, append-positioned log file.
  LogWriter(std::unique_ptr<File> file, std::uint64_t initial_size,
            LogWriterOptions options = {})
      : file_(std::move(file)), size_(initial_size), options_(options) {}

  // Buffers one framed entry into the OS cache (not yet durable).
  Status Append(ByteSpan payload) { return AppendBatch({&payload, 1}); }

  // Buffers several framed entries as ONE contiguous file append (not yet durable).
  // The group-commit pipeline hands a whole batch here so the file system sees a
  // single streaming write instead of one syscall per record. The internal encode
  // buffer is reused across calls, so a steady-state commit allocates nothing.
  Status AppendBatch(std::span<const ByteSpan> payloads);

  // Makes everything appended so far durable. Returns only after the data is on the
  // medium — or an error, in which case nothing appended since the last successful
  // Commit may be assumed durable.
  Status Commit();

  // Append + Commit: the common single-update path.
  Status AppendAndCommit(ByteSpan payload) {
    SDB_RETURN_IF_ERROR(Append(payload));
    return Commit();
  }

  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  // By-value snapshot, safe to call from any thread at any time.
  LogWriterStats stats() const {
    LogWriterStats snapshot;
    snapshot.entries_appended = entries_appended_.load(std::memory_order_relaxed);
    snapshot.commits = commits_.load(std::memory_order_relaxed);
    snapshot.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
    snapshot.padding_bytes = padding_bytes_.load(std::memory_order_relaxed);
    return snapshot;
  }

  Status Close() { return file_->Close(); }

 private:
  Status PadToPageBoundary();

  std::unique_ptr<File> file_;
  std::atomic<std::uint64_t> size_;
  LogWriterOptions options_;
  std::atomic<std::uint64_t> entries_appended_{0};
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint64_t> bytes_appended_{0};
  std::atomic<std::uint64_t> padding_bytes_{0};
  Bytes scratch_;  // reusable encode buffer (capacity persists across batches)
  Bytes padding_;  // reusable zero page for PadToPageBoundary
};

// Opens the existing log at `path` for appending. A torn tail past the last whole
// page is cut off first (replay already ignored it), so new entries are never
// appended after garbage and the file stays parseable.
Result<std::unique_ptr<LogWriter>> OpenLogForAppend(Vfs& vfs, std::string_view path,
                                                    const LogWriterOptions& options);

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_LOG_WRITER_H_
