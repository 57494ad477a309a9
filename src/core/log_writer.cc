#include "src/core/log_writer.h"

#include "src/core/log_format.h"

namespace sdb {

Status LogWriter::AppendBatch(std::span<const ByteSpan> payloads) {
  scratch_.clear();
  ByteWriter framed(std::move(scratch_));
  for (ByteSpan payload : payloads) {
    EncodeLogEntry(payload, framed);
  }
  scratch_ = std::move(framed).Take();
  SDB_RETURN_IF_ERROR(file_->Append(AsSpan(scratch_)));
  size_.fetch_add(scratch_.size(), std::memory_order_relaxed);
  entries_appended_.fetch_add(payloads.size(), std::memory_order_relaxed);
  bytes_appended_.fetch_add(scratch_.size(), std::memory_order_relaxed);
  return OkStatus();
}

Status LogWriter::PadToPageBoundary() {
  if (!options_.pad_to_page_boundary) {
    return OkStatus();
  }
  std::size_t remainder = static_cast<std::size_t>(size() % options_.page_size);
  if (remainder == 0) {
    return OkStatus();
  }
  std::size_t pad = options_.page_size - remainder;
  if (padding_.size() < pad) {
    padding_.assign(options_.page_size, 0);
  }
  SDB_RETURN_IF_ERROR(file_->Append(ByteSpan(padding_.data(), pad)));
  size_.fetch_add(pad, std::memory_order_relaxed);
  padding_bytes_.fetch_add(pad, std::memory_order_relaxed);
  return OkStatus();
}

Status LogWriter::Commit() {
  SDB_RETURN_IF_ERROR(PadToPageBoundary());
  SDB_RETURN_IF_ERROR(file_->Sync());
  commits_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Result<std::unique_ptr<LogWriter>> OpenLogForAppend(Vfs& vfs, std::string_view path,
                                                    const LogWriterOptions& options) {
  SDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file, vfs.Open(path, OpenMode::kReadWrite));
  SDB_ASSIGN_OR_RETURN(std::uint64_t size, file->Size());
  if (options.pad_to_page_boundary && size % options.page_size != 0) {
    size = (size / options.page_size) * options.page_size;
    SDB_RETURN_IF_ERROR(file->Truncate(size));
    SDB_RETURN_IF_ERROR(file->Sync());
  }
  return std::make_unique<LogWriter>(std::move(file), size, options);
}

}  // namespace sdb
