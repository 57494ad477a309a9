#include "src/core/backup.h"

#include "src/core/version_store.h"

namespace sdb {
namespace {

Status CopyFile(Vfs& src_vfs, const std::string& src_path, Vfs& dst_vfs,
                const std::string& dst_path, std::uint64_t* bytes_out) {
  SDB_ASSIGN_OR_RETURN(Bytes data, ReadWholeFile(src_vfs, src_path));
  if (bytes_out != nullptr) {
    *bytes_out = data.size();
  }
  return WriteWholeFile(dst_vfs, dst_path, AsSpan(data));
}

// Copies the generation's log, plus the rotated logs and the marker of a pending
// concurrent-checkpoint rotation, so the copy replays them too.
Status CopyLogs(Vfs& src_vfs, const VersionStore& src_names, Vfs& dst_vfs,
                VersionStore& dst_names, const VersionState& state, std::uint64_t* bytes) {
  *bytes = 0;
  std::vector<std::uint64_t> logs{state.version};
  logs.insert(logs.end(), state.pending_log_versions.begin(),
              state.pending_log_versions.end());
  for (std::uint64_t v : logs) {
    std::uint64_t log_bytes = 0;
    SDB_RETURN_IF_ERROR(CopyFile(src_vfs, src_names.LogPath(v), dst_vfs,
                                 dst_names.LogPath(v), &log_bytes)
                            .WithContext("copying log"));
    *bytes += log_bytes;
  }
  if (!state.pending_log_versions.empty()) {
    SDB_RETURN_IF_ERROR(WriteWholeFile(dst_vfs, dst_names.PendingMarkerPath(),
                                       AsSpan(std::to_string(state.live_log_version))));
  }
  return dst_vfs.SyncDir(dst_names.dir());
}

// Copies one generation between directories; the shared body of backup and restore.
Result<BackupInfo> CopyGeneration(Vfs& src_vfs, const std::string& src_dir, Vfs& dst_vfs,
                                  const std::string& dst_dir) {
  VersionStore src_names(src_vfs, src_dir);
  VersionStore dst_names(dst_vfs, dst_dir);

  SDB_RETURN_IF_ERROR(dst_vfs.CreateDir(dst_dir));
  SDB_ASSIGN_OR_RETURN(bool dst_fresh, dst_names.IsFresh());
  if (!dst_fresh) {
    return FailedPreconditionError("destination already contains a database: " + dst_dir);
  }

  // Resolve the source generation by the restart rule (newversion before version),
  // with its delta chain and pending logs, and with no side effects.
  SDB_ASSIGN_OR_RETURN(VersionState state, src_names.PeekCurrent());
  BackupInfo info;
  info.version = state.version;
  const DeltaChain& chain = state.chain;
  SDB_RETURN_IF_ERROR(CopyFile(src_vfs, src_names.CheckpointPath(chain.base), dst_vfs,
                               dst_names.CheckpointPath(chain.base), &info.checkpoint_bytes)
                          .WithContext("copying checkpoint"));
  for (std::uint64_t v : chain.deltas) {
    std::uint64_t delta_bytes = 0;
    SDB_RETURN_IF_ERROR(CopyFile(src_vfs, src_names.DeltaPath(v), dst_vfs,
                                 dst_names.DeltaPath(v), &delta_bytes)
                            .WithContext("copying chain delta"));
    info.checkpoint_bytes += delta_bytes;
  }
  if (chain.has_deltas()) {
    SDB_RETURN_IF_ERROR(
        dst_names.PublishManifest(chain).WithContext("publishing backup manifest"));
  }
  SDB_RETURN_IF_ERROR(CopyLogs(src_vfs, src_names, dst_vfs, dst_names, state, &info.log_bytes));
  SDB_RETURN_IF_ERROR(WriteWholeFile(dst_vfs, JoinPath(dst_dir, "version"),
                                     AsSpan(std::to_string(state.version))));
  SDB_RETURN_IF_ERROR(dst_vfs.SyncDir(dst_dir));
  return info;
}

}  // namespace

Result<BackupInfo> BackupDatabaseDir(Vfs& src_vfs, const std::string& src_dir, Vfs& dst_vfs,
                                     const std::string& dst_dir) {
  return CopyGeneration(src_vfs, src_dir, dst_vfs, dst_dir);
}

Result<IncrementalBackupInfo> IncrementalBackupDatabaseDir(Vfs& src_vfs,
                                                           const std::string& src_dir,
                                                           Vfs& dst_vfs,
                                                           const std::string& dst_dir) {
  IncrementalBackupInfo result;
  SDB_RETURN_IF_ERROR(dst_vfs.CreateDir(dst_dir));
  VersionStore src_names(src_vfs, src_dir);
  VersionStore dst_names(dst_vfs, dst_dir);
  SDB_ASSIGN_OR_RETURN(VersionState src, src_names.PeekCurrent());

  // Same version is only "checkpoint unchanged" if the delta chain also matches:
  // compaction collapses a chain without bumping the version, so a stale backup
  // manifest could otherwise reference files the refresh never copied.
  Result<VersionState> dst = dst_names.PeekCurrent();  // fails on an empty backup
  if (dst.ok() && dst->version == src.version && dst->chain.base == src.chain.base &&
      dst->chain.deltas == src.chain.deltas) {
    // Incremental: the checkpoint (chain) is unchanged; only the logs grew.
    result.incremental = true;
    result.info.version = src.version;
    SDB_RETURN_IF_ERROR(
        CopyLogs(src_vfs, src_names, dst_vfs, dst_names, src, &result.info.log_bytes)
            .WithContext("refreshing backup"));
    auto checkpoint = ReadWholeFile(dst_vfs, dst_names.CheckpointPath(src.chain.base));
    if (checkpoint.ok()) {
      result.info.checkpoint_bytes = checkpoint->size();
    }
    return result;
  }

  // Full refresh: clear any previous backup generation, then copy.
  SDB_ASSIGN_OR_RETURN(std::vector<std::string> names, dst_vfs.List(dst_dir));
  for (const std::string& name : names) {
    if (name.rfind("checkpoint", 0) == 0 || name.rfind("logfile", 0) == 0 ||
        name.rfind("delta", 0) == 0 || name == "manifest" || name == "version" ||
        name == "newversion" || name == "pending") {
      SDB_RETURN_IF_ERROR(dst_vfs.Delete(JoinPath(dst_dir, name)));
    }
  }
  SDB_RETURN_IF_ERROR(dst_vfs.SyncDir(dst_dir));
  SDB_ASSIGN_OR_RETURN(result.info, CopyGeneration(src_vfs, src_dir, dst_vfs, dst_dir));
  return result;
}

Result<BackupInfo> RestoreDatabaseDir(Vfs& src_vfs, const std::string& src_dir,
                                      Vfs& dst_vfs, const std::string& dst_dir) {
  return CopyGeneration(src_vfs, src_dir, dst_vfs, dst_dir);
}

}  // namespace sdb
