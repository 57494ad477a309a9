// Offline backup and restore of a database directory.
//
// The paper's Section 2 baselines depend on backups ("recovery from hard errors
// depends entirely on keeping backup copies"); this design needs them only as
// belt-and-braces (Section 4 offers cheaper options), but operators want them anyway.
// A backup captures one consistent generation: the current checkpoint, the log as of
// the copy, and a version file naming them. Restore materializes a fresh directory
// that Database::Open recovers normally.
//
// Safety: run against a quiescent database (closed, or no checkpoint concurrently).
// The copy resolves the generation first, by the restart rule (VersionStore::
// PeekCurrent: `newversion` before `version`, with the delta chain and pending logs),
// and copies its files after, so a concurrent *update* merely truncates the backup's
// log at a clean entry boundary (replay discards any torn tail); a concurrent
// *checkpoint switch* can make the named generation disappear mid-copy, which fails
// the backup cleanly.
#ifndef SMALLDB_SRC_CORE_BACKUP_H_
#define SMALLDB_SRC_CORE_BACKUP_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/storage/vfs.h"

namespace sdb {

struct BackupInfo {
  std::uint64_t version = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t log_bytes = 0;
};

// Copies the current generation of `src_dir` into `dst_dir` (created; must not already
// contain a database). Source and destination may live on different Vfs instances
// (e.g. SimFs -> PosixFs for exporting a simulation, or a second disk for the paper's
// "preferably on a separate disk with a separate controller").
Result<BackupInfo> BackupDatabaseDir(Vfs& src_vfs, const std::string& src_dir,
                                     Vfs& dst_vfs, const std::string& dst_dir);

// Restores a backup into `dst_dir` (created; must not already contain a database).
// The result is a normal database directory.
Result<BackupInfo> RestoreDatabaseDir(Vfs& src_vfs, const std::string& src_dir,
                                      Vfs& dst_vfs, const std::string& dst_dir);

// Refreshes an existing backup cheaply. If the destination already holds the source's
// current generation, only the log is re-copied (the incremental case: log appends are
// all that changed since the last backup). If the source has checkpointed past the
// backup's generation, the old backup contents are replaced by a full copy.
// `incremental` in the result says which happened.
struct IncrementalBackupInfo {
  BackupInfo info;
  bool incremental = false;
};
Result<IncrementalBackupInfo> IncrementalBackupDatabaseDir(Vfs& src_vfs,
                                                           const std::string& src_dir,
                                                           Vfs& dst_vfs,
                                                           const std::string& dst_dir);

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_BACKUP_H_
