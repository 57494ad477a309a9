#include "src/core/partitioned.h"

namespace sdb {

Result<std::unique_ptr<PartitionedDatabase>> PartitionedDatabase::Open(
    std::vector<PartitionSpec> partitions, DatabaseOptions base_options) {
  if (partitions.empty()) {
    return InvalidArgumentError("at least one partition required");
  }
  std::vector<std::unique_ptr<Database>> databases;
  databases.reserve(partitions.size());
  for (const PartitionSpec& spec : partitions) {
    if (spec.app == nullptr || spec.dir.empty()) {
      return InvalidArgumentError("partition requires app and dir");
    }
    DatabaseOptions options = base_options;
    options.dir = spec.dir;
    SDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(*spec.app, options));
    databases.push_back(std::move(db));
  }
  return std::unique_ptr<PartitionedDatabase>(new PartitionedDatabase(std::move(databases)));
}

Status PartitionedDatabase::Enquire(std::size_t partition,
                                    const std::function<Status()>& enquiry) {
  if (partition >= databases_.size()) {
    return InvalidArgumentError("partition index out of range");
  }
  return databases_[partition]->Enquire(enquiry);
}

Status PartitionedDatabase::Update(std::size_t partition,
                                   const std::function<Result<Bytes>()>& prepare) {
  if (partition >= databases_.size()) {
    return InvalidArgumentError("partition index out of range");
  }
  return databases_[partition]->Update(prepare);
}

Status PartitionedDatabase::CheckpointAll() {
  for (const auto& db : databases_) {
    SDB_RETURN_IF_ERROR(db->Checkpoint());
  }
  return OkStatus();
}

PartitionedDatabase::AggregateStats PartitionedDatabase::aggregate_stats() const {
  AggregateStats aggregate;
  for (const auto& db : databases_) {
    DatabaseStats stats = db->stats();
    aggregate.updates += stats.updates;
    aggregate.enquiries += stats.enquiries;
    aggregate.checkpoints += stats.checkpoints;
    aggregate.log_bytes += db->log_bytes();
    aggregate.fsyncs += stats.group_commit.syncs;
  }
  return aggregate;
}

}  // namespace sdb
