#include "src/sim/harness.h"

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "src/common/clock.h"
#include "src/core/backup.h"
#include "src/core/database.h"
#include "src/core/sharded.h"
#include "src/net/ingest.h"
#include "src/rpc/client.h"
#include "src/sim/kv_app.h"
#include "src/sim/net_sim.h"
#include "src/sim/oracle.h"
#include "src/storage/sim_disk.h"
#include "src/storage/sim_fs.h"

namespace sdb::sim {

std::string ScheduleKindName(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kNone:
      return "none";
    case ScheduleKind::kMultiCrash:
      return "multi-crash";
    case ScheduleKind::kTransient:
      return "transient";
    case ScheduleKind::kTornSwitch:
      return "torn-switch";
    case ScheduleKind::kMixed:
      return "mixed";
  }
  return "?";
}

bool ParseScheduleKind(std::string_view name, ScheduleKind* out) {
  for (ScheduleKind kind :
       {ScheduleKind::kNone, ScheduleKind::kMultiCrash, ScheduleKind::kTransient,
        ScheduleKind::kTornSwitch, ScheduleKind::kMixed}) {
    if (name == ScheduleKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

RandomFaultOptions FaultOptionsFor(ScheduleKind kind) {
  RandomFaultOptions o;
  switch (kind) {
    case ScheduleKind::kNone:
      break;
    case ScheduleKind::kMultiCrash:
      o.crash_before = 0.010;
      o.crash_torn = 0.015;
      o.crash_after = 0.010;
      o.max_crashes = 4;
      o.max_transients = 0;
      break;
    case ScheduleKind::kTransient:
      o.transient_write = 0.010;
      o.transient_read = 0.020;
      o.max_crashes = 0;
      o.max_transients = 24;
      break;
    case ScheduleKind::kTornSwitch:
      o.torn_metadata_sync = 0.25;
      o.max_crashes = 3;
      o.max_transients = 0;
      break;
    case ScheduleKind::kMixed:
      o.crash_before = 0.005;
      o.crash_torn = 0.008;
      o.crash_after = 0.005;
      o.torn_metadata_sync = 0.10;
      o.transient_write = 0.008;
      o.transient_read = 0.010;
      o.max_crashes = 4;
      o.max_transients = 16;
      break;
  }
  return o;
}

NetFaultOptions NetFaultOptionsFor(ScheduleKind kind) {
  NetFaultOptions o;
  switch (kind) {
    case ScheduleKind::kNone:
      break;
    case ScheduleKind::kMultiCrash:
      // Power failures stay the star; the network adds mild symmetric loss so
      // crash recovery also runs with pending (unacknowledged) operations around.
      o.drop_request = 0.02;
      o.drop_response = 0.02;
      break;
    case ScheduleKind::kTransient:
      // Loss-heavy: drops on both legs plus slow peers — the half-open and retry
      // territory.
      o.drop_request = 0.03;
      o.drop_response = 0.04;
      o.slow_peer = 0.03;
      break;
    case ScheduleKind::kTornSwitch:
      // Corruption-heavy: flipped and truncated frames aim at the decoder's
      // reject-never-crash contract (canary-checked).
      o.corrupt_frame = 0.04;
      o.truncate_frame = 0.04;
      break;
    case ScheduleKind::kMixed:
      o.partition_start = 0.010;
      o.drop_request = 0.015;
      o.drop_response = 0.020;
      o.corrupt_frame = 0.015;
      o.truncate_frame = 0.015;
      o.slow_peer = 0.010;
      break;
  }
  return o;
}

namespace {

// The KV workload's RPC surface, used only in network mode. Put/Delete register as
// batchable updates (the planner defers everything to the app's prepare closures),
// so each dispatched update flows through plan -> CommitMany -> Database::UpdateMany
// — the same ingest path the TCP server drives.
struct KvPutRequest {
  std::string key;
  std::string value;
  SDB_PICKLE_FIELDS(KvPutRequest, key, value)
};
struct KvDeleteRequest {
  std::string key;
  SDB_PICKLE_FIELDS(KvDeleteRequest, key)
};
struct KvAck {
  std::uint8_t ok = 1;
  SDB_PICKLE_FIELDS(KvAck, ok)
};
struct KvLookupRequest {
  std::string key;
  SDB_PICKLE_FIELDS(KvLookupRequest, key)
};
struct KvLookupResponse {
  std::uint8_t found = 0;
  std::string value;
  SDB_PICKLE_FIELDS(KvLookupResponse, found, value)
};
struct KvEnumerateRequest {
  std::uint8_t unused = 0;
  SDB_PICKLE_FIELDS(KvEnumerateRequest, unused)
};
struct KvEnumerateResponse {
  std::map<std::string, std::string> state;
  SDB_PICKLE_FIELDS(KvEnumerateResponse, state)
};

std::string Hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

class Runner {
 public:
  Runner(const std::vector<WorkloadStep>& steps, const HarnessOptions& options,
         std::uint64_t seed)
      : steps_(steps), options_(options), disk_(DiskOptions()), fs_(&disk_) {
    if (options_.network && options_.shards <= 1) {
      channel_ = std::make_unique<SimNetChannel>(
          seed, NetFaultOptionsFor(options_.schedule), nullptr, &clock_);
    }
  }

  RunReport Run(FaultInjector injector) {
    report_.steps = steps_;
    (void)fs_.CreateDir("/db");
    disk_.SetFaultInjector(std::move(injector));
    if (channel_ != nullptr) {
      // Fault firings are observable events: mix them so the trace hash covers the
      // network schedule too.
      channel_->SetEventHook([this](std::string_view event) { trace_.Mix(event); });
    }

    Status boot = Reboot();
    if (!boot.ok()) {
      return Fail(boot);
    }

    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const WorkloadStep& step = steps_[i];
      trace_.Mix("step");
      trace_.Mix(static_cast<std::uint64_t>(i));
      trace_.Mix(StepKindName(step.kind));
      Status engine = ExecuteStep(step);
      ++report_.steps_executed;
      trace_.Mix(engine.ok() ? "ok" : "err");
      if (!violation_.ok()) {
        return Fail(violation_.WithContext("at step " + std::to_string(i) + " (" +
                                           StepToString(step) + ")"));
      }
      if (engine.ok()) {
        soft_failures_ = 0;
        continue;
      }
      // The engine refused the step — fault-induced. A crashed disk means power is
      // out: reboot (recover, verify, adopt) and carry on. A persistent run of
      // non-crash failures (a transient wedged an in-flight log switch) gets a
      // deliberate power cycle too, so the loop always makes progress.
      if (disk_.crashed()) {
        trace_.Mix("crash-reboot");
        Status reboot = Reboot();
        if (!reboot.ok()) {
          return Fail(reboot);
        }
        soft_failures_ = 0;
      } else if (++soft_failures_ >= options_.max_soft_failures) {
        trace_.Mix("forced-reboot");
        Status reboot = Reboot();
        if (!reboot.ok()) {
          return Fail(reboot);
        }
        soft_failures_ = 0;
      }
    }

    // Every run ends by proving the durable state: one last power cut + recovery.
    trace_.Mix("final");
    Status final_check = Reboot();
    if (!final_check.ok()) {
      return Fail(final_check);
    }

    report_.ok = true;
    report_.trace_hash = trace_.hash();
    report_.transient_errors = disk_.stats().transient_errors;
    return std::move(report_);
  }

 private:
  SimDiskOptions DiskOptions() {
    SimDiskOptions o;
    o.page_size = options_.disk_page_size;
    o.clock = &clock_;
    return o;
  }

  DatabaseOptions DbOptions() {
    DatabaseOptions o;
    o.vfs = &fs_;
    o.dir = "/db";
    o.clock = &clock_;
    o.log_writer.page_size = options_.disk_page_size;
    o.log_replay_page_size = options_.disk_page_size;
    o.recovery_threads = options_.recovery_threads;
    o.delta_checkpoint.compact_after_deltas = options_.compact_after_deltas;
    o.delta_checkpoint.compact_delta_base_ratio = options_.compact_delta_base_ratio;
    return o;
  }

  bool sharded() const { return options_.shards > 1; }

  ShardedOptions SdbOptions() {
    ShardedOptions o;
    o.vfs = &fs_;
    o.dir = "/db";
    o.clock = &clock_;
    o.log_writer.page_size = options_.disk_page_size;
    o.log_replay_page_size = options_.disk_page_size;
    // Determinism: parallel shard recovery would permute SimDisk op ordinals, so
    // fault points would fire at different ops across identical runs.
    o.recovery_threads = 1;
    // Sharded compaction is always inline (no background thread to race).
    o.delta_checkpoint.compact_after_deltas = options_.compact_after_deltas;
    o.delta_checkpoint.compact_delta_base_ratio = options_.compact_delta_base_ratio;
    return o;
  }

  // The observable state of the sharded ensemble is the union of the per-shard
  // maps; the router makes the shards disjoint, so plain insertion merges cleanly
  // (and std::map keeps the merged view sorted — deterministic for trace mixing).
  std::map<std::string, std::string> MergedState() const {
    std::map<std::string, std::string> merged;
    for (const auto& app : shard_apps_) {
      merged.insert(app->state.begin(), app->state.end());
    }
    return merged;
  }

  // Sharding's structural invariant: every recovered key lives on its home shard.
  // Replay bucketing or router nondeterminism would break this silently — the
  // merged-state oracle check alone cannot see a key applied to the wrong shard
  // (same union), so it is checked separately after every recovery.
  Status CheckRouting() const {
    for (std::size_t p = 0; p < shard_apps_.size(); ++p) {
      for (const auto& [key, value] : shard_apps_[p]->state) {
        std::size_t home = sdb_->ShardForKey(key);
        if (home != p) {
          return InternalError("routing invariant: key " + key + " recovered on shard " +
                               std::to_string(p) + " but routes to shard " +
                               std::to_string(home));
        }
      }
    }
    return OkStatus();
  }

  RunReport Fail(const Status& status) {
    report_.ok = false;
    report_.failure = status.ToString();
    report_.trace_hash = trace_.hash();
    report_.transient_errors = disk_.stats().transient_errors;
    return std::move(report_);
  }

  // Power cycle: cut power, recover the file system, reopen the database, check the
  // recovered state against the oracle, adopt it. Retries absorb faults injected into
  // recovery itself (reads are faultable); the schedule's budgets bound the retries.
  Status Reboot() {
    if (static_cast<int>(++report_.reboots) > options_.max_reboots) {
      return InternalError("exceeded max_reboots — fault schedule never went quiet");
    }
    if (channel_ != nullptr) {
      channel_->SetServer(nullptr);  // the server dies with the power
    }
    rpc_server_.reset();
    db_.reset();
    sdb_.reset();
    Status last_error = OkStatus();
    for (int attempt = 0; attempt < options_.max_recovery_attempts; ++attempt) {
      ++report_.recovery_attempts;
      fs_.Crash();
      Status recovered = fs_.Recover();
      if (!recovered.ok()) {
        trace_.Mix("recover-fault");
        last_error = recovered;
        continue;
      }
      if (sharded()) {
        shard_apps_.clear();
        std::vector<Application*> apps;
        for (int p = 0; p < options_.shards; ++p) {
          shard_apps_.push_back(std::make_unique<KvApp>());
          apps.push_back(shard_apps_.back().get());
        }
        auto opened = ShardedDatabase::Open(std::move(apps), SdbOptions());
        if (!opened.ok()) {
          trace_.Mix("open-fault");
          last_error = opened.status();
          continue;
        }
        sdb_ = std::move(opened).value();
      } else {
        app_ = std::make_unique<KvApp>();
        auto opened = Database::Open(*app_, DbOptions());
        if (!opened.ok()) {
          trace_.Mix("open-fault");
          last_error = opened.status();
          continue;
        }
        db_ = std::move(opened).value();
      }
      std::map<std::string, std::string> state =
          sharded() ? MergedState() : app_->state;
      Status check = oracle_.CheckRecovered(state);
      if (!check.ok()) {
        return check.WithContext("reboot " + std::to_string(report_.reboots));
      }
      if (sharded()) {
        Status routing = CheckRouting();
        if (!routing.ok()) {
          return routing.WithContext("reboot " + std::to_string(report_.reboots));
        }
      }
      oracle_.Adopt(state);
      trace_.Mix("recovered");
      for (const auto& [key, value] : state) {
        trace_.Mix(key);
        trace_.Mix(value);
      }
      if (channel_ != nullptr) {
        RebuildServer();
      }
      return OkStatus();
    }
    return InternalError("recovery did not converge after " +
                         std::to_string(options_.max_recovery_attempts) +
                         " attempts; last error: " + last_error.ToString());
  }

  // Network mode: a fresh RpcServer fronts the just-recovered database. Handlers
  // capture `this` and read the CURRENT app_/db_, so a later reboot's rebuild never
  // leaves them dangling. Ordinals inside channel_ keep counting across reboots.
  void RebuildServer() {
    rpc_server_ = std::make_unique<rpc::RpcServer>();
    update_sink_ = std::make_shared<net::DatabaseUpdateSink>(*db_);
    rpc::RegisterUpdateMethod<KvPutRequest, KvAck>(
        *rpc_server_, "KvService", "Put", update_sink_,
        [this](const KvPutRequest& request) -> Result<rpc::TypedUpdatePlan<KvAck>> {
          return rpc::TypedUpdatePlan<KvAck>{
              app_->PreparePut(request.key, request.value), KvAck{}};
        });
    rpc::RegisterUpdateMethod<KvDeleteRequest, KvAck>(
        *rpc_server_, "KvService", "Delete", update_sink_,
        [this](const KvDeleteRequest& request) -> Result<rpc::TypedUpdatePlan<KvAck>> {
          return rpc::TypedUpdatePlan<KvAck>{app_->PrepareDelete(request.key), KvAck{}};
        });
    rpc::RegisterMethod<KvLookupRequest, KvLookupResponse>(
        *rpc_server_, "KvService", "Lookup",
        [this](const KvLookupRequest& request) -> Result<KvLookupResponse> {
          KvLookupResponse response;
          SDB_RETURN_IF_ERROR(db_->Enquire([&]() -> Status {
            auto it = app_->state.find(request.key);
            if (it != app_->state.end()) {
              response.found = 1;
              response.value = it->second;
            }
            return OkStatus();
          }));
          return response;
        });
    rpc::RegisterMethod<KvEnumerateRequest, KvEnumerateResponse>(
        *rpc_server_, "KvService", "Enumerate",
        [this](const KvEnumerateRequest&) -> Result<KvEnumerateResponse> {
          KvEnumerateResponse response;
          SDB_RETURN_IF_ERROR(db_->Enquire([&]() -> Status {
            response.state = app_->state;
            return OkStatus();
          }));
          return response;
        });
    channel_->SetServer(rpc_server_.get());
  }

  // A canary is SimNetChannel reporting a codec bug (accepted corrupt frame, decoded
  // truncation); unlike an injected network failure it must fail the run.
  static bool IsCanary(const Status& status) {
    return status.ToString().find("canary:") != std::string::npos;
  }

  // The network interpretation of the KV steps. Updates that fail on the wire are
  // PENDING for the oracle — a dropped response means executed-but-unacknowledged,
  // and a dropped request is indistinguishable to the client, so both downgrade to
  // "may or may not be durable". Enquiries that fail on the wire verify nothing.
  Status ExecuteStepNetwork(const WorkloadStep& step) {
    switch (step.kind) {
      case StepKind::kPut: {
        Result<KvAck> ack = rpc::CallMethod<KvPutRequest, KvAck>(
            *channel_, "KvService", "Put", KvPutRequest{step.key, step.value});
        if (ack.ok()) {
          oracle_.AckPut(step.key, step.value);
        } else if (IsCanary(ack.status())) {
          violation_ = ack.status();
        } else {
          oracle_.PendingPut(step.key, step.value);
        }
        return ack.status();
      }
      case StepKind::kDelete: {
        Result<KvAck> ack = rpc::CallMethod<KvDeleteRequest, KvAck>(
            *channel_, "KvService", "Delete", KvDeleteRequest{step.key});
        if (ack.ok()) {
          oracle_.AckDelete(step.key);
        } else if (IsCanary(ack.status())) {
          violation_ = ack.status();
        } else {
          oracle_.PendingDelete(step.key);
        }
        return ack.status();
      }
      case StepKind::kLookup: {
        Result<KvLookupResponse> response = rpc::CallMethod<KvLookupRequest, KvLookupResponse>(
            *channel_, "KvService", "Lookup", KvLookupRequest{step.key});
        if (!response.ok()) {
          if (IsCanary(response.status())) {
            violation_ = response.status();
          }
          return response.status();
        }
        Status check =
            oracle_.CheckKeyRelaxed(step.key, response->found != 0, response->value);
        if (!check.ok()) {
          violation_ = check;
        }
        return OkStatus();
      }
      case StepKind::kEnumerate: {
        // The full-state response is large relative to the sim chunk size, so this
        // leg exercises chunked streaming + reassembly on nearly every enumerate.
        Result<KvEnumerateResponse> response =
            rpc::CallMethod<KvEnumerateRequest, KvEnumerateResponse>(
                *channel_, "KvService", "Enumerate", KvEnumerateRequest{});
        if (!response.ok()) {
          if (IsCanary(response.status())) {
            violation_ = response.status();
          }
          return response.status();
        }
        Status live = oracle_.CheckLiveRelaxed(response->state);
        if (!live.ok()) {
          violation_ = live;
        }
        return OkStatus();
      }
      default:
        return InternalError("step is not a network step");
    }
  }

  // Returns the engine's verdict on the step. Oracle violations (and terminal reboot
  // failures inside a restart step) land in violation_ instead — they fail the run.
  Status ExecuteStep(const WorkloadStep& step) {
    if (sharded()) {
      return ExecuteStepSharded(step);
    }
    if (channel_ != nullptr &&
        (step.kind == StepKind::kPut || step.kind == StepKind::kDelete ||
         step.kind == StepKind::kLookup || step.kind == StepKind::kEnumerate)) {
      return ExecuteStepNetwork(step);
    }
    switch (step.kind) {
      case StepKind::kPut: {
        Status st = db_->Update(app_->PreparePut(step.key, step.value));
        if (st.ok()) {
          oracle_.AckPut(step.key, step.value);
        } else {
          // Unacknowledged: the record may or may not have reached the durable log
          // (a later successful fsync can flush it). The oracle must tolerate both.
          oracle_.PendingPut(step.key, step.value);
        }
        return st;
      }
      case StepKind::kDelete: {
        Status st = db_->Update(app_->PrepareDelete(step.key));
        if (st.ok()) {
          oracle_.AckDelete(step.key);
        } else {
          oracle_.PendingDelete(step.key);
        }
        return st;
      }
      case StepKind::kLookup:
        return db_->Enquire([&]() -> Status {
          auto live = app_->state.find(step.key);
          auto want = oracle_.model().find(step.key);
          bool live_has = live != app_->state.end();
          bool want_has = want != oracle_.model().end();
          if (live_has != want_has ||
              (live_has && live->second != want->second)) {
            violation_ = InternalError(
                "oracle: lookup of " + step.key + " saw " +
                (live_has ? "\"" + live->second + "\"" : "nothing") + ", expected " +
                (want_has ? "\"" + want->second + "\"" : "nothing"));
          }
          return OkStatus();
        });
      case StepKind::kEnumerate:
        return db_->Enquire([&]() -> Status {
          Status live = oracle_.CheckLive(app_->state);
          if (!live.ok()) {
            violation_ = live;
          }
          return OkStatus();
        });
      case StepKind::kCheckpoint:
        return db_->Checkpoint();
      case StepKind::kBackup: {
        // Offline backup + restore + read-only verification against the model. Each
        // attempt gets fresh directory names; a fault mid-copy abandons the partials.
        const std::string bdir = "/bk" + std::to_string(backup_counter_);
        const std::string rdir = "/rs" + std::to_string(backup_counter_);
        ++backup_counter_;
        auto backed = BackupDatabaseDir(fs_, "/db", fs_, bdir);
        if (!backed.ok()) {
          return backed.status();
        }
        auto restored = RestoreDatabaseDir(fs_, bdir, fs_, rdir);
        if (!restored.ok()) {
          return restored.status();
        }
        KvApp replica;
        DatabaseOptions opts = DbOptions();
        opts.dir = rdir;
        auto ro = Database::OpenReadOnly(replica, std::move(opts));
        if (!ro.ok()) {
          return ro.status();
        }
        // The backup captured the live log's cache view: acknowledged state plus
        // possibly unacknowledged records — exactly what CheckRecovered models.
        Status check = oracle_.CheckRecovered(replica.state);
        if (!check.ok()) {
          violation_ = check.WithContext("restored backup " + rdir);
        }
        return OkStatus();
      }
      case StepKind::kRestart: {
        // A deliberate power cut at a step boundary (the paper's nightly restart,
        // minus the graceful shutdown our crash model doesn't need).
        Status st = Reboot();
        if (!st.ok()) {
          violation_ = st;
        }
        return OkStatus();
      }
    }
    return InternalError("unknown step kind");
  }

  // The sharded interpretation of the same step vocabulary. Two steps change
  // meaning: kCheckpoint covers one shard (round-robin, so a workload's checkpoint
  // steps sweep the ensemble), and kBackup becomes a rotation attempt — checkpoint
  // every shard, then apply the shared-log flushing rule — because rotation is the
  // sharded engine's analogue of "capture and truncate the durable state" and is
  // exactly the multi-step protocol worth aiming faults at.
  Status ExecuteStepSharded(const WorkloadStep& step) {
    switch (step.kind) {
      case StepKind::kPut: {
        std::size_t p = sdb_->ShardForKey(step.key);
        Status st =
            sdb_->UpdateKey(step.key, shard_apps_[p]->PreparePut(step.key, step.value));
        if (st.ok()) {
          oracle_.AckPut(step.key, step.value);
        } else {
          oracle_.PendingPut(step.key, step.value);
        }
        return st;
      }
      case StepKind::kDelete: {
        std::size_t p = sdb_->ShardForKey(step.key);
        Status st = sdb_->UpdateKey(step.key, shard_apps_[p]->PrepareDelete(step.key));
        if (st.ok()) {
          oracle_.AckDelete(step.key);
        } else {
          oracle_.PendingDelete(step.key);
        }
        return st;
      }
      case StepKind::kLookup: {
        std::size_t p = sdb_->ShardForKey(step.key);
        return sdb_->EnquireKey(step.key, [&]() -> Status {
          const auto& state = shard_apps_[p]->state;
          auto live = state.find(step.key);
          auto want = oracle_.model().find(step.key);
          bool live_has = live != state.end();
          bool want_has = want != oracle_.model().end();
          if (live_has != want_has ||
              (live_has && live->second != want->second)) {
            violation_ = InternalError(
                "oracle: lookup of " + step.key + " on shard " + std::to_string(p) +
                " saw " + (live_has ? "\"" + live->second + "\"" : "nothing") +
                ", expected " +
                (want_has ? "\"" + want->second + "\"" : "nothing"));
          }
          return OkStatus();
        });
      }
      case StepKind::kEnumerate:
        // EnquireAll holds every shard's shared lock: the merged view is a
        // consistent cross-shard instant, comparable against the oracle.
        return sdb_->EnquireAll([&]() -> Status {
          Status live = oracle_.CheckLive(MergedState());
          if (!live.ok()) {
            violation_ = live;
          }
          return OkStatus();
        });
      case StepKind::kCheckpoint:
        return sdb_->Checkpoint(checkpoint_cursor_++ % options_.shards);
      case StepKind::kBackup: {
        // Rotation attempt. Shards checkpoint sequentially on this thread (not
        // CheckpointAll — its background persist thread would interleave disk ops
        // nondeterministically against the fault schedule's op ordinals).
        for (int p = 0; p < options_.shards; ++p) {
          SDB_RETURN_IF_ERROR(sdb_->Checkpoint(p));
        }
        return sdb_->MaybeRotateLog().status();
      }
      case StepKind::kRestart: {
        Status st = Reboot();
        if (!st.ok()) {
          violation_ = st;
        }
        return OkStatus();
      }
    }
    return InternalError("unknown step kind");
  }

  const std::vector<WorkloadStep>& steps_;
  const HarnessOptions& options_;
  SimClock clock_;
  SimDisk disk_;
  SimFs fs_;
  std::unique_ptr<KvApp> app_;
  std::unique_ptr<Database> db_;
  // Sharded mode (options_.shards > 1): the ensemble replaces app_/db_.
  std::vector<std::unique_ptr<KvApp>> shard_apps_;
  std::unique_ptr<ShardedDatabase> sdb_;
  // Network mode (options_.network, Database mode only): the simulated transport.
  // The channel outlives reboots (its fault ordinals must keep counting); the
  // RpcServer + ingest sink are rebuilt with each recovered database.
  std::unique_ptr<SimNetChannel> channel_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::shared_ptr<rpc::UpdateSink> update_sink_;
  std::size_t checkpoint_cursor_ = 0;
  ModelOracle oracle_;
  TraceHasher trace_;
  RunReport report_;
  Status violation_ = OkStatus();
  int soft_failures_ = 0;
  std::uint64_t backup_counter_ = 0;
};

}  // namespace

RunReport RunSeed(std::uint64_t seed, const HarnessOptions& options) {
  std::vector<WorkloadStep> steps = GenerateWorkload(seed, options.workload);
  RandomFaultSchedule schedule(seed, FaultOptionsFor(options.schedule));
  Runner runner(steps, options, seed);
  RunReport report = runner.Run(schedule.AsInjector());
  report.seed = seed;
  report.schedule = options.schedule;
  report.shards = options.shards;
  report.network = options.network && options.shards <= 1;
  report.fired_points = schedule.fired_points();
  return report;
}

RunReport RunScript(const std::vector<WorkloadStep>& steps,
                    const std::vector<FaultPoint>& points, const HarnessOptions& options,
                    std::uint64_t seed) {
  ScriptedFaultSchedule schedule(points);
  Runner runner(steps, options, seed);
  RunReport report = runner.Run(schedule.AsInjector());
  report.seed = seed;
  report.schedule = options.schedule;
  report.shards = options.shards;
  report.network = options.network && options.shards <= 1;
  report.fired_points = points;
  return report;
}

std::string ReportToString(const RunReport& report) {
  std::string out;
  if (report.ok) {
    out = "ok seed=" + std::to_string(report.seed) +
          " schedule=" + ScheduleKindName(report.schedule) +
          (report.shards > 1 ? " shards=" + std::to_string(report.shards) : "") +
          (report.network ? " network" : "") +
          " steps=" + std::to_string(report.steps_executed) +
          " reboots=" + std::to_string(report.reboots) +
          " trace=" + Hex(report.trace_hash);
    return out;
  }
  out = "FAILED seed=" + std::to_string(report.seed) +
        " schedule=" + ScheduleKindName(report.schedule) + ": " + report.failure +
        "\n  repro: sim_fuzz --seed=" + std::to_string(report.seed) +
        " --schedule=" + ScheduleKindName(report.schedule) +
        " --steps=" + std::to_string(report.steps.size()) +
        (report.shards > 1 ? " --shards=" + std::to_string(report.shards) : "") +
        (report.network ? " --mix=network" : "") +
        "\n  trace=" + Hex(report.trace_hash) + "\n  fault script (" +
        std::to_string(report.fired_points.size()) + " points):";
  for (const FaultPoint& point : report.fired_points) {
    out += "\n    " + FaultPointToString(point);
  }
  out += "\n  steps (" + std::to_string(report.steps.size()) + "):";
  for (const WorkloadStep& step : report.steps) {
    out += "\n    " + StepToString(step);
  }
  return out;
}

}  // namespace sdb::sim
