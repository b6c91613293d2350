#include "kv/cluster.h"

namespace gimbal::kv {

KvCluster::KvCluster(KvClusterConfig cfg)
    : cfg_(cfg),
      bed_(cfg.testbed),
      global_(cfg.testbed.num_ssds, cfg.hba) {}

KvCluster::Instance& KvCluster::AddInstance() {
  auto inst = std::make_unique<Instance>();
  inst->id = static_cast<int>(instances_.size());
  for (int b = 0; b < cfg_.testbed.num_ssds; ++b) {
    inst->initiators.push_back(&bed_.AddInitiator(b, cfg_.throttle));
  }
  inst->blobs = std::make_unique<Blobstore>(bed_.sim(), inst->initiators,
                                            cfg_.load_balance_reads);
  inst->blobs->AttachObservability(bed_.config().obs, inst->id);
  inst->blobs->AttachChecker(&bed_.checker());
  Blobstore* blobs = inst->blobs.get();
  // The local allocator's load signal is the §3.7 virtual-view credit.
  inst->alloc = std::make_unique<LocalBlobAllocator>(
      global_, [blobs](int backend) { return blobs->credits(backend); });
  if (bed_.nodes() > 1) {
    // Rack bed: replica placement spreads across failure domains — the
    // allocator excludes the whole node, the blobstore proves it per write.
    std::vector<int> node_of(static_cast<size_t>(cfg_.testbed.num_ssds));
    for (int b = 0; b < cfg_.testbed.num_ssds; ++b) {
      node_of[static_cast<size_t>(b)] = bed_.node_of(b);
    }
    inst->blobs->SetNodeMap(node_of);
    inst->alloc->SetNodeMap(std::move(node_of));
  }
  inst->db = std::make_unique<KvDb>(bed_.sim(), *inst->blobs, *inst->alloc,
                                    cfg_.db);
  inst->db->AttachObservability(bed_.config().obs, inst->id);
  // Re-replication rides at background priority next to flush/compaction;
  // the ledger callback wakes it on a new dirty entry or an observed
  // backend recovery. Fault-free it never runs.
  inst->rebuild = std::make_unique<RebuildScanner>(bed_.sim(), *inst->blobs);
  RebuildScanner* rebuild = inst->rebuild.get();
  inst->blobs->SetDirtyCallback([rebuild]() { rebuild->Poke(); });
  instances_.push_back(std::move(inst));
  return *instances_.back();
}

YcsbClient::YcsbClient(sim::Simulator& sim, KvDb& db,
                       workload::YcsbSpec spec, int concurrency)
    : sim_(sim), db_(db), gen_(spec), concurrency_(concurrency) {}

void YcsbClient::Start() {
  if (running_) return;
  running_ = true;
  for (int i = 0; i < concurrency_; ++i) IssueOne();
}

void YcsbClient::Finish(Tick start, bool is_read) {
  Tick lat = sim_.now() - start;
  stats_.op_latency.Record(lat);
  if (is_read) stats_.read_latency.Record(lat);
  ++stats_.ops;
  if (running_) IssueOne();
}

bool YcsbClient::Note(IoStatus st) {
  if (st == IoStatus::kOk) return true;
  if (st == IoStatus::kAborted) {
    ++stats_.aborted;
  } else {
    ++stats_.failed;
  }
  return false;
}

void YcsbClient::IssueOne() {
  auto op = gen_.Next();
  Tick start = sim_.now();
  const uint32_t vb = gen_.spec().value_bytes;
  switch (op.op) {
    case workload::YcsbOp::kRead:
      ++stats_.reads;
      db_.Get(op.key, [this, start](IoStatus st, bool found, Value) {
        if (Note(st) && !found) ++stats_.not_found;
        Finish(start, true);
      });
      break;
    case workload::YcsbOp::kUpdate:
      ++stats_.updates;
      db_.Put(op.key, vb, next_stamp_++, [this, start](IoStatus st) {
        Note(st);
        Finish(start, false);
      });
      break;
    case workload::YcsbOp::kInsert:
      ++stats_.inserts;
      db_.Put(op.key, vb, next_stamp_++, [this, start](IoStatus st) {
        Note(st);
        Finish(start, false);
      });
      break;
    case workload::YcsbOp::kReadModifyWrite:
      ++stats_.rmws;
      db_.Get(op.key,
              [this, start, key = op.key, vb](IoStatus st, bool found, Value) {
                if (Note(st) && !found) ++stats_.not_found;
                // The write half proceeds regardless: a failed read does
                // not invalidate the modify-write (blind RMW semantics).
                db_.Put(key, vb, next_stamp_++, [this, start](IoStatus wst) {
                  Note(wst);
                  Finish(start, false);
                });
              });
      break;
  }
}

}  // namespace gimbal::kv
