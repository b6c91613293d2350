#include "kv/db.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "obs/schema.h"

namespace gimbal::kv {

KvDb::KvDb(sim::Simulator& sim, Blobstore& blobs, LocalBlobAllocator& alloc,
           KvDbConfig config)
    : sim_(sim), blobs_(blobs), alloc_(alloc), config_(config) {
  levels_.resize(static_cast<size_t>(config_.levels));
}

void KvDb::Attach(const obs::Sinks& sinks) {
  obs_ = sinks.obs;
  instance_ = sinks.label;
  if (!obs_) return;
  const obs::Labels l = obs::Labels::TenantSsd(instance_, -1);
  m_wal_retries_ = &obs_->metrics.GetCounter(obs::schema::kKvWalRetries, l);
  m_recoveries_ = &obs_->metrics.GetCounter(obs::schema::kKvRecoveries, l);
}

uint64_t KvDb::BytesAt(int level) const {
  uint64_t total = 0;
  for (const auto& t : levels_[level]) total += t->data_bytes();
  return total;
}

uint64_t KvDb::LevelLimit(int level) const {
  assert(level >= 1);
  double limit = static_cast<double>(config_.level1_bytes);
  for (int l = 1; l < level; ++l) limit *= kLevelMultiplier;
  return static_cast<uint64_t>(limit);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void KvDb::Put(Key key, uint32_t value_bytes, uint64_t stamp, PutDone done) {
  ++stats_.puts;
  PutInternal(key, Value{.stamp = stamp, .bytes = value_bytes},
              std::move(done));
}

void KvDb::PutInternal(Key key, const Value& value, PutDone done) {
  if (immutables_.size() >= static_cast<size_t>(config_.max_immutables)) {
    // RocksDB-style write stall: flushes cannot keep up.
    ++stats_.write_stalls;
    stalled_.push_back(StalledPut{key, value, std::move(done)});
    return;
  }
  memtable_.Put(key, value);
  AppendWal(key, value, value.bytes + Memtable::kEntryOverhead,
            std::move(done));
  if (memtable_.bytes() >= config_.memtable_bytes) RotateMemtable();
}

void KvDb::AppendWal(Key key, const Value& value, uint32_t bytes,
                     PutDone done) {
  wal_batch_bytes_ += bytes;
  wal_batch_records_.emplace_back(key, value);
  if (done) wal_batch_waiters_.push_back(std::move(done));
  MaybeFlushWal();
}

bool KvDb::EnsureWalSpace(uint32_t bytes) {
  const BlobAddr& seg = wal_blob_.primary;
  if (seg.valid() && wal_used_ + bytes <= seg.bytes) return true;
  // After a failed commit the next segment avoids the failed backend; if
  // the exclusion is unsatisfiable (single-backend cluster) fall back to
  // unconstrained placement and let the retry loop ride out the fault.
  auto blob = alloc_.AllocateMicro(wal_avoid_backend_);
  if (!blob && wal_avoid_backend_ >= 0) blob = alloc_.AllocateMicro();
  if (!blob) return false;
  auto shadow = alloc_.AllocateMicro(/*exclude_backend=*/blob->backend);
  wal_blob_ = ReplicaPair{*blob, shadow.value_or(BlobAddr{})};
  wal_used_ = 0;
  wal_blobs_.push_back(wal_blob_);
  return true;
}

void KvDb::MaybeFlushWal() {
  if (wal_inflight_ || wal_batch_bytes_ == 0) return;
  uint32_t batch = static_cast<uint32_t>(
      std::min<uint64_t>(wal_batch_bytes_, 256 * 1024));
  const uint64_t epoch = epoch_;
  if (!EnsureWalSpace(batch)) {
    // Allocator exhausted (blobs pinned by in-flight flushes): retry soon
    // so group-committed Puts are never stranded.
    sim_.After(Milliseconds(1), [this, epoch]() {
      if (epoch == epoch_) MaybeFlushWal();
    });
    return;
  }
  wal_inflight_ = true;
  ++stats_.wal_writes;
  auto waiters = std::make_shared<std::vector<PutDone>>(
      std::move(wal_batch_waiters_));
  auto records = std::make_shared<std::vector<std::pair<Key, Value>>>(
      std::move(wal_batch_records_));
  wal_batch_waiters_.clear();
  wal_batch_records_.clear();
  const uint64_t batch_bytes = wal_batch_bytes_;
  wal_batch_bytes_ = 0;
  wal_inflight_waiters_ = waiters;  // a crash aborts these (SimulateCrash)

  const ReplicaPair dst = wal_blob_.Slice(wal_used_, batch);
  wal_used_ += batch;

  blobs_.WriteReplicated(
      dst, kWalPriority,
      [this, waiters, records, backend = dst.primary.backend, batch_bytes,
       epoch](IoStatus st) {
        if (epoch != epoch_) return;  // crash already failed the waiters
        wal_inflight_ = false;
        wal_inflight_waiters_.reset();
        if (st == IoStatus::kOk) {
          // Durable (possibly degraded to one replica — the dirty ledger
          // tracks the missing copy). Commit the records and ack.
          wal_retry_attempts_ = 0;
          wal_avoid_backend_ = -1;
          for (auto& r : *records) wal_records_.push_back(r);
          for (auto& w : *waiters) {
            if (w) w(IoStatus::kOk);
          }
          MaybeFlushWal();  // group-commit the batch accumulated meanwhile
          return;
        }
        if (st == IoStatus::kAborted) {
          // Teardown mid-commit: the batch was never acked; fail it so
          // closed-loop clients unwind instead of waiting forever.
          stats_.aborted_ops += waiters->size();
          for (auto& w : *waiters) {
            if (w) w(IoStatus::kAborted);
          }
          return;
        }
        // Both replicas failed. The ack is HELD — the batch goes back to
        // the head of the queue, the failed segment is abandoned so the
        // next attempt gets fresh placement off the failed backend, and we
        // retry under capped backoff. No acked write is ever lost because
        // no ack ever precedes a durable copy.
        ++stats_.wal_retries;
        if (m_wal_retries_) m_wal_retries_->Add();
        if (obs_) {
          obs_->tracer.Instant(
              sim_.now(), obs::schema::kEvKvWalRetry,
              obs::Labels::TenantSsd(instance_, backend),
              {{"attempt", static_cast<double>(wal_retry_attempts_ + 1)},
               {"status", static_cast<double>(st)}});
        }
        wal_batch_waiters_.insert(wal_batch_waiters_.begin(),
                                  std::make_move_iterator(waiters->begin()),
                                  std::make_move_iterator(waiters->end()));
        wal_batch_records_.insert(wal_batch_records_.begin(), records->begin(),
                                  records->end());
        wal_batch_bytes_ += batch_bytes;
        wal_avoid_backend_ = backend;
        wal_blob_ = ReplicaPair{};
        wal_used_ = 0;
        const Tick backoff =
            blobs_.RetryBackoff(backend, ++wal_retry_attempts_);
        sim_.After(backoff > 0 ? backoff : 1, [this, epoch]() {
          if (epoch == epoch_) MaybeFlushWal();
        });
      });
}

void KvDb::RotateMemtable() {
  Immutable imm;
  imm.table = std::make_shared<Memtable>(std::move(memtable_));
  imm.wal_blobs = std::move(wal_blobs_);
  imm.wal_records = std::move(wal_records_);
  memtable_ = Memtable{};
  wal_blobs_.clear();
  wal_records_.clear();
  wal_blob_ = ReplicaPair{};
  wal_used_ = 0;
  immutables_.push_back(std::move(imm));
  MaybeStartFlush();
}

void KvDb::AllocatePlacement(SsTable& table) {
  const uint32_t micro = 256 * 1024;
  uint64_t need = table.data_bytes();
  while (need > 0) {
    auto primary = alloc_.AllocateMicro();
    if (!primary) {
      // Checked in every build type: an undersized cluster must fail
      // loudly, not write through an empty placement.
      std::fprintf(stderr,
                   "KvDb: blobstore out of space: instance %d needs %llu "
                   "more bytes for table %llu\n",
                   instance_, static_cast<unsigned long long>(need),
                   static_cast<unsigned long long>(table.id()));
      std::abort();
    }
    auto shadow = alloc_.AllocateMicro(primary->backend);
    table.placement.push_back({*primary, shadow.value_or(BlobAddr{})});
    need = need > micro ? need - micro : 0;
  }
}

void KvDb::FreeBlobs(const std::vector<ReplicaPair>& blobs) {
  // TRIM before returning the blobs to the allocator: the SSD's GC stops
  // relocating the dead data, which keeps write amplification down under
  // compaction churn.
  for (const ReplicaPair& r : blobs) {
    blobs_.Trim(r.primary);
    alloc_.FreeMicro(r.primary);
  }
  for (const ReplicaPair& r : blobs) {
    if (!r.shadow.valid()) continue;
    blobs_.Trim(r.shadow);
    alloc_.FreeMicro(r.shadow);
  }
}

struct KvDb::WriteJob {
  uint64_t epoch;
  std::vector<SsTableRef> outputs;
  std::vector<ReplicaPair> writes;  // every output blob, in table order
  std::function<void(std::vector<SsTableRef>)> install;
  size_t next = 0;  // first write not yet issued
  int inflight = 0;
};

void KvDb::WriteTables(
    std::vector<std::pair<Key, Value>> entries,
    std::function<void(std::vector<SsTableRef>)> install) {
  auto job = std::make_shared<WriteJob>();
  job->epoch = epoch_;
  job->install = std::move(install);
  // Chunk sorted entries into target-sized tables.
  std::vector<std::pair<Key, Value>> chunk;
  uint64_t chunk_bytes = 0;
  auto flush_chunk = [&]() {
    if (chunk.empty()) return;
    auto table = std::make_shared<SsTable>(next_table_id_++, std::move(chunk));
    AllocatePlacement(*table);
    job->outputs.push_back(std::move(table));
    chunk = {};
    chunk_bytes = 0;
  };
  for (auto& e : entries) {
    chunk_bytes += e.second.bytes + Memtable::kEntryOverhead;
    chunk.push_back(std::move(e));
    if (chunk_bytes >= config_.sstable_target_bytes) flush_chunk();
  }
  flush_chunk();

  for (const auto& t : job->outputs) {
    for (const ReplicaPair& r : t->placement) {
      stats_.compaction_write_bytes += r.primary.bytes;
      job->writes.push_back(r);
    }
  }
  if (job->writes.empty()) {
    sim_.After(0, [job]() { job->install(std::move(job->outputs)); });
    return;
  }
  PumpWrites(job);
}

// Issue writes with bounded parallelism.
void KvDb::PumpWrites(const std::shared_ptr<WriteJob>& job) {
  while (job->next < job->writes.size() &&
         job->inflight < kCompactionIoDepth) {
    ++job->inflight;
    SubmitWrite(job, job->next++, 0);
  }
}

void KvDb::SubmitWrite(const std::shared_ptr<WriteJob>& job, size_t i,
                       int attempts) {
  blobs_.WriteReplicated(
      job->writes[i], kBackgroundPriority,
      [this, job, i, attempts](IoStatus st) {
        if (job->epoch != epoch_) return;  // the job died with the process
        if (st != IoStatus::kOk && st != IoStatus::kAborted) {
          // Both replicas failed. Rewrite the same pair after backoff: the
          // shadow is placed off the primary's backend, so one recovered
          // SSD is enough to land it (degraded + ledger).
          ++stats_.write_job_retries;
          const Tick backoff = blobs_.RetryBackoff(
              job->writes[i].primary.backend, attempts + 1);
          sim_.After(backoff > 0 ? backoff : 1, [this, job, i, attempts]() {
            if (job->epoch != epoch_) return;
            SubmitWrite(job, i, attempts + 1);
          });
          return;
        }
        // kOk, or kAborted at teardown — either way the pipeline drains.
        --job->inflight;
        if (job->next >= job->writes.size() && job->inflight == 0) {
          job->install(std::move(job->outputs));
          return;
        }
        PumpWrites(job);
      });
}

void KvDb::MaybeStartFlush() {
  if (flush_active_ || immutables_.empty()) return;
  flush_active_ = true;
  ++stats_.flushes;
  const uint64_t epoch = epoch_;
  // Oldest immutable flushes first (ordering matters for recency).
  std::shared_ptr<Memtable> imm = immutables_.front().table;
  WriteTables(imm->Sorted(), [this, epoch](std::vector<SsTableRef> tables) {
    if (epoch != epoch_) return;  // crashed mid-flush: L0 never installed
    for (auto& t : tables) levels_[0].push_back(t);
    // WAL of the flushed memtable is obsolete: trim + free.
    FreeBlobs(immutables_.front().wal_blobs);
    immutables_.pop_front();
    flush_active_ = false;
    DrainStalled();
    MaybeStartFlush();
    MaybeCompact();
  });
}

void KvDb::DrainStalled() {
  while (!stalled_.empty() &&
         immutables_.size() < static_cast<size_t>(config_.max_immutables)) {
    StalledPut p = std::move(stalled_.front());
    stalled_.pop_front();
    PutInternal(p.key, p.value, std::move(p.done));
  }
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

std::vector<std::pair<Key, Value>> KvDb::MergeInputs(
    const std::vector<SsTableRef>& inputs) const {
  // Collect (key, recency, value); newest wins.
  struct Tagged {
    Key key;
    uint64_t recency;
    Value value;
  };
  std::vector<Tagged> all;
  for (const auto& t : inputs) {
    for (uint64_t i = 0; i < t->count(); ++i) {
      all.push_back(Tagged{t->KeyAt(i), t->id(), t->ValueAt(i)});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.recency > b.recency;
  });
  std::vector<std::pair<Key, Value>> merged;
  merged.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && all[i].key == all[i - 1].key) continue;  // older version
    merged.emplace_back(all[i].key, all[i].value);
  }
  return merged;
}

void KvDb::MaybeCompact() {
  if (compaction_active_) return;
  if (levels_[0].size() >= static_cast<size_t>(kL0CompactionTrigger)) {
    CompactIntoNext(0);
    return;
  }
  for (int l = 1; l + 1 < config_.levels; ++l) {
    if (BytesAt(l) > LevelLimit(l)) {
      CompactIntoNext(l);
      return;
    }
  }
}

struct KvDb::ScanJob {
  uint64_t epoch;
  int level;  // inputs come from `level` and `level + 1`
  std::vector<SsTableRef> inputs;  // upper level's first
  std::vector<ReplicaPair> reads;  // every input blob, in input order
  size_t next = 0;  // first read not yet issued
  int inflight = 0;
  IoStatus worst = IoStatus::kOk;
};

void KvDb::CompactIntoNext(int level) {
  compaction_active_ = true;
  ++stats_.compactions;
  auto job = std::make_shared<ScanJob>();
  job->epoch = epoch_;
  job->level = level;

  // Choose inputs: all of L0 (ranges overlap), or one file from Ln picked
  // round-robin; then every overlapping file of the next level.
  std::vector<SsTableRef>& inputs = job->inputs;
  if (level == 0) {
    inputs = levels_[0];
  } else {
    const auto& files = levels_[level];
    inputs.push_back(files[static_cast<size_t>(compact_cursor_++) %
                           files.size()]);
  }
  Key lo = inputs.front()->min_key(), hi = inputs.front()->max_key();
  for (const auto& t : inputs) {
    lo = std::min(lo, t->min_key());
    hi = std::max(hi, t->max_key());
  }
  for (const auto& t : levels_[level + 1]) {
    if (t->max_key() >= lo && t->min_key() <= hi) inputs.push_back(t);
  }

  // Read every input blob (the merge scan), bounded parallelism, then
  // write the merged outputs and swap the manifest.
  for (const auto& t : inputs) {
    for (const ReplicaPair& r : t->placement) {
      job->reads.push_back(r);
      stats_.compaction_read_bytes += r.primary.bytes;
    }
  }
  if (job->reads.empty()) {
    sim_.After(0, [this, job]() { FinishScan(job); });
    return;
  }
  PumpScan(job);
}

void KvDb::PumpScan(const std::shared_ptr<ScanJob>& job) {
  while (job->next < job->reads.size() &&
         job->inflight < kCompactionIoDepth) {
    ++job->inflight;
    blobs_.ReadBalanced(
        job->reads[job->next++], kBackgroundPriority,
        [this, job](IoStatus st) {
          if (job->epoch != epoch_) return;  // crashed: compaction abandoned
          // kAborted is teardown, not a data fault — let the scan drain.
          if (st != IoStatus::kOk && st != IoStatus::kAborted &&
              job->worst == IoStatus::kOk) {
            job->worst = st;
          }
          --job->inflight;
          if (job->next < job->reads.size() || job->inflight > 0) {
            PumpScan(job);
            return;
          }
          if (job->worst != IoStatus::kOk) {
            // A merge-scan read exhausted its failover budget: abort this
            // compaction cleanly and re-attempt after backoff. Inputs stay
            // installed, so reads are unaffected.
            ++stats_.compaction_read_retries;
            compaction_active_ = false;
            const Tick backoff =
                blobs_.RetryBackoff(job->reads.front().primary.backend,
                                    ++compaction_retry_attempts_);
            sim_.After(backoff > 0 ? backoff : 1, [this, epoch = job->epoch]() {
              if (epoch == epoch_) MaybeCompact();
            });
            return;
          }
          compaction_retry_attempts_ = 0;
          FinishScan(job);
        });
  }
}

void KvDb::FinishScan(const std::shared_ptr<ScanJob>& job) {
  if (job->epoch != epoch_) return;  // crashed: compaction abandoned
  WriteTables(MergeInputs(job->inputs),
              [this, job](std::vector<SsTableRef> outputs) {
                if (job->epoch != epoch_) return;  // crashed: never installed
                RetireInputs(*job, std::move(outputs));
              });
}

void KvDb::RetireInputs(const ScanJob& job, std::vector<SsTableRef> outputs) {
  auto gone = [&](const SsTableRef& t) {
    return std::find(job.inputs.begin(), job.inputs.end(), t) !=
           job.inputs.end();
  };
  auto& up = levels_[job.level];
  up.erase(std::remove_if(up.begin(), up.end(), gone), up.end());
  auto& down = levels_[job.level + 1];
  down.erase(std::remove_if(down.begin(), down.end(), gone), down.end());
  for (auto& t : outputs) down.push_back(std::move(t));
  std::sort(down.begin(), down.end(),
            [](const SsTableRef& a, const SsTableRef& b) {
              return a->min_key() < b->min_key();
            });
  for (const auto& t : job.inputs) FreeBlobs(t->placement);
  compaction_active_ = false;
  MaybeCompact();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

struct KvDb::ProbeJob {
  Key key;
  uint64_t epoch;
  GetDone done;
  std::vector<SsTableRef> candidates;  // in recency order
};

void KvDb::Get(Key key, GetDone done) {
  ++stats_.gets;
  auto job = std::make_shared<ProbeJob>();
  job->key = key;
  job->epoch = epoch_;
  job->done = std::move(done);
  // Memory hits: memtable, then immutables newest-first.
  if (auto v = memtable_.Get(key)) {
    ++stats_.memory_hits;
    Respond(job, IoStatus::kOk, true, *v);
    return;
  }
  for (auto it = immutables_.rbegin(); it != immutables_.rend(); ++it) {
    if (auto v = it->table->Get(key)) {
      ++stats_.memory_hits;
      Respond(job, IoStatus::kOk, true, *v);
      return;
    }
  }

  // Candidate SSTables: L0 newest-first, then one file per deeper level.
  for (auto it = levels_[0].rbegin(); it != levels_[0].rend(); ++it) {
    if ((*it)->MayContain(key)) job->candidates.push_back(*it);
  }
  for (int l = 1; l < config_.levels; ++l) {
    const auto& files = levels_[l];
    auto it = std::lower_bound(files.begin(), files.end(), key,
                               [](const SsTableRef& t, Key k) {
                                 return t->max_key() < k;
                               });
    if (it != files.end() && (*it)->MayContain(key)) {
      job->candidates.push_back(*it);
    }
  }
  Probe(job, 0);
}

// Probe candidate `i`, in recency order; each probe costs one data-block IO.
void KvDb::Probe(const std::shared_ptr<ProbeJob>& job, size_t i) {
  if (i >= job->candidates.size()) {
    Respond(job, IoStatus::kOk, false, Value{});
    return;
  }
  const SsTable& t = *job->candidates[i];
  ++stats_.data_block_reads;
  blobs_.ReadBalanced(
      t.BlobForOffset(t.BlockOffsetOf(job->key), 4096), kReadPriority,
      [this, job, i](IoStatus st) {
        if (st != IoStatus::kOk) {
          // Failover budget exhausted (or teardown): surface the fault
          // instead of inventing a not-found.
          Respond(job, st, false, Value{});
          return;
        }
        auto v = job->candidates[i]->Lookup(job->key);
        if (v) {
          Respond(job, IoStatus::kOk, true, *v);
          return;
        }
        Probe(job, i + 1);  // bloom false positive
      });
}

void KvDb::Respond(const std::shared_ptr<ProbeJob>& job, IoStatus st,
                   bool found, Value v) {
  if (job->epoch != epoch_) {  // the process died while the op was in flight
    ++stats_.aborted_ops;
    st = IoStatus::kAborted;
    found = false;
    v = Value{};
  }
  if (found) ++stats_.gets_found;
  sim_.After(0, [job, st, found, v]() {
    if (job->done) job->done(st, found, v);
  });
}

// ---------------------------------------------------------------------------
// Crash / recovery
// ---------------------------------------------------------------------------

void KvDb::SimulateCrash() {
  ++epoch_;
  ++stats_.crashes;
  // Collapse every surviving WAL segment — immutables oldest-first, then
  // the active memtable's — into one durable list for Recover(). The
  // SSTable manifest (levels_) models durable metadata and survives.
  std::vector<ReplicaPair> blobs;
  std::vector<std::pair<Key, Value>> records;
  for (auto& imm : immutables_) {
    blobs.insert(blobs.end(), imm.wal_blobs.begin(), imm.wal_blobs.end());
    records.insert(records.end(), imm.wal_records.begin(),
                   imm.wal_records.end());
  }
  blobs.insert(blobs.end(), wal_blobs_.begin(), wal_blobs_.end());
  records.insert(records.end(), wal_records_.begin(), wal_records_.end());
  memtable_ = Memtable{};
  immutables_.clear();
  wal_blobs_ = std::move(blobs);
  wal_records_ = std::move(records);
  wal_blob_ = ReplicaPair{};  // never append into pre-crash durable bytes
  wal_used_ = 0;

  // Un-acked work dies with the process: the batch on the wire, the batch
  // still queueing, and stalled writers all fail kAborted. Callbacks fire
  // from the event loop, not mid-crash, so clients re-enter a consistent
  // DB.
  std::vector<PutDone> aborted;
  if (wal_inflight_waiters_) {
    for (auto& w : *wal_inflight_waiters_) aborted.push_back(std::move(w));
    wal_inflight_waiters_->clear();
    wal_inflight_waiters_.reset();
  }
  for (auto& w : wal_batch_waiters_) aborted.push_back(std::move(w));
  wal_batch_waiters_.clear();
  wal_batch_records_.clear();
  wal_batch_bytes_ = 0;
  wal_inflight_ = false;
  wal_retry_attempts_ = 0;
  wal_avoid_backend_ = -1;
  for (auto& p : stalled_) aborted.push_back(std::move(p.done));
  stalled_.clear();
  stats_.aborted_ops += aborted.size();
  if (!aborted.empty()) {
    sim_.After(0, [aborted = std::make_shared<std::vector<PutDone>>(
                       std::move(aborted))]() {
      for (auto& w : *aborted) {
        if (w) w(IoStatus::kAborted);
      }
    });
  }

  // In-flight flush/compaction continuations are epoch-guarded and never
  // land; their allocated output blobs leak until teardown, like a real
  // crash leaks orphan files until GC.
  flush_active_ = false;
  compaction_active_ = false;
  compaction_retry_attempts_ = 0;
}

void KvDb::Recover(PutDone done) {
  ++stats_.recoveries;
  if (m_recoveries_) m_recoveries_->Add();
  const uint64_t epoch = epoch_;
  // Snapshot the segment list before replay: replay can rotate the
  // memtable, which moves wal_blobs_ into a fresh immutable.
  const std::vector<ReplicaPair> segments = wal_blobs_;
  // Replay applies synchronously in commit order (last writer wins), so
  // recovered state is visible to the very next operation; the reads
  // below pay the recovery IO in simulated time.
  stats_.replayed_records += wal_records_.size();
  if (obs_) {
    obs_->tracer.Instant(
        sim_.now(), obs::schema::kEvKvRecover,
        obs::Labels::TenantSsd(instance_, -1),
        {{"records", static_cast<double>(wal_records_.size())},
         {"segments", static_cast<double>(segments.size())}});
  }
  for (const auto& [k, v] : wal_records_) {
    memtable_.Put(k, v);
  }
  if (memtable_.bytes() >= config_.memtable_bytes) RotateMemtable();

  auto shared_done = std::make_shared<PutDone>(std::move(done));
  if (segments.empty()) {
    sim_.After(0, [shared_done]() {
      if (*shared_done) (*shared_done)(IoStatus::kOk);
    });
    return;
  }
  auto remaining = std::make_shared<size_t>(segments.size());
  auto worst = std::make_shared<IoStatus>(IoStatus::kOk);
  for (const ReplicaPair& segment : segments) {
    blobs_.ReadBalanced(
        segment, kReadPriority,
        [remaining, worst, shared_done, epoch, this](IoStatus st) {
          if (st != IoStatus::kOk && *worst == IoStatus::kOk) *worst = st;
          if (--*remaining > 0) return;
          const IoStatus final_st =
              epoch != epoch_ ? IoStatus::kAborted : *worst;
          if (*shared_done) (*shared_done)(final_st);
        });
  }
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

void KvDb::BulkLoad(uint64_t keys, uint32_t value_bytes) {
  // Every key of 0..keys-1 is present with one uniform value, so each
  // bottom-level table is a range: the same chunking as WriteTables (close
  // a table once it reaches the target size), without an entry list.
  const Value value{.stamp = 0, .bytes = value_bytes};
  const uint64_t entry_bytes = value_bytes + Memtable::kEntryOverhead;
  const uint64_t per_table = std::max<uint64_t>(
      1, (config_.sstable_target_bytes + entry_bytes - 1) / entry_bytes);
  auto& bottom = levels_[static_cast<size_t>(config_.levels - 1)];
  for (uint64_t first = 0; first < keys; first += per_table) {
    auto table = std::make_shared<SsTable>(
        next_table_id_++, first, std::min(per_table, keys - first), value);
    AllocatePlacement(*table);
    bottom.push_back(std::move(table));
  }
}

}  // namespace gimbal::kv
