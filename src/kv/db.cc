#include "kv/db.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/schema.h"

namespace gimbal::kv {

KvDb::KvDb(sim::Simulator& sim, Blobstore& blobs, LocalBlobAllocator& alloc,
           KvDbConfig config)
    : sim_(sim), blobs_(blobs), alloc_(alloc), config_(config) {
  levels_.resize(static_cast<size_t>(config_.levels));
}

void KvDb::AttachObservability(obs::Observability* obs, int32_t instance) {
  obs_ = obs;
  instance_ = instance;
  if (!obs_) return;
  const obs::Labels l = obs::Labels::TenantSsd(instance, -1);
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
  for (int l = 1; l < level; ++l) limit *= config_.level_multiplier;
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

void KvDb::Delete(Key key, PutDone done) {
  ++stats_.deletes;
  PutInternal(key, Value{.stamp = 0, .bytes = 0, .tombstone = true},
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
  if (config_.wal) {
    AppendWal(key, value, value.bytes + Memtable::kEntryOverhead,
              std::move(done));
  } else if (done) {
    // No WAL: "durable" as soon as it is in memory. Weaker contract by
    // configuration, not a fault path.
    sim_.After(0, [done = std::move(done)]() { done(IoStatus::kOk); });
  }
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
  if (wal_blob_.valid() && wal_used_ + bytes <= wal_blob_.bytes) return true;
  // After a failed commit the next segment avoids the failed backend; if
  // the exclusion is unsatisfiable (single-backend cluster) fall back to
  // unconstrained placement and let the retry loop ride out the fault.
  auto blob = alloc_.AllocateMicro(wal_avoid_backend_);
  if (!blob && wal_avoid_backend_ >= 0) blob = alloc_.AllocateMicro();
  if (!blob) return false;
  wal_blob_ = *blob;
  wal_used_ = 0;
  wal_blobs_.push_back(*blob);
  if (config_.replicate) {
    auto shadow = alloc_.AllocateMicro(/*exclude_backend=*/blob->backend);
    wal_shadow_ = shadow.value_or(BlobAddr{});
    if (shadow) wal_shadow_blobs_.push_back(*shadow);
  }
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

  BlobAddr dst = wal_blob_;
  dst.offset += wal_used_;
  dst.bytes = batch;
  BlobAddr sdst = wal_shadow_;
  if (sdst.valid()) {
    sdst.offset += wal_used_;
    sdst.bytes = batch;
  }
  wal_used_ += batch;

  blobs_.WriteReplicated(
      dst, sdst, config_.wal_priority,
      [this, waiters, records, dst, batch_bytes, epoch](IoStatus st) {
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
              obs::Labels::TenantSsd(instance_, dst.backend),
              {{"attempt", static_cast<double>(wal_retry_attempts_ + 1)},
               {"status", static_cast<double>(st)}});
        }
        wal_batch_waiters_.insert(wal_batch_waiters_.begin(),
                                  std::make_move_iterator(waiters->begin()),
                                  std::make_move_iterator(waiters->end()));
        wal_batch_records_.insert(wal_batch_records_.begin(), records->begin(),
                                  records->end());
        wal_batch_bytes_ += batch_bytes;
        wal_avoid_backend_ = dst.backend;
        wal_blob_ = BlobAddr{};
        wal_shadow_ = BlobAddr{};
        wal_used_ = 0;
        const Tick backoff =
            blobs_.RetryBackoff(dst.backend, ++wal_retry_attempts_);
        sim_.After(backoff > 0 ? backoff : 1, [this, epoch]() {
          if (epoch == epoch_) MaybeFlushWal();
        });
      });
}

void KvDb::RotateMemtable() {
  Immutable imm;
  imm.table = std::make_shared<Memtable>(std::move(memtable_));
  imm.wal_blobs = std::move(wal_blobs_);
  imm.wal_shadow_blobs = std::move(wal_shadow_blobs_);
  imm.wal_records = std::move(wal_records_);
  memtable_ = Memtable{};
  wal_blobs_.clear();
  wal_shadow_blobs_.clear();
  wal_records_.clear();
  wal_blob_ = BlobAddr{};
  wal_shadow_ = BlobAddr{};
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
    table.primary_blobs.push_back(*primary);
    if (config_.replicate) {
      auto shadow = alloc_.AllocateMicro(primary->backend);
      if (shadow) table.shadow_blobs.push_back(*shadow);
    }
    need = need > micro ? need - micro : 0;
  }
}

void KvDb::FreePlacement(const SsTable& table) {
  // TRIM before returning the blobs to the allocator: the SSD's GC stops
  // relocating the dead table data, which keeps write amplification down
  // under compaction churn.
  for (const auto& b : table.primary_blobs) {
    blobs_.Trim(b);
    alloc_.FreeMicro(b);
  }
  for (const auto& b : table.shadow_blobs) {
    blobs_.Trim(b);
    alloc_.FreeMicro(b);
  }
}

void KvDb::WriteTables(
    std::vector<std::pair<Key, Value>> entries,
    std::function<void(std::vector<SsTableRef>)> install) {
  auto outputs = std::make_shared<std::vector<SsTableRef>>();
  // Chunk sorted entries into target-sized tables.
  std::vector<std::pair<Key, Value>> chunk;
  uint64_t chunk_bytes = 0;
  auto flush_chunk = [&]() {
    if (chunk.empty()) return;
    auto table = std::make_shared<SsTable>(next_table_id_++, std::move(chunk));
    AllocatePlacement(*table);
    outputs->push_back(std::move(table));
    chunk = {};
    chunk_bytes = 0;
  };
  for (auto& e : entries) {
    chunk_bytes += e.second.bytes + Memtable::kEntryOverhead;
    chunk.push_back(std::move(e));
    if (chunk_bytes >= config_.sstable_target_bytes) flush_chunk();
  }
  flush_chunk();

  // Gather all blob writes and issue them with bounded parallelism.
  struct WriteJob {
    BlobAddr primary, shadow;
  };
  auto jobs = std::make_shared<std::vector<WriteJob>>();
  for (const auto& t : *outputs) {
    for (size_t i = 0; i < t->primary_blobs.size(); ++i) {
      WriteJob j;
      j.primary = t->primary_blobs[i];
      j.shadow = i < t->shadow_blobs.size() ? t->shadow_blobs[i] : BlobAddr{};
      stats_.compaction_write_bytes += j.primary.bytes;
      jobs->push_back(j);
    }
  }
  const uint64_t epoch = epoch_;
  if (jobs->empty()) {
    sim_.After(0, [outputs, install = std::move(install)]() {
      install(*outputs);
    });
    return;
  }
  auto next = std::make_shared<size_t>(0);
  auto inflight = std::make_shared<int>(0);
  // The stored pipeline functions capture only weak self-references —
  // strong references ride in the in-flight completions — so the pipeline
  // state frees itself once the last IO completes instead of living in a
  // shared_ptr cycle.
  auto pump = std::make_shared<std::function<void()>>();
  auto submit = std::make_shared<std::function<void(WriteJob, int)>>();
  *submit = [this, jobs, next, inflight, outputs, install,
             wpump = std::weak_ptr<std::function<void()>>(pump),
             wsubmit = std::weak_ptr<std::function<void(WriteJob, int)>>(
                 submit),
             epoch](WriteJob j, int attempts) {
    auto pump_s = wpump.lock();
    auto submit_s = wsubmit.lock();
    blobs_.WriteReplicated(
        j.primary, j.shadow, config_.background_priority,
        [this, j, attempts, jobs, next, inflight, outputs, install, pump_s,
         submit_s, epoch](IoStatus st) {
          if (epoch != epoch_) return;  // the job died with the process
          if (st != IoStatus::kOk && st != IoStatus::kAborted) {
            // Both replicas failed. Rewrite the same pair after backoff:
            // the shadow is placed off the primary's backend, so one
            // recovered SSD is enough to land it (degraded + ledger).
            ++stats_.write_job_retries;
            const Tick backoff =
                blobs_.RetryBackoff(j.primary.backend, attempts + 1);
            sim_.After(backoff > 0 ? backoff : 1,
                       [this, submit_s, pump_s, j, attempts, epoch]() {
                         if (epoch != epoch_) return;
                         (*submit_s)(j, attempts + 1);
                       });
            return;
          }
          // kOk, or kAborted at teardown — either way the pipeline drains.
          --*inflight;
          if (*next >= jobs->size() && *inflight == 0) {
            install(*outputs);
            return;
          }
          (*pump_s)();
        });
  };
  *pump = [this, jobs, next, inflight,
           wsubmit =
               std::weak_ptr<std::function<void(WriteJob, int)>>(submit)]() {
    auto submit_s = wsubmit.lock();
    while (*next < jobs->size() && *inflight < config_.compaction_io_depth) {
      WriteJob j = (*jobs)[(*next)++];
      ++*inflight;
      (*submit_s)(j, 0);
    }
  };
  (*pump)();
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
    for (const auto& b : immutables_.front().wal_blobs) {
      blobs_.Trim(b);
      alloc_.FreeMicro(b);
    }
    for (const auto& b : immutables_.front().wal_shadow_blobs) {
      blobs_.Trim(b);
      alloc_.FreeMicro(b);
    }
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
    const std::vector<SsTableRef>& inputs, bool to_bottom) const {
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
    if (to_bottom && all[i].value.tombstone) continue;    // drop tombstones
    merged.emplace_back(all[i].key, all[i].value);
  }
  return merged;
}

void KvDb::MaybeCompact() {
  if (compaction_active_) return;
  if (levels_[0].size() >=
      static_cast<size_t>(config_.l0_compaction_trigger)) {
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

void KvDb::CompactIntoNext(int level) {
  compaction_active_ = true;
  ++stats_.compactions;
  const int next_level = level + 1;
  const uint64_t epoch = epoch_;

  // Choose inputs: all of L0 (ranges overlap), or one file from Ln picked
  // round-robin.
  std::vector<SsTableRef> upper;
  if (level == 0) {
    upper = levels_[0];
  } else {
    auto& files = levels_[level];
    upper.push_back(files[static_cast<size_t>(compact_cursor_) % files.size()]);
    ++compact_cursor_;
  }
  Key lo = upper.front()->min_key(), hi = upper.front()->max_key();
  for (const auto& t : upper) {
    lo = std::min(lo, t->min_key());
    hi = std::max(hi, t->max_key());
  }
  std::vector<SsTableRef> lower;
  for (const auto& t : levels_[next_level]) {
    if (t->max_key() >= lo && t->min_key() <= hi) lower.push_back(t);
  }

  std::vector<SsTableRef> inputs = upper;
  inputs.insert(inputs.end(), lower.begin(), lower.end());

  // Read every input blob (the merge scan), bounded parallelism, then
  // write the merged outputs and swap the manifest.
  auto addrs = std::make_shared<std::vector<std::pair<BlobAddr, BlobAddr>>>();
  for (const auto& t : inputs) {
    for (size_t i = 0; i < t->primary_blobs.size(); ++i) {
      BlobAddr s =
          i < t->shadow_blobs.size() ? t->shadow_blobs[i] : BlobAddr{};
      addrs->emplace_back(t->primary_blobs[i], s);
      stats_.compaction_read_bytes += t->primary_blobs[i].bytes;
    }
  }
  bool to_bottom = next_level == config_.levels - 1;
  auto finish_reads = [this, inputs, upper, lower, level, next_level,
                       to_bottom, epoch]() {
    if (epoch != epoch_) return;  // crashed: compaction abandoned
    std::vector<std::pair<Key, Value>> merged = MergeInputs(inputs, to_bottom);
    if (merged.empty()) {
      // Everything was tombstones: just drop the inputs.
      for (const auto& t : upper) FreePlacement(*t);
      for (const auto& t : lower) FreePlacement(*t);
      auto gone = [&](const SsTableRef& t) {
        for (const auto& u : upper) {
          if (u == t) return true;
        }
        for (const auto& d : lower) {
          if (d == t) return true;
        }
        return false;
      };
      auto& up = levels_[level];
      up.erase(std::remove_if(up.begin(), up.end(), gone), up.end());
      auto& down = levels_[next_level];
      down.erase(std::remove_if(down.begin(), down.end(), gone), down.end());
      compaction_active_ = false;
      MaybeCompact();
      return;
    }
    WriteTables(std::move(merged), [this, upper, lower, level, next_level,
                                    epoch](std::vector<SsTableRef> outputs) {
      if (epoch != epoch_) return;  // crashed: outputs never installed
      auto gone = [&](const SsTableRef& t) {
        for (const auto& u : upper) {
          if (u == t) return true;
        }
        for (const auto& d : lower) {
          if (d == t) return true;
        }
        return false;
      };
      auto& up = levels_[level];
      up.erase(std::remove_if(up.begin(), up.end(), gone), up.end());
      auto& down = levels_[next_level];
      down.erase(std::remove_if(down.begin(), down.end(), gone), down.end());
      for (auto& t : outputs) down.push_back(t);
      std::sort(down.begin(), down.end(),
                [](const SsTableRef& a, const SsTableRef& b) {
                  return a->min_key() < b->min_key();
                });
      for (const auto& t : upper) FreePlacement(*t);
      for (const auto& t : lower) FreePlacement(*t);
      compaction_active_ = false;
      MaybeCompact();
    });
  };

  if (addrs->empty()) {
    sim_.After(0, finish_reads);
    return;
  }
  auto next = std::make_shared<size_t>(0);
  auto inflight = std::make_shared<int>(0);
  auto worst = std::make_shared<IoStatus>(IoStatus::kOk);
  // Weak self-reference in the stored function; strong refs live in the
  // in-flight read completions (see WriteTables for the pattern).
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, addrs, next, inflight, worst, finish_reads,
           wpump = std::weak_ptr<std::function<void()>>(pump), epoch]() {
    auto pump_s = wpump.lock();
    while (*next < addrs->size() && *inflight < config_.compaction_io_depth) {
      auto [p, s] = (*addrs)[(*next)++];
      ++*inflight;
      blobs_.ReadBalanced(
          p, s, config_.background_priority,
          [this, addrs, next, inflight, worst, finish_reads, pump_s,
           epoch](IoStatus st) {
            if (epoch != epoch_) return;  // crashed: compaction abandoned
            // kAborted is teardown, not a data fault — let the scan drain.
            if (st != IoStatus::kOk && st != IoStatus::kAborted &&
                *worst == IoStatus::kOk) {
              *worst = st;
            }
            --*inflight;
            if (*next >= addrs->size() && *inflight == 0) {
              if (*worst != IoStatus::kOk) {
                // A merge-scan read exhausted its failover budget: abort
                // this compaction cleanly and re-attempt after backoff.
                // Inputs stay installed, so reads are unaffected.
                ++stats_.compaction_read_retries;
                compaction_active_ = false;
                const Tick backoff = blobs_.RetryBackoff(
                    addrs->front().first.backend, ++compaction_retry_attempts_);
                sim_.After(backoff > 0 ? backoff : 1, [this, epoch]() {
                  if (epoch == epoch_) MaybeCompact();
                });
                return;
              }
              compaction_retry_attempts_ = 0;
              finish_reads();
              return;
            }
            (*pump_s)();
          });
    }
  };
  (*pump)();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void KvDb::Get(Key key, GetDone done) {
  ++stats_.gets;
  const uint64_t epoch = epoch_;
  auto shared_done = std::make_shared<GetDone>(std::move(done));
  auto respond = [this, shared_done, epoch](IoStatus st, bool found, Value v) {
    if (epoch != epoch_) {  // the process died while the op was in flight
      ++stats_.aborted_ops;
      st = IoStatus::kAborted;
      found = false;
      v = Value{};
    }
    if (found) ++stats_.gets_found;
    sim_.After(0, [st, found, v, shared_done]() {
      if (*shared_done) (*shared_done)(st, found, v);
    });
  };
  // Memory hits: memtable, then immutables newest-first.
  if (auto v = memtable_.Get(key)) {
    ++stats_.memory_hits;
    respond(IoStatus::kOk, !v->tombstone, *v);
    return;
  }
  for (auto it = immutables_.rbegin(); it != immutables_.rend(); ++it) {
    if (auto v = it->table->Get(key)) {
      ++stats_.memory_hits;
      respond(IoStatus::kOk, !v->tombstone, *v);
      return;
    }
  }

  // Candidate SSTables: L0 newest-first, then one file per deeper level.
  auto candidates = std::make_shared<std::vector<SsTableRef>>();
  for (auto it = levels_[0].rbegin(); it != levels_[0].rend(); ++it) {
    if ((*it)->MayContain(key)) candidates->push_back(*it);
  }
  for (int l = 1; l < config_.levels; ++l) {
    const auto& files = levels_[l];
    auto it = std::lower_bound(files.begin(), files.end(), key,
                               [](const SsTableRef& t, Key k) {
                                 return t->max_key() < k;
                               });
    if (it != files.end() && (*it)->MayContain(key)) {
      candidates->push_back(*it);
    }
  }
  if (candidates->empty()) {
    respond(IoStatus::kOk, false, Value{});
    return;
  }

  // Probe candidates in recency order; each probe costs one data-block IO.
  // The stored function holds only a weak self-reference; the in-flight
  // read completion carries the strong one, so the probe chain frees
  // itself when the last hop resolves.
  auto probe = std::make_shared<std::function<void(size_t)>>();
  *probe = [this, candidates,
            wprobe = std::weak_ptr<std::function<void(size_t)>>(probe),
            respond, key](size_t i) {
    if (i >= candidates->size()) {
      respond(IoStatus::kOk, false, Value{});
      return;
    }
    SsTableRef t = (*candidates)[i];
    uint64_t off = t->BlockOffsetOf(key);
    auto [p, s] = t->BlobForOffset(off, 4096);
    ++stats_.data_block_reads;
    auto probe_s = wprobe.lock();
    blobs_.ReadBalanced(p, s, config_.read_priority,
                        [t, key, probe_s, i, respond](IoStatus st) {
                          if (st != IoStatus::kOk) {
                            // Failover budget exhausted (or teardown):
                            // surface the fault instead of inventing a
                            // not-found.
                            respond(st, false, Value{});
                            return;
                          }
                          auto v = t->Lookup(key);
                          if (v) {
                            respond(IoStatus::kOk, !v->tombstone,
                                    v->tombstone ? Value{} : *v);
                            return;
                          }
                          (*probe_s)(i + 1);  // bloom false positive
                        });
  };
  (*probe)(0);
}

void KvDb::Scan(Key start, uint32_t count, ScanDone done) {
  ++stats_.scans;
  const uint64_t epoch = epoch_;
  // Merge the live view of [start, ...): newest source wins per key.
  // Memtable recency > immutables (newest-first) > tables by id.
  std::map<Key, std::pair<uint64_t, Value>> merged;  // key -> (recency, v)
  auto offer = [&](Key k, uint64_t recency, const Value& v) {
    auto it = merged.find(k);
    if (it == merged.end() || it->second.first < recency) {
      merged[k] = {recency, v};
    }
  };
  auto offer_memtable = [&](const Memtable& m, uint64_t recency) {
    auto snap = m.Sorted();
    auto it = std::lower_bound(
        snap.begin(), snap.end(), start,
        [](const auto& e, Key k) { return e.first < k; });
    for (uint32_t n = 0; it != snap.end() && n < count; ++it, ++n) {
      offer(it->first, recency, it->second);
    }
  };
  constexpr uint64_t kMemRecency = UINT64_MAX;
  offer_memtable(memtable_, kMemRecency);
  uint64_t imm_recency = kMemRecency - 1;
  for (auto imm = immutables_.rbegin(); imm != immutables_.rend(); ++imm) {
    offer_memtable(*imm->table, imm_recency--);
  }

  // Overlapping SSTables contribute entries and cost IO proportional to
  // the bytes scanned in each.
  uint32_t block_reads = 0;
  std::vector<std::pair<BlobAddr, BlobAddr>> ios;
  for (int l = 0; l < config_.levels; ++l) {
    for (const auto& t : levels_[l]) {
      if (t->max_key() < start) continue;
      uint64_t touched = 0;
      for (uint64_t i = t->RankOf(start), n = 0; i < t->count() && n < count;
           ++i, ++n) {
        offer(t->KeyAt(i), t->id(), t->ValueAt(i));
        touched += t->ValueAt(i).bytes + Memtable::kEntryOverhead;
      }
      // One 256 KiB streaming read per touched chunk.
      uint64_t off = t->BlockOffsetOf(start);
      for (uint64_t done_bytes = 0; done_bytes < touched;
           done_bytes += 256 * 1024) {
        auto [p, s] = t->BlobForOffset(
            std::min<uint64_t>(off + done_bytes,
                               t->data_bytes() > 0 ? t->data_bytes() - 1 : 0),
            static_cast<uint32_t>(
                std::min<uint64_t>(256 * 1024, touched - done_bytes)));
        ios.emplace_back(p, s);
        ++block_reads;
      }
    }
  }
  stats_.scan_block_reads += block_reads;

  // Assemble results: first `count` live keys.
  auto results = std::make_shared<std::vector<std::pair<Key, Value>>>();
  for (const auto& [k, rv] : merged) {
    if (rv.second.tombstone) continue;
    results->push_back({k, rv.second});
    if (results->size() >= count) break;
  }

  auto shared_done = std::make_shared<ScanDone>(std::move(done));
  if (ios.empty()) {
    sim_.After(0, [results, shared_done]() {
      if (*shared_done) (*shared_done)(IoStatus::kOk, std::move(*results));
    });
    return;
  }
  auto remaining = std::make_shared<size_t>(ios.size());
  auto worst = std::make_shared<IoStatus>(IoStatus::kOk);
  for (auto& [p, s] : ios) {
    blobs_.ReadBalanced(
        p, s, config_.read_priority,
        [this, remaining, worst, results, shared_done, epoch](IoStatus st) {
          if (st != IoStatus::kOk && *worst == IoStatus::kOk) *worst = st;
          if (--*remaining > 0) return;
          IoStatus final_st = *worst;
          if (epoch != epoch_) {  // crashed mid-scan
            ++stats_.aborted_ops;
            final_st = IoStatus::kAborted;
            results->clear();
          }
          if (*shared_done) (*shared_done)(final_st, std::move(*results));
        });
  }
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
  std::vector<BlobAddr> blobs;
  std::vector<BlobAddr> shadows;
  std::vector<std::pair<Key, Value>> records;
  for (auto& imm : immutables_) {
    blobs.insert(blobs.end(), imm.wal_blobs.begin(), imm.wal_blobs.end());
    shadows.insert(shadows.end(), imm.wal_shadow_blobs.begin(),
                   imm.wal_shadow_blobs.end());
    records.insert(records.end(), imm.wal_records.begin(),
                   imm.wal_records.end());
  }
  blobs.insert(blobs.end(), wal_blobs_.begin(), wal_blobs_.end());
  shadows.insert(shadows.end(), wal_shadow_blobs_.begin(),
                 wal_shadow_blobs_.end());
  records.insert(records.end(), wal_records_.begin(), wal_records_.end());
  memtable_ = Memtable{};
  immutables_.clear();
  wal_blobs_ = std::move(blobs);
  wal_shadow_blobs_ = std::move(shadows);
  wal_records_ = std::move(records);
  wal_blob_ = BlobAddr{};  // never append into pre-crash durable bytes
  wal_shadow_ = BlobAddr{};
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
  const std::vector<BlobAddr> rblobs = wal_blobs_;
  const std::vector<BlobAddr> rshadows = wal_shadow_blobs_;
  // Replay applies synchronously in commit order (last writer wins), so
  // recovered state is visible to the very next operation; the reads
  // below pay the recovery IO in simulated time.
  stats_.replayed_records += wal_records_.size();
  if (obs_) {
    obs_->tracer.Instant(
        sim_.now(), obs::schema::kEvKvRecover,
        obs::Labels::TenantSsd(instance_, -1),
        {{"records", static_cast<double>(wal_records_.size())},
         {"segments", static_cast<double>(rblobs.size())}});
  }
  for (const auto& [k, v] : wal_records_) {
    memtable_.Put(k, v);
  }
  if (memtable_.bytes() >= config_.memtable_bytes) RotateMemtable();

  auto shared_done = std::make_shared<PutDone>(std::move(done));
  if (rblobs.empty()) {
    sim_.After(0, [shared_done]() {
      if (*shared_done) (*shared_done)(IoStatus::kOk);
    });
    return;
  }
  auto remaining = std::make_shared<size_t>(rblobs.size());
  auto worst = std::make_shared<IoStatus>(IoStatus::kOk);
  for (size_t i = 0; i < rblobs.size(); ++i) {
    const BlobAddr p = rblobs[i];
    const BlobAddr s = i < rshadows.size() ? rshadows[i] : BlobAddr{};
    blobs_.ReadBalanced(
        p, s, config_.read_priority,
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
