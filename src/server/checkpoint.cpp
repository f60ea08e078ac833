#include "server/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "graph/pcsr.hpp"

namespace parsh::server {

namespace {

constexpr char kManifestMagic[8] = {'p', 'a', 'r', 's', 'h', 'C', 'K', 'M'};
constexpr std::size_t kManifestEntryBytes = 16 + kUpdateResultBytes;
constexpr std::size_t kManifestFixedBytes = kManifestHeaderBytes + 24 + 8;

Status errno_status(const char* what) {
  return Status::fail(StatusCode::kUnavailable,
                      std::string(what) + ": " + std::strerror(errno));
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool write_all(int fd, const std::uint8_t* p, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t r = ::write(fd, p + done, len - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

/// Write `bytes` to `path` (truncating) and fsync before closing — the
/// "data is on the platter before the rename publishes it" half of the
/// atomic-checkpoint story.
Status write_file_synced(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return errno_status("checkpoint open");
  if (!write_all(fd, bytes.data(), bytes.size())) {
    const Status s = errno_status("checkpoint write");
    ::close(fd);
    return s;
  }
  int r;
  do {
    r = ::fsync(fd);
  } while (r != 0 && errno == EINTR);
  if (r != 0) {
    const Status s = errno_status("checkpoint fsync");
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::success();
}

Status fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno_status("fsync open");
  int r;
  do {
    r = ::fsync(fd);
  } while (r != 0 && errno == EINTR);
  const Status s = r != 0 ? errno_status("fsync") : Status::success();
  ::close(fd);
  return s;
}

void remove_quiet(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

bool parse_hex16(const std::string& name, std::size_t at, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (std::size_t i = at; i < at + 16; ++i) {
    const char c = name[i];
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

/// Manifest epochs present in `dir`, newest first.
std::vector<std::uint64_t> list_manifest_epochs(const std::string& dir) {
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t e = 0;
    if (parse_checkpoint_manifest_name(entry.path().filename().string(), &e)) {
      epochs.push_back(e);
    }
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

/// Thrown inside the engine's pre-publish seam to abort an apply whose
/// WAL record could not be committed; carries the append's verdict.
struct WalAppendFailure {
  Status status;
};

}  // namespace

// ---- names ------------------------------------------------------------------

std::string checkpoint_graph_name(std::uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%016llx.pcsr",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string checkpoint_manifest_name(std::uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%016llx.manifest",
                static_cast<unsigned long long>(epoch));
  return buf;
}

bool parse_checkpoint_manifest_name(const std::string& name, std::uint64_t* epoch) {
  // "ckpt-" + 16 hex + ".manifest" = 30 chars.
  if (name.size() != 30 || name.rfind("ckpt-", 0) != 0 ||
      name.compare(21, 9, ".manifest") != 0) {
    return false;
  }
  return parse_hex16(name, 5, epoch);
}

// ---- manifest codec ---------------------------------------------------------

void encode_manifest(std::vector<std::uint8_t>& out, const Manifest& m) {
  const std::size_t start = out.size();
  out.insert(out.end(), kManifestMagic, kManifestMagic + 8);
  wire::put_u32(out, kManifestVersion);
  wire::put_u32(out, 0);  // reserved
  wire::put_u64(out, m.epoch);
  wire::put_u64(out, m.wal_first_epoch);
  wire::put_u64(out, m.table.size());
  for (const auto& [client, entry] : m.table) {
    wire::put_u64(out, client);
    wire::put_u64(out, entry.sequence);
    encode_update_result(out, entry.result);
  }
  wire::put_u64(out, wire::fnv1a_bytes(out.data() + start, out.size() - start));
}

Status decode_manifest(const std::uint8_t* data, std::size_t len, Manifest* out) {
  if (len < kManifestFixedBytes) {
    return Status::fail(StatusCode::kInvalidArgument, "manifest: short");
  }
  if (std::memcmp(data, kManifestMagic, 8) != 0) {
    return Status::fail(StatusCode::kInvalidArgument, "manifest: bad magic");
  }
  if (wire::get_u32(data + 8) != kManifestVersion) {
    return Status::fail(StatusCode::kInvalidArgument, "manifest: unknown version");
  }
  // Checksum before structure: a flipped bit anywhere (including in the
  // counts the structural checks below would trust) must be caught here.
  const std::uint64_t want = wire::get_u64(data + len - 8);
  if (wire::fnv1a_bytes(data, len - 8) != want) {
    return Status::fail(StatusCode::kInvalidArgument, "manifest: checksum mismatch");
  }
  out->epoch = wire::get_u64(data + 16);
  out->wal_first_epoch = wire::get_u64(data + 24);
  const std::uint64_t n = wire::get_u64(data + 32);
  if (len != kManifestFixedBytes + n * kManifestEntryBytes) {
    return Status::fail(StatusCode::kInvalidArgument, "manifest: length/count mismatch");
  }
  out->table.clear();
  const std::uint8_t* p = data + 40;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t client = wire::get_u64(p);
    ClientEntry entry;
    entry.sequence = wire::get_u64(p + 8);
    Status s = decode_update_result(p + 16, kUpdateResultBytes, &entry.result);
    if (!s.ok()) return s;
    out->table.emplace(client, std::move(entry));
    p += kManifestEntryBytes;
  }
  return Status::success();
}

Status read_manifest_file(const std::string& path, Manifest* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno_status("manifest open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status s = errno_status("manifest fstat");
    ::close(fd);
    return s;
  }
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < buf.size()) {
    const ssize_t r = ::read(fd, buf.data() + got, buf.size() - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status s = errno_status("manifest read");
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  ::close(fd);
  if (got != buf.size()) {
    return Status::fail(StatusCode::kInvalidArgument, "manifest: short read");
  }
  return decode_manifest(buf.data(), buf.size(), out);
}

// ---- checkpoint writer ------------------------------------------------------

Status write_checkpoint(const std::string& dir, const Graph& g, const Manifest& m,
                        FaultInjector* injector, CheckpointCrashStage crash_after) {
  const std::string graph_final = dir + "/" + checkpoint_graph_name(m.epoch);
  const std::string graph_tmp = graph_final + ".tmp";
  const std::string man_final = dir + "/" + checkpoint_manifest_name(m.epoch);
  const std::string man_tmp = man_final + ".tmp";

  // 1. Graph bytes to a temp name, fsynced.
  if (injector &&
      injector->next(FaultSite::kCheckpointWrite).kind == FaultAction::Kind::kFailOp) {
    return Status::fail(StatusCode::kUnavailable,
                        "injected checkpoint write failure (graph)");
  }
  try {
    write_pcsr_file(graph_tmp, g);
  } catch (const std::exception& e) {
    remove_quiet(graph_tmp);
    return Status::fail(StatusCode::kInternal,
                        std::string("checkpoint graph write: ") + e.what());
  }
  if (Status s = fsync_path(graph_tmp); !s.ok()) {
    remove_quiet(graph_tmp);
    return s;
  }
  if (crash_after == CheckpointCrashStage::kAfterGraphTemp) {
    return Status::fail(StatusCode::kUnavailable,
                        "checkpoint crash seam: after graph temp");
  }

  // 2. Publish the graph. Without its manifest it is invisible garbage,
  // so a crash after this rename changes nothing for recovery.
  if (injector &&
      injector->next(FaultSite::kCheckpointRename).kind == FaultAction::Kind::kFailOp) {
    remove_quiet(graph_tmp);
    return Status::fail(StatusCode::kUnavailable,
                        "injected checkpoint rename failure (graph)");
  }
  if (::rename(graph_tmp.c_str(), graph_final.c_str()) != 0) {
    const Status s = errno_status("checkpoint graph rename");
    remove_quiet(graph_tmp);
    return s;
  }
  if (crash_after == CheckpointCrashStage::kAfterGraphRename) {
    return Status::fail(StatusCode::kUnavailable,
                        "checkpoint crash seam: after graph rename");
  }

  // 3. Manifest bytes to a temp name, fsynced.
  std::vector<std::uint8_t> bytes;
  encode_manifest(bytes, m);
  if (injector &&
      injector->next(FaultSite::kCheckpointWrite).kind == FaultAction::Kind::kFailOp) {
    remove_quiet(graph_final);
    return Status::fail(StatusCode::kUnavailable,
                        "injected checkpoint write failure (manifest)");
  }
  if (Status s = write_file_synced(man_tmp, bytes); !s.ok()) {
    remove_quiet(man_tmp);
    remove_quiet(graph_final);
    return s;
  }
  if (crash_after == CheckpointCrashStage::kAfterManifestTemp) {
    return Status::fail(StatusCode::kUnavailable,
                        "checkpoint crash seam: after manifest temp");
  }

  // 4. The commit point: renaming the manifest makes the pair real.
  if (injector &&
      injector->next(FaultSite::kCheckpointRename).kind == FaultAction::Kind::kFailOp) {
    remove_quiet(man_tmp);
    remove_quiet(graph_final);
    return Status::fail(StatusCode::kUnavailable,
                        "injected checkpoint rename failure (manifest)");
  }
  if (::rename(man_tmp.c_str(), man_final.c_str()) != 0) {
    const Status s = errno_status("checkpoint manifest rename");
    remove_quiet(man_tmp);
    remove_quiet(graph_final);
    return s;
  }

  // 5. Make the renames themselves durable. Best-effort: some filesystems
  // refuse directory fsync, and the checkpoint is already consistent.
  (void)fsync_path(dir);
  return Status::success();
}

// ---- loader -----------------------------------------------------------------

Status load_newest_checkpoint(const std::string& dir, LoadedCheckpoint* out) {
  // Reset field by field: assigning a LoadedCheckpoint{} temporary trips
  // gcc 12's -Wmaybe-uninitialized inside std::map's move.
  out->found = false;
  out->manifest = Manifest{};
  out->graph = Graph{};
  out->rejected = 0;
  for (const std::uint64_t epoch : list_manifest_epochs(dir)) {
    Manifest m;
    const std::string man_path = dir + "/" + checkpoint_manifest_name(epoch);
    Status s = read_manifest_file(man_path, &m);
    if (!s.ok() || m.epoch != epoch) {
      ++out->rejected;
      continue;
    }
    const std::string graph_path = dir + "/" + checkpoint_graph_name(epoch);
    try {
      PcsrLoadOptions lo;
      lo.verify_checksums = true;
      Graph g = load_pcsr_file(graph_path, lo);
      out->found = true;
      out->manifest = std::move(m);
      out->graph = std::move(g);
      return Status::success();
    } catch (const std::exception&) {
      ++out->rejected;
    }
  }
  return Status::success();  // found=false: fresh directory
}

void collect_checkpoint_garbage(const std::string& dir, std::size_t keep) {
  const std::vector<std::uint64_t> epochs = list_manifest_epochs(dir);
  if (epochs.empty()) return;
  for (std::size_t i = std::max<std::size_t>(keep, 1); i < epochs.size(); ++i) {
    // Manifest first: once it is gone the graph is invisible, so a crash
    // mid-GC can only leave harmless orphans, never a manifest whose
    // graph was already deleted.
    remove_quiet(dir + "/" + checkpoint_manifest_name(epochs[i]));
    remove_quiet(dir + "/" + checkpoint_graph_name(epochs[i]));
  }
  // WAL horizon: replay after falling back to the OLDEST retained
  // checkpoint starts at its epoch + 1, so a segment is dead only when
  // the NEXT segment already covers that epoch. The newest segment is the
  // writer's append target and always survives.
  const std::size_t retained = std::min(std::max<std::size_t>(keep, 1), epochs.size());
  const std::uint64_t oldest = epochs[retained - 1];
  const std::vector<std::string> segments = list_wal_segments(dir);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    std::uint64_t next_first = 0;
    const std::string next_name =
        std::filesystem::path(segments[i + 1]).filename().string();
    if (!parse_wal_segment_name(next_name, &next_first)) continue;
    if (next_first <= oldest + 1) remove_quiet(segments[i]);
  }
}

// ---- coordinator ------------------------------------------------------------

Status Durability::open(Graph base, DynamicApproxShortestPaths::Params params,
                        DurabilityOptions opt, std::unique_ptr<Durability>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  std::filesystem::create_directories(opt.dir, ec);
  if (ec) {
    return Status::fail(StatusCode::kUnavailable,
                        "durability dir: " + ec.message());
  }

  std::unique_ptr<Durability> d(new Durability());
  d->opt_ = opt;

  // 1. Newest valid checkpoint, falling back past corrupt ones.
  LoadedCheckpoint ckpt;
  if (Status s = load_newest_checkpoint(opt.dir, &ckpt); !s.ok()) return s;
  std::uint64_t epoch = 0;
  if (ckpt.found) {
    epoch = ckpt.manifest.epoch;
    d->table_ = std::move(ckpt.manifest.table);
    d->report_.checkpoint_loaded = true;
    d->report_.checkpoint_epoch = epoch;
    d->engine_ = std::make_unique<DynamicApproxShortestPaths>(
        std::move(ckpt.graph), params, epoch);
  } else {
    d->engine_ = std::make_unique<DynamicApproxShortestPaths>(std::move(base),
                                                              params, 0);
  }
  d->report_.rejected_checkpoints = ckpt.rejected;

  // 2. Replay the WAL tail. Records at or below the checkpoint epoch are
  // already folded in; each later record must continue the epoch sequence
  // exactly (scan_wal_segment enforces continuity within a segment, this
  // loop enforces it across the checkpoint boundary and segment joins).
  const std::vector<std::string> segments = list_wal_segments(opt.dir);
  std::uint64_t append_first = epoch + 1;
  bool have_append_target = false;
  std::size_t dead_from = segments.size();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    WalScan scan;
    Status s = scan_wal_segment(segments[i], &scan);
    if (!s.ok()) {
      // Header-corrupt segment: nothing in it (or after it) is reachable.
      dead_from = i;
      break;
    }
    bool gap = false;
    for (const WalRecord& rec : scan.records) {
      if (rec.epoch <= epoch) {
        ++d->report_.skipped;
        continue;
      }
      if (rec.epoch != d->engine_->epoch() + 1) {
        gap = true;
        ++d->report_.unreachable;
        continue;
      }
      try {
        const DynamicApproxShortestPaths::ApplyResult r =
            d->engine_->apply(rec.delta);
        if (r.epoch != rec.epoch) {
          return Status::fail(StatusCode::kInternal,
                              "wal replay: epoch drift (engine " +
                                  std::to_string(r.epoch) + ", record " +
                                  std::to_string(rec.epoch) + ")");
        }
      } catch (const std::exception& e) {
        // A checksummed record the recovered graph rejects means the base
        // state does not match the log (wrong dir, wrong base graph).
        return Status::fail(StatusCode::kInternal,
                            std::string("wal replay: ") + e.what());
      }
      if (rec.client_id != 0) {
        ClientEntry entry;
        entry.sequence = rec.sequence;
        entry.result = rec.result;
        entry.result.id = 0;
        d->table_[rec.client_id] = std::move(entry);
      }
      ++d->report_.replayed;
    }
    if (gap) {
      dead_from = i;
      break;
    }
    if (scan.torn) {
      // Torn tail: cut it. If this is not the last segment the later ones
      // hold epochs we can no longer bridge to — they are dead too.
      if (Status ts = truncate_wal_segment(segments[i], scan.valid_bytes);
          !ts.ok()) {
        return ts;
      }
      d->report_.torn_bytes += scan.file_bytes - scan.valid_bytes;
      append_first = scan.first_epoch;
      have_append_target = true;
      dead_from = i + 1;
      break;
    }
    append_first = scan.first_epoch;
    have_append_target = true;
  }
  // Segments past the damage point are unreachable forever (the epoch
  // chain is broken below them); appending must not interleave new
  // epochs with stranded ones, so they go.
  for (std::size_t i = dead_from; i < segments.size(); ++i) {
    if (have_append_target &&
        segments[i] == opt.dir + "/" + wal_segment_name(append_first)) {
      continue;  // the healed append target survives
    }
    remove_quiet(segments[i]);
  }
  if (!have_append_target) append_first = d->engine_->epoch() + 1;

  // 3. Reopen the log for appending where replay left off.
  if (Status s = d->wal_.open(opt.dir, append_first, opt.wal); !s.ok()) {
    return s;
  }

  d->report_.recovery_ms = ms_since(t0);
  *out = std::move(d);
  return Status::success();
}

void Durability::handle_update(const UpdateRequest& req, UpdateResponse* resp,
                               FaultInjector* injector, ServerMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t caller_id = resp->id;
  *resp = UpdateResponse{};
  resp->id = caller_id;

  // Exactly-once gate. Only the latest sequence per client is retained:
  // the client retries at most its newest batch, so an older sequence is
  // a protocol violation, not a late retry.
  if (req.client_id != 0) {
    const auto it = table_.find(req.client_id);
    if (it != table_.end()) {
      if (req.sequence == it->second.sequence) {
        *resp = it->second.result;
        resp->id = caller_id;
        resp->flags |= kUpdateFlagDuplicate;
        if (metrics) metrics->bump(metrics->updates_deduped);
        return;
      }
      if (req.sequence < it->second.sequence) {
        resp->status = StatusCode::kInvalidArgument;
        resp->epoch = engine_->epoch();
        return;
      }
    }
  }

  GraphDelta delta;
  delta.insert = req.insert;
  delta.remove = req.remove;
  try {
    engine_->apply(delta, [&](const DynamicApproxShortestPaths::ApplyResult& r) {
      // The snapshot is built but unpublished: fill the response, log it,
      // and only if the record commits may the epoch become visible.
      resp->status = StatusCode::kOk;
      resp->flags = r.hopset.full_rebuild ? kUpdateFlagFullRebuild : 0;
      resp->epoch = r.epoch;
      resp->rebuild_ms = r.rebuild_ms;
      resp->dirty_scales = static_cast<std::uint32_t>(r.hopset.dirty_scales);
      resp->total_scales = static_cast<std::uint32_t>(r.hopset.total_scales);
      resp->dirty_clusters = r.hopset.dirty_clusters;
      resp->total_clusters = r.hopset.total_clusters;
      resp->inserted = r.inserted;
      resp->removed = r.removed;
      resp->reweighted = r.reweighted;
      resp->noops = r.noops;

      WalRecord rec;
      rec.epoch = r.epoch;
      rec.client_id = req.client_id;
      rec.sequence = req.sequence;
      rec.result = *resp;
      rec.result.id = 0;
      rec.delta = delta;
      Status ws = wal_.append(rec, injector, metrics);
      if (!ws.ok()) throw WalAppendFailure{std::move(ws)};
    });
  } catch (const WalAppendFailure& f) {
    *resp = UpdateResponse{};
    resp->id = caller_id;
    resp->status = StatusCode::kUnavailable;  // retryable: nothing applied
    resp->epoch = engine_->epoch();
    if (metrics) metrics->bump(metrics->wal_failures);
    (void)f;
    return;
  } catch (const std::invalid_argument&) {
    *resp = UpdateResponse{};
    resp->id = caller_id;
    resp->status = StatusCode::kInvalidArgument;
    resp->epoch = engine_->epoch();
    return;
  } catch (const std::exception&) {
    *resp = UpdateResponse{};
    resp->id = caller_id;
    resp->status = StatusCode::kInternal;
    resp->epoch = engine_->epoch();
    return;
  }

  if (req.client_id != 0) {
    ClientEntry entry;
    entry.sequence = req.sequence;
    entry.result = *resp;
    entry.result.id = 0;
    entry.result.flags &= ~kUpdateFlagDuplicate;
    table_[req.client_id] = std::move(entry);
  }

  ++since_checkpoint_;
  if (opt_.checkpoint_every != 0 && since_checkpoint_ >= opt_.checkpoint_every) {
    // Threshold checkpoint; a failure here does not fail the update — the
    // record is durable in the WAL, the checkpoint just stays older.
    (void)checkpoint_locked_(injector, metrics);
  }
}

Status Durability::checkpoint_now(FaultInjector* injector, ServerMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_locked_(injector, metrics);
}

Status Durability::checkpoint_locked_(FaultInjector* injector,
                                      ServerMetrics* metrics) {
  // Under mu_ no update is mid-apply, so the published snapshot IS the
  // durable high-water mark.
  const auto snap = engine_->snapshot();
  if (Status s = wal_.sync(metrics); !s.ok()) return s;

  Manifest m;
  m.epoch = snap->epoch;
  m.wal_first_epoch = snap->epoch + 1;
  m.table = table_;

  const CheckpointCrashStage stage = crash_stage_;
  crash_stage_ = CheckpointCrashStage::kNone;  // one-shot test seam
  if (Status s = write_checkpoint(opt_.dir, snap->graph, m, injector, stage);
      !s.ok()) {
    return s;
  }

  ++checkpoints_;
  since_checkpoint_ = 0;
  if (metrics) metrics->bump(metrics->checkpoints_written);

  // New segment so GC can drop whole files; then drop what the retained
  // checkpoints no longer need.
  if (Status s = wal_.rotate(snap->epoch + 1, metrics); !s.ok()) return s;
  collect_checkpoint_garbage(opt_.dir, opt_.keep_checkpoints);
  return Status::success();
}

ClientTable Durability::client_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

std::uint64_t Durability::checkpoints_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

void Durability::set_checkpoint_crash_stage(CheckpointCrashStage s) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_stage_ = s;
}

}  // namespace parsh::server
