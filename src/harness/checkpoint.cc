#include "harness/checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include <unistd.h>

#include "kernel/memory_manager.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "sim/actor.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "swap/swap_manager.hh"
#include "workload/barrier.hh"
#include "workload/workload.hh"

namespace pagesim
{

namespace
{

/** "PGSMCKP1" read as a little-endian u64. */
constexpr std::uint64_t kCheckpointMagic = 0x31504b434d534750ull;

CheckpointError
makeError(CheckpointError::Kind kind, std::string message)
{
    CheckpointError e;
    e.kind = kind;
    e.message = std::move(message);
    return e;
}

/** One decoded section: a reader over its payload bytes. */
struct ParsedSection
{
    std::string name;
    Source payload;
    std::uint64_t fingerprint = 0; ///< as stored, not yet checked
};

struct ParsedImage
{
    std::uint32_t version = 0;
    std::uint64_t configHash = 0;
    std::uint64_t seed = 0;
    std::uint64_t when = 0;
    std::uint64_t refs = 0;
    std::vector<ParsedSection> sections;

    const ParsedSection *
    section(const char *name) const
    {
        for (const ParsedSection &s : sections)
            if (s.name == name)
                return &s;
        return nullptr;
    }
};

/**
 * Decode the image layout: magic, version, header, and per-section
 * bounds, with no trailing bytes. Section fingerprints are kept but
 * not checked; checkFingerprints does that.
 */
CheckpointError
parseLayout(const std::vector<std::uint8_t> &bytes, ParsedImage &out)
{
    Source cur(bytes.data(), bytes.size());

    std::uint64_t magic = 0;
    cur.u64(magic);
    if (!cur.ok())
        return makeError(CheckpointError::Kind::Truncated,
                         "image shorter than the checkpoint header");
    if (magic != kCheckpointMagic)
        return makeError(CheckpointError::Kind::BadMagic,
                         "not a checkpoint image (bad magic)");

    cur.u32(out.version);
    if (cur.ok() && out.version != kCheckpointVersion)
        return makeError(CheckpointError::Kind::VersionMismatch,
                         "checkpoint format version " +
                             std::to_string(out.version) +
                             " (this build reads " +
                             std::to_string(kCheckpointVersion) + ")");

    cur.u64(out.configHash);
    cur.u64(out.seed);
    cur.u64(out.when);
    cur.u64(out.refs);
    std::uint32_t nsections = 0;
    cur.u32(nsections);
    if (!cur.ok())
        return makeError(CheckpointError::Kind::Truncated,
                         "image shorter than the checkpoint header");

    out.sections.clear();
    for (std::uint32_t i = 0; i < nsections; ++i) {
        std::uint32_t name_len = 0;
        cur.u32(name_len);
        const Source name = cur.slice(name_len);
        std::uint64_t payload_len = 0;
        std::uint64_t fp = 0;
        cur.u64(payload_len);
        cur.u64(fp);
        const Source payload = cur.slice(payload_len);
        if (!cur.ok())
            return makeError(CheckpointError::Kind::Truncated,
                             "image truncated inside section " +
                                 std::to_string(i));
        out.sections.push_back(
            {std::string(reinterpret_cast<const char *>(name.data()),
                         name.size()),
             payload, fp});
    }
    if (cur.remaining() != 0)
        return makeError(CheckpointError::Kind::Truncated,
                         "trailing bytes after the last section");
    return {};
}

/**
 * Hash every section payload of a parsed image against its stored
 * fingerprint; the first mismatch in section order is reported. After
 * parseLayout and this both return ok(), a later apply can only fail
 * on a semantic mismatch, never on corruption.
 */
CheckpointError
checkFingerprints(const ParsedImage &img)
{
    std::vector<ByteSpan> payloads;
    payloads.reserve(img.sections.size());
    for (const ParsedSection &sec : img.sections)
        payloads.push_back({sec.payload.data(), sec.payload.size()});
    const std::vector<std::uint64_t> hashes = fnv1aEach(payloads);
    for (std::size_t i = 0; i < img.sections.size(); ++i)
        if (hashes[i] != img.sections[i].fingerprint)
            return makeError(CheckpointError::Kind::FingerprintMismatch,
                             "section '" + img.sections[i].name +
                                 "' fingerprint mismatch");
    return {};
}

/** Run T's state body on @p obj, as const T when @p ar saves. */
template <class T, class Ar, class... Refs>
void
archive(T &obj, Ar &ar, const Refs &...refs)
{
    if constexpr (Ar::kLoading)
        T::state(obj, ar, refs...);
    else
        T::state(std::as_const(obj), ar, refs...);
}

/** A u32 record count, which a load must find equal to @p n. */
template <class Ar>
void
recordCount(Ar &ar, std::size_t n)
{
    auto count = static_cast<std::uint32_t>(n);
    ar.u32(count);
    if constexpr (Ar::kLoading) {
        if (count != n)
            ar.fail();
    }
}

/**
 * Length-prefixed sub-records: a u32 count, then per item a u64 byte
 * length and @p body's bytes for it. A load needs the count to match
 * @p items and each record to be consumed exactly.
 */
template <class Ar, class T, class Body>
void
subRecords(Ar &ar, const std::vector<T *> &items, Body &&body)
{
    recordCount(ar, items.size());
    for (T *item : items) {
        if constexpr (Ar::kLoading) {
            if (!ar.ok())
                return;
            std::uint64_t len = 0;
            ar.u64(len);
            Source sub = ar.slice(len);
            body(*item, sub);
            if (!sub.exhausted())
                ar.fail();
        } else {
            Sink sub;
            body(std::as_const(*item), sub);
            ar.u64(sub.size());
            ar.bytes(sub.data().data(), sub.size());
        }
    }
}

/**
 * The rig's state as named sections, in encode/apply order: the one
 * table capture and restore both walk. @p visit gets each section's
 * name and its state body, a callable over a Sink or a Source, and
 * returns false to stop the walk. Frame owners and barrier waiters
 * travel as ids in ordered pointer tables built from the rig; the
 * MemoryManager's balloon space, which is not one of the rig's
 * spaces, owns frames too and rides as the spaces table's extra entry.
 */
template <class Visit>
bool
forEachSection(const RigView &rig, Visit &&visit)
{
    const RefTable<AddressSpace> spaces(rig.spaces,
                                        &rig.mm->balloonSpace());
    const RefTable<SimActor> actors(rig.actors);
    const auto stateBody = [](auto &obj, auto &ar) { archive(obj, ar); };
    const auto virtualBody = [](auto &obj, auto &ar) {
        virtualState(obj, ar);
    };
    return visit("sim", [&](auto &ar) { archive(*rig.sim, ar); }) &&
           visit("spaces",
                 [&](auto &ar) { subRecords(ar, rig.spaces, stateBody); }) &&
           visit("frames",
                 [&](auto &ar) { archive(*rig.frames, ar, spaces); }) &&
           visit("mm", [&](auto &ar) { archive(*rig.mm, ar, spaces); }) &&
           visit("swap", [&](auto &ar) { archive(*rig.swap, ar); }) &&
           visit("workloads",
                 [&](auto &ar) {
                     subRecords(ar, rig.workloads, virtualBody);
                 }) &&
           visit("actors",
                 [&](auto &ar) { subRecords(ar, rig.actors, virtualBody); }) &&
           visit("barriers", [&](auto &ar) {
               for (Workload *wl : rig.workloads) {
                   std::vector<SimBarrier *> barriers;
                   wl->forEachBarrier([&barriers](SimBarrier &b) {
                       barriers.push_back(&b);
                   });
                   recordCount(ar, barriers.size());
                   for (SimBarrier *b : barriers)
                       archive(*b, ar, actors);
               }
           });
}

} // namespace

const char *
checkpointErrorKindName(CheckpointError::Kind kind)
{
    switch (kind) {
      case CheckpointError::Kind::None:
        return "none";
      case CheckpointError::Kind::Io:
        return "io";
      case CheckpointError::Kind::Truncated:
        return "truncated";
      case CheckpointError::Kind::BadMagic:
        return "bad-magic";
      case CheckpointError::Kind::VersionMismatch:
        return "version-mismatch";
      case CheckpointError::Kind::ConfigMismatch:
        return "config-mismatch";
      case CheckpointError::Kind::FingerprintMismatch:
        return "fingerprint-mismatch";
      case CheckpointError::Kind::SectionMissing:
        return "section-missing";
      case CheckpointError::Kind::Unsupported:
        return "unsupported";
      case CheckpointError::Kind::NotQuiescent:
        return "not-quiescent";
    }
    return "unknown";
}

CheckpointError
captureCheckpoint(const RigView &rig, std::uint64_t config_hash,
                  std::uint64_t seed, std::uint64_t refs,
                  Checkpoint &out)
{
    assert(rig.sim && rig.mm && rig.frames && rig.swap);
    if (!rig.mm->quiescentForCheckpoint())
        return makeError(
            CheckpointError::Kind::NotQuiescent,
            "capture requested while I/O, waiters, or metrics are "
            "live");

    std::vector<std::pair<const char *, Sink>> sections;
    forEachSection(rig, [&sections](const char *name, auto &&body) {
        sections.emplace_back(name, Sink());
        body(sections.back().second);
        return true;
    });

    Sink image;
    // The image re-copies every section payload; reserve the exact
    // assembled size (fixed header + per-section name/len/hash
    // framing + payload bytes) so the frames section's hundreds of
    // MB are copied once, not re-copied on every geometric grow.
    std::size_t imageBytes = 8 + 4 + 8 + 8 + 8 + 8 + 4;
    for (const auto &[name, payload] : sections)
        imageBytes += 4 + std::strlen(name) + 8 + 8 + payload.size();
    image.reserve(imageBytes);
    image.u64(kCheckpointMagic);
    image.u32(kCheckpointVersion);
    image.u64(config_hash);
    image.u64(seed);
    image.u64(rig.sim->now());
    image.u64(refs);
    image.u32(static_cast<std::uint32_t>(sections.size()));
    std::vector<ByteSpan> payloads;
    payloads.reserve(sections.size());
    for (const auto &[name, payload] : sections)
        payloads.push_back({payload.data().data(), payload.size()});
    const std::vector<std::uint64_t> fingerprints = fnv1aEach(payloads);
    for (std::size_t i = 0; i < sections.size(); ++i) {
        const auto &[name, payload] = sections[i];
        image.u32(static_cast<std::uint32_t>(std::strlen(name)));
        image.bytes(name, std::strlen(name));
        image.u64(payload.size());
        image.u64(fingerprints[i]);
        image.bytes(payload.data().data(), payload.size());
    }

    out.configHash = config_hash;
    out.seed = seed;
    out.when = rig.sim->now();
    out.refs = refs;
    out.bytes = image.data();
    return {};
}

CheckpointError
restoreCheckpoint(const RigView &rig, std::uint64_t config_hash,
                  std::uint64_t seed, const Checkpoint &ckpt)
{
    assert(rig.sim && rig.mm && rig.frames && rig.swap);

    // ---- Validation: nothing below touches the rig. -----------------
    ParsedImage img;
    if (CheckpointError e = parseLayout(ckpt.bytes, img); !e.ok())
        return e;
    if (CheckpointError e = checkFingerprints(img); !e.ok())
        return e;
    if (img.configHash != config_hash || img.seed != seed)
        return makeError(CheckpointError::Kind::ConfigMismatch,
                         "checkpoint was produced by a different "
                         "configuration or seed");
    CheckpointError err;
    forEachSection(rig, [&img, &err](const char *name, auto &&) {
        if (img.section(name) != nullptr)
            return true;
        err = makeError(CheckpointError::Kind::SectionMissing,
                        std::string("section '") + name + "' missing");
        return false;
    });
    if (!err.ok())
        return err;

    // Layout replay check: a restore rig rebuilt the workload from the
    // same config/seed, so every space's bump-allocator cursor must
    // match the recorded one. Peeked here, before any state moves.
    {
        Source cur = img.section("spaces")->payload;
        std::uint32_t count = 0;
        cur.u32(count);
        if (count != rig.spaces.size())
            return makeError(CheckpointError::Kind::ConfigMismatch,
                             "checkpoint has " + std::to_string(count) +
                                 " spaces, rig has " +
                                 std::to_string(rig.spaces.size()));
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint64_t len = 0;
            cur.u64(len);
            Source peek = cur.slice(len);
            if (!cur.ok())
                return makeError(CheckpointError::Kind::Truncated,
                                 "spaces section truncated");
            std::uint64_t recorded = 0;
            peek.u64(recorded);
            if (!peek.ok() || recorded != rig.spaces[i]->nextVpn())
                return makeError(
                    CheckpointError::Kind::ConfigMismatch,
                    "space " + std::to_string(i) +
                        " layout differs from the checkpoint");
        }
    }
    const auto recordCount = [&img](const char *name) {
        Source cur = img.section(name)->payload;
        std::uint32_t count = 0;
        cur.u32(count);
        return count;
    };
    if (recordCount("workloads") != rig.workloads.size())
        return makeError(CheckpointError::Kind::ConfigMismatch,
                         "workload count differs");
    if (recordCount("actors") != rig.actors.size())
        return makeError(CheckpointError::Kind::ConfigMismatch,
                         "actor count differs");

    // ---- Apply. A failure past this point means a format bug or an
    // out-of-range value; the caller must discard the half-restored
    // rig. -------------------------------------------------------------
    rig.sim->events().restoreClock(img.when);
    forEachSection(rig, [&img, &err](const char *name, auto &&body) {
        Source src = img.section(name)->payload;
        body(src);
        if (src.exhausted())
            return true;
        err = makeError(CheckpointError::Kind::Unsupported,
                        std::string("section '") + name +
                            "' failed to decode");
        return false;
    });
    if (!err.ok())
        return err;

    // Re-create each actor's pending event in the saved (when, seq)
    // order: fresh sequence numbers are assigned ascending, so the
    // dispatch-order relation among same-timestamp events survives.
    std::vector<SimActor *> pending;
    for (SimActor *actor : rig.actors)
        if (actor->hasPendingEvent())
            pending.push_back(actor);
    std::sort(pending.begin(), pending.end(),
              [](const SimActor *a, const SimActor *b) {
                  if (a->pendingAt() != b->pendingAt())
                      return a->pendingAt() < b->pendingAt();
                  return a->pendingSeq() < b->pendingSeq();
              });
    for (SimActor *actor : pending)
        actor->reschedulePending();

    return {};
}

CheckpointError
saveCheckpointFile(const std::string &path, const Checkpoint &ckpt)
{
    // The temp name carries the pid as well as a per-process counter:
    // processes sharing PAGESIM_CHECKPOINT_DIR must never truncate or
    // rename each other's half-written files.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp = path + ".tmp" + std::to_string(::getpid()) +
                            "-" + std::to_string(counter.fetch_add(1));
    std::error_code ec;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return makeError(CheckpointError::Kind::Io,
                             "cannot open '" + tmp + "' for writing");
        out.write(reinterpret_cast<const char *>(ckpt.bytes.data()),
                  static_cast<std::streamsize>(ckpt.bytes.size()));
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return makeError(CheckpointError::Kind::Io,
                             "short write to '" + tmp + "'");
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return makeError(CheckpointError::Kind::Io,
                         "cannot rename into '" + path + "'");
    }
    return {};
}

CheckpointError
loadCheckpointFile(const std::string &path, Checkpoint &out)
{
    // A directory opens and seeks like a file, to an end offset that
    // can be 2^63 - 1: sizing a buffer from it would throw bad_alloc.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        return makeError(CheckpointError::Kind::Io,
                         "'" + path + "' is not a regular file");
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return makeError(CheckpointError::Kind::Io,
                         "cannot open '" + path + "'");
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(size > 0 ? size : 0));
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()), size))
        return makeError(CheckpointError::Kind::Io,
                         "short read from '" + path + "'");

    ParsedImage img;
    if (CheckpointError e = parseLayout(bytes, img); !e.ok())
        return e;
    out.configHash = img.configHash;
    out.seed = img.seed;
    out.when = img.when;
    out.refs = img.refs;
    out.bytes = std::move(bytes);
    return {};
}

namespace
{

/** Shared scalar prefix of both config hashes. */
void
hashMachineShape(Sink &sink, PolicyKind policy, SwapKind swap,
                 double capacity_ratio, unsigned num_cpus,
                 std::uint64_t warmup_refs)
{
    sink.u32(kCheckpointVersion);
    sink.u32(static_cast<std::uint32_t>(policy));
    sink.u32(static_cast<std::uint32_t>(swap));
    sink.f64(capacity_ratio);
    sink.u32(num_cpus);
    sink.u64(warmup_refs);
}

} // namespace

std::uint64_t
configPrefixHash(const ExperimentConfig &config)
{
    Sink sink;
    sink.bytes("pagesim-ckpt-experiment", 23);
    hashMachineShape(sink, config.policy, config.swap,
                     config.capacityRatio, config.numCpus,
                     config.warmupRefs);
    sink.u32(static_cast<std::uint32_t>(config.workload));
    sink.u32(static_cast<std::uint32_t>(config.scale));
    sink.f64(config.slowTierRatio);
    sink.f64(config.memcgLowRatio);
    sink.f64(config.memcgHighRatio);
    sink.f64(config.memcgMaxRatio);
    return fnv1a(sink.data().data(), sink.size());
}

std::uint64_t
colocationPrefixHash(const ColocationConfig &config)
{
    Sink sink;
    sink.bytes("pagesim-ckpt-colocation", 23);
    hashMachineShape(sink, config.policy, config.swap,
                     config.capacityRatio, config.numCpus,
                     config.warmupRefs);
    sink.u32(static_cast<std::uint32_t>(config.tenants.size()));
    for (const TenantSpec &t : config.tenants) {
        sink.u32(static_cast<std::uint32_t>(t.name.size()));
        sink.bytes(t.name.data(), t.name.size());
        sink.u32(static_cast<std::uint32_t>(t.workload));
        sink.u32(static_cast<std::uint32_t>(t.scale));
        sink.boolean(t.policy.has_value());
        sink.u32(t.policy ? static_cast<std::uint32_t>(*t.policy) : 0);
        sink.f64(t.lowRatio);
        sink.f64(t.highRatio);
        sink.f64(t.maxRatio);
    }
    return fnv1a(sink.data().data(), sink.size());
}

std::string
checkpointDir()
{
    const char *dir = std::getenv("PAGESIM_CHECKPOINT_DIR");
    return dir != nullptr ? std::string(dir) : std::string();
}

namespace
{

std::string
checkpointFileName(const std::string &dir, std::uint64_t config_hash,
                   std::uint64_t seed, std::uint64_t refs)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(config_hash));
    return dir + "/ckpt-" + hex + "-" + std::to_string(seed) + "-" +
           std::to_string(refs) + ".bin";
}

} // namespace

CheckpointCache &
CheckpointCache::instance()
{
    static CheckpointCache cache;
    return cache;
}

std::shared_ptr<const Checkpoint>
CheckpointCache::find(std::uint64_t config_hash, std::uint64_t seed,
                      std::uint64_t refs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto key = std::make_tuple(config_hash, seed, refs);
    if (auto it = map_.find(key); it != map_.end()) {
        ++hits_;
        return it->second;
    }
    if (const std::string dir = checkpointDir(); !dir.empty()) {
        auto ckpt = std::make_shared<Checkpoint>();
        const std::string path =
            checkpointFileName(dir, config_hash, seed, refs);
        if (loadCheckpointFile(path, *ckpt).ok() &&
            ckpt->configHash == config_hash && ckpt->seed == seed &&
            ckpt->refs == refs) {
            map_[key] = ckpt;
            ++hits_;
            ++diskLoads_;
            return ckpt;
        }
    }
    ++misses_;
    return nullptr;
}

void
CheckpointCache::insert(std::shared_ptr<const Checkpoint> ckpt)
{
    assert(ckpt != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto key =
        std::make_tuple(ckpt->configHash, ckpt->seed, ckpt->refs);
    map_[key] = ckpt;
    if (const std::string dir = checkpointDir(); !dir.empty()) {
        // Best-effort persistence: a read-only or missing directory
        // degrades to in-memory caching, it does not fail the trial.
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        saveCheckpointFile(checkpointFileName(dir, ckpt->configHash,
                                              ckpt->seed, ckpt->refs),
                           *ckpt);
    }
}

std::uint64_t
CheckpointCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
CheckpointCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
CheckpointCache::diskLoads() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskLoads_;
}

void
CheckpointCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
    diskLoads_ = 0;
}

} // namespace pagesim
