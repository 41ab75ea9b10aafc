/**
 * @file
 * perfbench: host cost of one pagesim workload, end to end and per
 * layer. perfbench/run.py runs it once per workload, in its own
 * process, with the PAGESIM environment pinned:
 *
 *   perfbench <workload> --seed N --seconds S --trace 0|1
 *             [--tiny] [--spans PATH]
 *
 * The measured phase repeats one fixed round of trials (the workload's
 * cells, trial seeds derived from --seed) until --seconds have passed,
 * so every round must reproduce the first round's results bit for bit.
 * The first line on stdout reports set-up; every pass over the trials
 * is announced as {"begin": ...} before it runs, each measured round is
 * reported as {"round": ...}, and the last line is {"summary": ...}.
 * A trial that aborts leaves its pass begun and no summary, which
 * run.py counts as failed trials.
 *
 * With --trace 1 every iteration also runs the same trials through the
 * traced assembly (traced_trial.hh) and reports per-layer numbers.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "digest.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "sim/parallel.hh"
#include "traced_trial.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace pagesim;

namespace
{

/**
 * Checkpoint boundary of ckpt-resume: functional warmup up to about
 * 99.9% of a Big1M YCSB-A trial's 1,572,864 touches, the warmup-
 * dominated shape the checkpoint cache exists for. Loading, validating
 * and restoring the image then dominate a trial. A longer simulated
 * tail adds a cost that varies with the trial seed: at 95%, one trial
 * seed in twelve took 1.6 times as long as the others, and at 99%
 * (1,560,000) some seeds still took 10-25% longer. Fixed rather than
 * probed, so set-up does not pay for an extra trial.
 */
constexpr std::uint64_t kBig1mBoundary = 1571000;
/** The same for --tiny, which runs the cell at Small scale. */
constexpr std::uint64_t kSmallBoundary = 60000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench <workload> --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--spans PATH]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseU64(const char *text, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage(what);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    Args a;
    a.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&](const char *what) {
            if (i + 1 >= argc)
                usage(what);
            return argv[++i];
        };
        if (flag == "--seed") {
            a.seed = parseU64(value("--seed needs a value"), "bad --seed");
        } else if (flag == "--seconds") {
            char *end = nullptr;
            const char *text = value("--seconds needs a value");
            a.seconds = std::strtod(text, &end);
            if (end == text || *end != '\0' || !(a.seconds > 0.0))
                usage("bad --seconds");
        } else if (flag == "--trace") {
            a.trace = parseU64(value("--trace needs 0 or 1"),
                               "bad --trace") != 0;
        } else if (flag == "--tiny") {
            a.tiny = true;
        } else if (flag == "--spans") {
            a.spansPath = value("--spans needs a path");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    return a;
}

/** The environment run.py pins, read back and checked. */
std::map<std::string, std::string>
checkedEnvironment()
{
    std::map<std::string, std::string> env;
    for (const char *name :
         {"PAGESIM_TRIALS", "PAGESIM_WORKERS", "PAGESIM_METRICS",
          "PAGESIM_AUDIT_EVERY", "PAGESIM_CHECKPOINT_DIR",
          "GLIBC_TUNABLES"}) {
        const char *v = std::getenv(name);
        if (v == nullptr || *v == '\0') {
            std::fprintf(stderr, "perfbench: %s must be set\n", name);
            std::exit(2);
        }
        env[name] = v;
    }
    if (std::getenv("PAGESIM_METRICS_DIR") != nullptr) {
        std::fprintf(stderr, "perfbench: PAGESIM_METRICS_DIR must be unset\n");
        std::exit(2);
    }
    if (env["PAGESIM_METRICS"] != "off" || env["PAGESIM_AUDIT_EVERY"] != "0") {
        std::fprintf(stderr, "perfbench: metrics and audits must be off\n");
        std::exit(2);
    }
    if (!parseTrialsOverride(env["PAGESIM_TRIALS"].c_str()) ||
        parseWorkersOverride(env["PAGESIM_WORKERS"].c_str()) == 0) {
        std::fprintf(stderr, "perfbench: bad PAGESIM_TRIALS or _WORKERS\n");
        std::exit(2);
    }
    const std::filesystem::path dir = env["PAGESIM_CHECKPOINT_DIR"];
    if (!std::filesystem::is_directory(dir) ||
        !std::filesystem::is_empty(dir)) {
        std::fprintf(stderr,
                     "perfbench: PAGESIM_CHECKPOINT_DIR must be an empty "
                     "directory\n");
        std::exit(2);
    }
    return env;
}

struct Plan
{
    std::vector<ExperimentConfig> cells;
    /** Nonzero: the cells run as one ResultCache::prefetch on this
     *  many workers. */
    unsigned pool = 0;
    bool checkpoint = false;
    /** (cell, trial) in canonical order: the order of fingerprints. */
    std::vector<std::pair<std::size_t, unsigned>> trials;
};

Plan
makePlan(const Args &args)
{
    Plan plan;
    const ScalePreset scale =
        args.tiny ? ScalePreset::Small : ScalePreset::Default;
    ExperimentConfig base;
    base.swap = SwapKind::Ssd;
    base.capacityRatio = 0.5;
    base.baseSeed = args.seed;

    if (args.workload == "fig1-ssd50") {
        for (WorkloadKind wl : allWorkloadKinds()) {
            for (PolicyKind p : {PolicyKind::Clock, PolicyKind::MgLru}) {
                ExperimentConfig c = base;
                c.workload = wl;
                c.policy = p;
                c.scale = scale;
                plan.cells.push_back(c);
            }
        }
        const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
        plan.pool = static_cast<unsigned>(std::clamp(nproc, 1L, 4L));
    } else if (args.workload == "ckpt-resume") {
        ExperimentConfig c = base;
        c.workload = WorkloadKind::YcsbA;
        c.policy = PolicyKind::MgLru;
        c.scale = args.tiny ? ScalePreset::Small : ScalePreset::Big1M;
        c.warmupRefs = args.tiny ? kSmallBoundary : kBig1mBoundary;
        c.checkpointAt = c.warmupRefs;
        plan.checkpoint = true;
        plan.cells.push_back(c);
    } else if (args.workload == "ycsb-zram-clock") {
        ExperimentConfig c = base;
        c.workload = WorkloadKind::YcsbA;
        c.policy = PolicyKind::Clock;
        c.swap = SwapKind::Zram;
        c.scale = scale;
        plan.cells.push_back(c);
    } else {
        usage(("unknown workload " + args.workload).c_str());
    }
    for (std::size_t c = 0; c < plan.cells.size(); ++c)
        for (unsigned t = 0; t < effectiveTrials(plan.cells[c]); ++t)
            plan.trials.emplace_back(c, t);
    return plan;
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(hostNowNs() - start_ns) * 1e-9;
}

/**
 * Host-speed probe: a fixed burst of random read-modify-writes over a
 * 4 MiB buffer. On a shared host the memory system's speed drifts by
 * tens of percent over minutes, and pagesim's trial times follow it (a
 * pure-compute loop does not). run.py scales every workload's timings
 * by a power of the median probe time of the same process, so that most
 * of that drift cancels while a change to pagesim itself does not. The
 * probe uses no pagesim code. An untimed pass first
 * brings the buffer back into cache, so the timed pass does not depend
 * on what the trial before it left there.
 */
class HostProbe
{
  public:
    double
    sample()
    {
        pass();
        const std::uint64_t start = hostNowNs();
        pass();
        return secondsSince(start);
    }

  private:
    void
    pass()
    {
        for (std::size_t i = 0; i < kUpdates; ++i) {
            x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
            buf_[(x_ >> 20) & (buf_.size() - 1)] += x_;
        }
        // Keep the stores: the buffer is never read otherwise.
        asm volatile("" : : "r"(buf_.data()) : "memory");
    }

    static constexpr std::size_t kUpdates = std::size_t{1} << 19;
    std::vector<std::uint64_t> buf_ = std::vector<std::uint64_t>(1u << 19);
    std::uint64_t x_ = 1;
};

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One measured pass over the plan's trials, untraced. */
struct Round
{
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Host-speed probes taken in this round (outside wallS). */
    std::vector<double> probeS;
    std::uint64_t touches = 0;
    std::vector<std::uint64_t> fingerprints;
    /** Per-trial host wall (serial plans only). */
    std::vector<double> trialS;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    std::uint64_t ckptHits = 0, ckptMisses = 0, ckptDiskLoads = 0;
    /** Checkpoint trials that did not load exactly one image from disk. */
    std::uint64_t ckptFailures = 0;
};

Round
runRound(const Plan &plan, HostProbe &probe)
{
    Round round;
    if (plan.pool > 0) {
        for (int i = 0; i < 4; ++i)
            round.probeS.push_back(probe.sample());
    }
    double excluded = 0.0;
    const double cpu0 = processCpuSeconds();
    const std::uint64_t start = hostNowNs();
    if (plan.pool > 0) {
        // The way the fig binaries run: prefetch the whole grid as one
        // pooled sweep, then look every cell up.
        ResultCache cache;
        SweepOptions options;
        options.workers = plan.pool;
        cache.prefetch(plan.cells, options);
        for (const auto &[c, t] : plan.trials) {
            const TrialResult &r = cache.get(plan.cells[c]).trials[t];
            round.fingerprints.push_back(fingerprint(r));
            round.touches += r.totalTouches;
        }
        round.cacheHits = cache.hits();
        round.cacheMisses = cache.misses();
    } else {
        for (const auto &[c, t] : plan.trials) {
            const ExperimentConfig &config = plan.cells[c];
            const std::uint64_t p0 = hostNowNs();
            round.probeS.push_back(probe.sample());
            excluded += secondsSince(p0);
            if (plan.checkpoint) {
                // Drop the in-memory copy so every trial loads its
                // image from PAGESIM_CHECKPOINT_DIR.
                CheckpointCache::instance().clear();
            }
            const std::uint64_t t0 = hostNowNs();
            const TrialResult r = runTrial(config, trialSeed(config, t));
            round.trialS.push_back(secondsSince(t0));
            if (plan.checkpoint) {
                const CheckpointCache &cc = CheckpointCache::instance();
                round.ckptHits += cc.hits();
                round.ckptMisses += cc.misses();
                round.ckptDiskLoads += cc.diskLoads();
                // A missing or unreadable image would make runTrial
                // re-simulate the trial cold with the same result, so
                // the cache's counters are the evidence of a restore.
                // (A restore that fails after the load is reported on
                // stderr, which run.py checks.)
                round.ckptFailures += cc.hits() != 1 || cc.misses() != 0 ||
                                      cc.diskLoads() != 1;
            }
            round.fingerprints.push_back(fingerprint(r));
            round.touches += r.totalTouches;
        }
    }
    round.wallS = secondsSince(start) - excluded;
    round.cpuS = processCpuSeconds() - cpu0 - excluded;
    return round;
}

/** Images of the set-up pass, by trial seed (traced runs only). */
std::map<std::uint64_t, std::string>
indexImages(const std::string &dir)
{
    std::map<std::uint64_t, std::string> images;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        Checkpoint ckpt;
        if (entry.path().extension() == ".bin" &&
            loadCheckpointFile(entry.path().string(), ckpt).ok())
            images[ckpt.seed] = entry.path().string();
    }
    return images;
}

/** Checkpoint image files in @p dir. */
std::size_t
countImages(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        n += entry.path().extension() == ".bin";
    return n;
}

/** The traced passes of a run, summed. */
struct TraceTotals
{
    Tracer tracer;
    std::uint64_t trials = 0;
    double tracedS = 0.0;
    /** Untraced wall of the same trials, run serially. */
    double untracedS = 0.0;
    TracedWork work;
    std::uint64_t mismatches = 0;

    void
    add(const TracedWork &w)
    {
        work.events += w.events;
        work.touches += w.touches;
        work.imageBytes += w.imageBytes;
        FaultStats &k = work.kernel;
        k.majorFaults += w.kernel.majorFaults;
        k.minorFaults += w.kernel.minorFaults;
        k.evictions += w.kernel.evictions;
        k.directReclaims += w.kernel.directReclaims;
        k.readaheadReads += w.kernel.readaheadReads;
        k.readaheadHits += w.kernel.readaheadHits;
        PolicyStats &p = work.policy;
        p.ptesScanned += w.policy.ptesScanned;
        p.regionsVisited += w.policy.regionsVisited;
        p.regionsSkipped += w.policy.regionsSkipped;
        p.rmapWalks += w.policy.rmapWalks;
        p.evicted += w.policy.evicted;
        p.secondChances += w.policy.secondChances;
    }
};

void
runTracedRound(const Plan &plan,
               const std::map<std::uint64_t, std::string> &images,
               const std::vector<std::uint64_t> &expected, TraceTotals &tt)
{
    for (std::size_t i = 0; i < plan.trials.size(); ++i) {
        const auto &[c, t] = plan.trials[i];
        const ExperimentConfig &config = plan.cells[c];
        const std::uint64_t seed = trialSeed(config, t);
        std::string image;
        if (plan.checkpoint) {
            const auto it = images.find(seed);
            if (it == images.end()) {
                std::fprintf(stderr, "perfbench: no image for seed %llu\n",
                             static_cast<unsigned long long>(seed));
                std::abort();
            }
            image = it->second;
        }
        tt.tracer.setTrial(static_cast<std::uint32_t>(tt.trials));
        TracedWork w;
        const std::uint64_t t0 = hostNowNs();
        const TrialResult r = runTracedTrial(config, seed, image, tt.tracer, w);
        tt.tracedS += secondsSince(t0);
        tt.add(w);
        ++tt.trials;
        if (fingerprint(r) != expected[i])
            ++tt.mismatches;
    }
}

/**
 * Serial untraced pass: the overhead reference for pooled plans.
 * Returns the trials whose fingerprint differs from @p expected.
 */
std::uint64_t
runSerialReference(const Plan &plan,
                   const std::vector<std::uint64_t> &expected,
                   TraceTotals &tt)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < plan.trials.size(); ++i) {
        const auto &[c, t] = plan.trials[i];
        const std::uint64_t t0 = hostNowNs();
        const TrialResult r =
            runTrial(plan.cells[c], trialSeed(plan.cells[c], t));
        tt.untracedS += secondsSince(t0);
        bad += fingerprint(r) != expected[i];
    }
    return bad;
}

/** Announce a pass, so a process that dies in it is counted. */
void
announce(const char *pass, std::size_t trials)
{
    std::printf("{\"begin\": \"%s\", \"trials\": %zu}\n", pass, trials);
    std::fflush(stdout);
}

/**
 * Set-up: everything before the first timed trial. Builds every
 * workload the plan uses once (PageRank's graph is generated here and
 * cached for the process) and, for checkpoint plans, runs the cold
 * pass that writes the images, emptying the in-memory cache after
 * each.
 * Returns the cold pass's fingerprints (untraced checkpoint plans).
 */
std::vector<std::uint64_t>
setUp(const Plan &plan, Tracer *tracer)
{
    std::set<std::pair<WorkloadKind, ScalePreset>> built;
    for (const ExperimentConfig &c : plan.cells) {
        if (built.insert({c.workload, c.scale}).second) {
            Span span(tracer, Layer::WorkloadMake);
            makeWorkload(c.workload, c.scale);
        }
    }
    std::vector<std::uint64_t> cold;
    if (plan.checkpoint) {
        for (const auto &[c, t] : plan.trials) {
            const ExperimentConfig &config = plan.cells[c];
            if (tracer != nullptr) {
                if (!captureTraced(config, trialSeed(config, t), *tracer)) {
                    std::fprintf(stderr,
                                 "perfbench: boundary not reached\n");
                    std::abort();
                }
            } else {
                cold.push_back(
                    fingerprint(runTrial(config, trialSeed(config, t))));
            }
            // The image is on disk now; holding every image in memory
            // as well would make set-up, not restore, the memory peak.
            CheckpointCache::instance().clear();
        }
    }
    return cold;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Minimal JSON object writer for the summary line. */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }
    Json &
    str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char ch : v) {
            if (ch == '"' || ch == '\\')
                q += '\\';
            q += ch;
        }
        return raw(key, q + "\"");
    }
    Json &
    raw(const std::string &key, const std::string &v)
    {
        out_ << (first_ ? "{" : ", ") << "\"" << key << "\": " << v;
        first_ = false;
        return *this;
    }
    std::string
    done()
    {
        return first_ ? "{}" : out_.str() + "}";
    }

  private:
    std::ostringstream out_;
    bool first_ = true;
};

std::string
numList(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", v[i]);
        s += buf;
    }
    return s + "]";
}

std::string
hexList(const std::vector<std::uint64_t> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", \"" : "\"") + hex64(v[i]) + "\"";
    return s + "]";
}

/** Round digest: FNV over the trial fingerprints in canonical order. */
std::uint64_t
digestOf(const std::vector<std::uint64_t> &fingerprints)
{
    Fnv h;
    for (std::uint64_t f : fingerprints)
        h.add(f);
    return h.value();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer numbers of a traced run, per traced trial. */
std::string
layerJson(const TraceTotals &tt, const Tracer &setup,
          const std::vector<Round> &rounds, unsigned workers,
          double ns_per_tick)
{
    const Tracer::Totals T = tt.tracer.estimated(ns_per_tick);
    const Tracer::Totals S = setup.estimated(ns_per_tick);
    const auto at = [](const std::array<double, kLayers> &a, Layer l) {
        return a[static_cast<std::size_t>(l)];
    };
    const double n = static_cast<double>(std::max<std::uint64_t>(tt.trials, 1));
    const auto perTrialS = [&](double ns) { return ns * 1e-9 / n; };
    const TracedWork &w = tt.work;
    const double faults =
        static_cast<double>(w.kernel.majorFaults + w.kernel.minorFaults);

    double selfSum = T.tracer;
    for (double ns : T.self)
        selfSum += ns;

    double wall = 0.0, cpu = 0.0, cacheHits = 0.0, cacheMisses = 0.0;
    double ckptHits = 0.0, ckptMisses = 0.0, ckptLoads = 0.0;
    double untracedTrials = 0.0;
    for (const Round &r : rounds) {
        wall += r.wallS;
        cpu += r.cpuS;
        cacheHits += static_cast<double>(r.cacheHits);
        cacheMisses += static_cast<double>(r.cacheMisses);
        ckptHits += static_cast<double>(r.ckptHits);
        ckptMisses += static_cast<double>(r.ckptMisses);
        ckptLoads += static_cast<double>(r.ckptDiskLoads);
        untracedTrials += static_cast<double>(r.fingerprints.size());
    }
    const double nrounds = static_cast<double>(rounds.size());
    const double captures = at(S.calls, Layer::CkptCapture);

    Json j;
    j.num("sim.events", static_cast<double>(w.events) / n)
        .num("sim.events_per_ref",
             ratio(static_cast<double>(w.events),
                   static_cast<double>(w.touches)))
        .num("sim.run_s", perTrialS(at(T.total, Layer::SimRun)))
        .num("kernel.self_s", perTrialS(at(T.self, Layer::SimRun)))
        .num("kernel.ns_per_fault", ratio(at(T.self, Layer::SimRun), faults))
        .num("kernel.major_faults",
             static_cast<double>(w.kernel.majorFaults) / n)
        .num("kernel.minor_faults",
             static_cast<double>(w.kernel.minorFaults) / n)
        .num("kernel.evictions", static_cast<double>(w.kernel.evictions) / n)
        .num("kernel.direct_reclaims",
             static_cast<double>(w.kernel.directReclaims) / n)
        .num("policy.age_s", perTrialS(at(T.total, Layer::PolicyAge)))
        .num("policy.age_calls", at(T.calls, Layer::PolicyAge) / n)
        .num("policy.ptes_scanned",
             static_cast<double>(w.policy.ptesScanned) / n)
        .num("policy.region_skip_ratio",
             ratio(static_cast<double>(w.policy.regionsSkipped),
                   static_cast<double>(w.policy.regionsVisited)))
        .num("policy.select_s", perTrialS(at(T.total, Layer::PolicySelect)))
        .num("policy.select_calls", at(T.calls, Layer::PolicySelect) / n)
        .num("policy.victims_per_select",
             ratio(static_cast<double>(tt.tracer.victimsReturned),
                   static_cast<double>(tt.tracer.victimsAsked)))
        .num("policy.second_chance_ratio",
             ratio(static_cast<double>(w.policy.secondChances),
                   static_cast<double>(w.policy.secondChances +
                                       w.policy.evicted)))
        .num("policy.rmap_walks", static_cast<double>(w.policy.rmapWalks) / n)
        .num("policy.hook_s", perTrialS(at(T.total, Layer::PolicyHook)))
        .num("policy.hook_calls", at(T.calls, Layer::PolicyHook) / n)
        .num("swap.submit_s", perTrialS(at(T.total, Layer::SwapSubmit)))
        .num("swap.submits", at(T.calls, Layer::SwapSubmit) / n)
        .num("swap.readahead_hit_ratio",
             ratio(static_cast<double>(w.kernel.readaheadHits),
                   static_cast<double>(w.kernel.readaheadReads)))
        .num("swap.cost_s", perTrialS(at(T.total, Layer::SwapCost)))
        .num("swap.sync_ops", static_cast<double>(tt.tracer.syncOps) / n)
        .num("workload.make_s", at(S.total, Layer::WorkloadMake) * 1e-9)
        .num("workload.build_s", perTrialS(at(T.total, Layer::WorkloadBuild)))
        .num("workload.next_s", perTrialS(at(T.total, Layer::WorkloadNext)))
        .num("workload.next_calls", at(T.calls, Layer::WorkloadNext) / n)
        .num("harness.rig_s", perTrialS(at(T.self, Layer::Rig)))
        .num("harness.pool_cpu_util",
             ratio(cpu, wall * static_cast<double>(workers)))
        .num("harness.result_cache_hits", ratio(cacheHits, nrounds))
        .num("harness.result_cache_misses", ratio(cacheMisses, nrounds))
        .num("harness.ckpt_load_s", perTrialS(at(T.total, Layer::CkptLoad)))
        .num("harness.ckpt_restore_s",
             perTrialS(at(T.total, Layer::CkptRestore)))
        .num("harness.ckpt_image_mb",
             static_cast<double>(w.imageBytes) / n / (1024.0 * 1024.0))
        .num("harness.ckpt_hits", ratio(ckptHits, untracedTrials))
        .num("harness.ckpt_misses", ratio(ckptMisses, untracedTrials))
        .num("harness.ckpt_disk_loads", ratio(ckptLoads, untracedTrials))
        .num("harness.ckpt_capture_s",
             ratio(at(S.total, Layer::CkptCapture) * 1e-9, captures))
        .num("trace.overhead_pct",
             100.0 * ratio(tt.tracedS - tt.untracedS, tt.untracedS))
        .num("trace.coverage", ratio(selfSum * 1e-9, tt.tracedS));
    return j.done();
}

int
run(const Args &args)
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (buildType != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing a %s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     buildType.empty() ? "untyped" : buildType.c_str());
        return 2;
    }
    const std::map<std::string, std::string> env = checkedEnvironment();
    const Plan plan = makePlan(args);
    if (plan.trials.empty())
        usage("the plan has no trials");

    const TickCalibration calibration;
    Tracer setupTracer;
    const std::uint64_t setupStart = hostNowNs();
    const std::vector<std::uint64_t> cold =
        setUp(plan, args.trace ? &setupTracer : nullptr);
    const double setupS = secondsSince(setupStart);
    std::printf("%s\n", Json().num("setup_s", setupS).done().c_str());
    std::fflush(stdout);
    // pagesim writes images best-effort; every trial must have one.
    std::uint64_t missingImages = 0;
    if (plan.checkpoint)
        missingImages = plan.trials.size() -
                        std::min(plan.trials.size(),
                                 countImages(env.at("PAGESIM_CHECKPOINT_DIR")));

    std::map<std::uint64_t, std::string> images;
    if (args.trace && plan.checkpoint)
        images = indexImages(env.at("PAGESIM_CHECKPOINT_DIR"));

    const unsigned workers =
        plan.pool > 0 ? plan.pool : std::max(1u, workerOverride());
    std::vector<Round> rounds;
    std::vector<std::uint64_t> expected;
    std::uint64_t mismatches = 0;
    TraceTotals tt;
    HostProbe probe;
    const std::uint64_t measureStart = hostNowNs();
    while (rounds.empty() ||
           (!args.tiny && secondsSince(measureStart) < args.seconds)) {
        announce("round", plan.trials.size());
        Round round = runRound(plan, probe);
        if (expected.empty())
            expected = round.fingerprints;
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < expected.size(); ++i)
            bad += round.fingerprints[i] != expected[i];
        mismatches += bad;
        std::printf("%s\n",
                    Json()
                        .num("round", static_cast<double>(rounds.size()))
                        .num("trials", static_cast<double>(
                                           round.fingerprints.size()))
                        .num("wall_s", round.wallS)
                        .num("mismatches", static_cast<double>(bad))
                        .str("digest", hex64(digestOf(round.fingerprints)))
                        .done()
                        .c_str());
        std::fflush(stdout);
        if (args.trace) {
            if (plan.pool > 0) {
                announce("serial", plan.trials.size());
                mismatches += runSerialReference(plan, expected, tt);
            } else {
                for (double s : round.trialS)
                    tt.untracedS += s;
            }
            announce("traced", plan.trials.size());
            runTracedRound(plan, images, expected, tt);
        }
        rounds.push_back(std::move(round));
    }

    std::uint64_t coldMismatches = 0;
    for (std::size_t i = 0; i < cold.size(); ++i)
        coldMismatches += cold[i] != expected[i];

    std::vector<double> roundWalls, trialWalls, probes;
    std::uint64_t ckptFailures = missingImages;
    std::uint64_t touches = 0;
    double measuredS = 0.0;
    for (const Round &r : rounds) {
        roundWalls.push_back(r.wallS);
        ckptFailures += r.ckptFailures;
        probes.insert(probes.end(), r.probeS.begin(), r.probeS.end());
        trialWalls.insert(trialWalls.end(), r.trialS.begin(), r.trialS.end());
        touches += r.touches;
        measuredS += r.wallS;
    }

    Json envJson;
    for (const auto &[k, v] : env)
        envJson.str(k, v);
    Json s;
    s.str("workload", args.workload)
        .num("seed", static_cast<double>(args.seed))
        .raw("tiny", args.tiny ? "true" : "false")
        .raw("trace", args.trace ? "true" : "false")
        .str("build_type", buildType)
        .str("compiler", PERFBENCH_COMPILER)
        .num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
        .num("workers", workers)
        .raw("env", envJson.done())
        .num("setup_s", setupS)
        .num("cells", static_cast<double>(plan.cells.size()))
        .num("trials_per_round", static_cast<double>(plan.trials.size()))
        .raw("round_s", numList(roundWalls))
        .raw("trial_s", numList(trialWalls))
        .raw("probe_s", numList(probes))
        .num("touches", static_cast<double>(touches))
        .num("measured_s", measuredS)
        .num("mismatches", static_cast<double>(mismatches))
        .num("cold_mismatches", static_cast<double>(coldMismatches))
        .num("ckpt_failures", static_cast<double>(ckptFailures))
        .raw("fingerprints", hexList(expected))
        .str("digest", hex64(digestOf(expected)))
        .num("peak_rss_mb", peakRssMb());
    if (args.trace) {
        s.num("traced_trials", static_cast<double>(tt.trials))
            .num("traced_mismatches", static_cast<double>(tt.mismatches))
            .raw("layers", layerJson(tt, setupTracer, rounds, workers,
                                     calibration.nsPerTick()));
        if (!args.spansPath.empty() &&
            !tt.tracer.writeLog(args.spansPath, calibration.nsPerTick()))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spansPath.c_str());
    }
    std::printf("{\"summary\": %s}\n", s.done().c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
