#include "tracer.hh"

#include <algorithm>

namespace perfbench
{

Tracer::Tracer()
{
    std::array<std::uint64_t, 1001> gaps{};
    for (std::uint64_t &gap : gaps) {
        const std::uint64_t start = hostTicks();
        gap = hostTicks() - start;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    floorTicks_ = static_cast<double>(gaps[gaps.size() / 2]);
}

const char *
layerName(Layer layer)
{
    static const char *const names[kLayers] = {
        "harness.rig",          "sim.run",
        "policy.age",           "policy.select",
        "policy.hook",          "swap.submit",
        "swap.cost",            "workload.make",
        "workload.build",       "workload.next",
        "harness.ckpt_load",    "harness.ckpt_restore",
        "harness.ckpt_capture", "harness.collect",
    };
    return names[static_cast<std::size_t>(layer)];
}

Tracer::Totals
Tracer::estimated(double ns_per_tick) const
{
    Totals t;
    for (std::size_t i = 0; i < kLayers; ++i) {
        const double floor = ticks_.calls[i] * floorTicks_;
        t.self[i] = (ticks_.self[i] - floor) * ns_per_tick;
        t.total[i] = (ticks_.total[i] - floor) * ns_per_tick;
        t.calls[i] = ticks_.calls[i];
        t.tracer += floor * ns_per_tick;
    }
    for (std::size_t i = 0; i < kLayers; ++i) {
        if (ticks_.calls[i] == 0)
            continue;
        // Hot layers are leaves, so their self and total time agree.
        const double meanNs = t.total[i] / ticks_.calls[i];
        for (std::size_t parent = 0; parent <= kLayers; ++parent) {
            const double n = static_cast<double>(unsampled_[i][parent]);
            if (n == 0)
                continue;
            t.calls[i] += n;
            t.self[i] += n * meanNs;
            t.total[i] += n * meanNs;
            if (parent < kLayers)
                t.self[parent] -= n * meanNs;
        }
    }
    return t;
}

bool
Tracer::writeLog(const std::string &path, double ns_per_tick) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::uint64_t origin = log_.empty() ? 0 : log_.front().start;
    for (const Record &r : log_) {
        std::fprintf(
            f,
            "{\"span\": \"%s\", \"trial\": %u, \"start_ns\": %.0f, "
            "\"end_ns\": %.0f}\n",
            layerName(r.layer), r.trial,
            static_cast<double>(r.start - origin) * ns_per_tick,
            static_cast<double>(r.end - origin) * ns_per_tick);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
