#include "metrics/collector.hh"

namespace pagesim
{

const char *
metricsModeName(MetricsMode mode)
{
    switch (mode) {
      case MetricsMode::Off:
        return "off";
      case MetricsMode::Counters:
        return "counters";
      case MetricsMode::Full:
        return "full";
    }
    return "?";
}

std::optional<MetricsMode>
parseMetricsMode(const std::string &s)
{
    if (s == "off")
        return MetricsMode::Off;
    if (s == "counters")
        return MetricsMode::Counters;
    if (s == "full" || s == "on" || s == "1")
        return MetricsMode::Full;
    return std::nullopt;
}

MetricsCollector::MetricsCollector(const MetricsConfig &config)
    : config_(config),
      spans_(registry_, config.maxSpans, config.maxSpans)
{
    trackNames_.push_back("kernel");
}

std::uint32_t
MetricsCollector::track(const std::string &name)
{
    trackNames_.push_back(name);
    return static_cast<std::uint32_t>(trackNames_.size() - 1);
}

std::uint32_t
MetricsCollector::trackFor(const void *key, const std::string &name)
{
    auto it = trackIndex_.find(key);
    if (it != trackIndex_.end())
        return it->second;
    const std::uint32_t tid = track(name);
    trackIndex_.emplace(key, tid);
    return tid;
}

MetricsSnapshot
MetricsCollector::snapshot(SimTime now) const
{
    MetricsSnapshot s;
    // Fold any retained-but-unaggregated spans into the histograms so
    // the registry view below is complete (see FaultSpanRecorder).
    spans_.aggregateRetained();
    s.counterNames = registry_.counterNames();
    s.counterValues = registry_.counterValues();
    s.gaugeNames = registry_.gaugeNames();
    s.gaugeValues = registry_.gaugeValues();
    s.histogramNames = registry_.histogramNames();
    s.histograms = registry_.histograms();
    s.spans = spans_.spans();
    s.spansDropped = spans_.spansDropped();
    s.instants = spans_.instants();
    s.instantsDropped = spans_.instantsDropped();
    s.timeseries = sampler_.series();
    s.trackNames = trackNames_;
    s.capturedAt = now;
    return s;
}

} // namespace pagesim
