#include "support/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace wst::support {

#ifndef NDEBUG
thread_local std::int32_t gMetricsWriterLp = -1;

void Gauge::assertSingleWriter() {
  if (gMetricsWriterLp < 0) return;  // setup / hook / post-run context
  std::int32_t expected = kUnowned;
  if (ownerLp_.compare_exchange_strong(expected, gMetricsWriterLp,
                                       std::memory_order_relaxed)) {
    return;  // first event-context writer claims the gauge
  }
  WST_ASSERT(expected == gMetricsWriterLp,
             "Gauge::set from a second LP; concurrent writers must use "
             "observe()");
}
#endif

void Histogram::record(std::uint64_t value) {
  buckets_[static_cast<std::size_t>(std::bit_width(value))].fetch_add(
      1, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::size_t Histogram::bucketEnd() const {
  std::size_t end = kBuckets;
  while (end > 0 && bucket(end - 1) == 0) --end;
  return end;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min());
  if (q >= 1.0) return static_cast<double>(max());
  // Fractional rank in [0, n-1]; find the bucket holding that rank.
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t below = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    const std::uint64_t inBucket = bucket(k);
    if (inBucket == 0) continue;
    if (rank < static_cast<double>(below + inBucket)) {
      // Bucket k holds values needing k bits: [2^(k-1), 2^k - 1] (bucket 0
      // holds only 0). Interpolate by the rank's position inside the bucket.
      double lo = k == 0 ? 0.0 : static_cast<double>(1ULL << (k - 1));
      double hi = k == 0 ? 0.0 : static_cast<double>((1ULL << (k - 1)) * 2 - 1);
      const double within =
          (rank - static_cast<double>(below)) / static_cast<double>(inBucket);
      double value = lo + (hi - lo) * within;
      // The true extremes are known exactly; never estimate past them.
      value = std::max(value, static_cast<double>(min()));
      value = std::min(value, static_cast<double>(max()));
      return value;
    }
    below += inBucket;
  }
  return static_cast<double>(max());
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // try_emplace: instruments hold atomics and are neither copyable nor
    // movable, so they must be constructed in place.
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

std::int64_t MetricsSnapshot::value(std::string_view key,
                                    std::int64_t fallback) const {
  for (const auto& [name, v] : series) {
    if (name == key) return v;
  }
  return fallback;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.series.reserve(counters_.size() + 2 * gauges_.size() +
                      6 * histograms_.size());
  for (const auto& [name, counter] : counters_) {
    snap.series.emplace_back("counter/" + name,
                             static_cast<std::int64_t>(counter.value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.series.emplace_back("gauge/" + name, gauge.value());
    snap.series.emplace_back("gauge/" + name + "#max", gauge.max());
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string base = "hist/" + name;
    snap.series.emplace_back(base + "#count",
                             static_cast<std::int64_t>(histogram.count()));
    snap.series.emplace_back(base + "#max",
                             static_cast<std::int64_t>(histogram.max()));
    snap.series.emplace_back(base + "#min",
                             static_cast<std::int64_t>(histogram.min()));
    snap.series.emplace_back(base + "#p50",
                             std::llround(histogram.quantile(0.5)));
    snap.series.emplace_back(base + "#p99",
                             std::llround(histogram.quantile(0.99)));
    snap.series.emplace_back(base + "#sum",
                             static_cast<std::int64_t>(histogram.sum()));
  }
  return snap;
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard lock(mu_);
  std::string out;
  bool first = true;
  const auto key = [&](const std::string& name) {
    out += first ? "\"" : ", \"";
    first = false;
    appendJsonEscaped(out, name);
    out += "\": ";
  };
  out += "{\"counters\": {";
  for (const auto& [name, counter] : counters_) {
    key(name);
    appendInt(out, counter.value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    key(name);
    out += "{\"value\": ";
    appendInt(out, gauge.value());
    out += ", \"max\": ";
    appendInt(out, gauge.max());
    out += '}';
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    key(name);
    out += "{\"count\": ";
    appendInt(out, histogram.count());
    out += ", \"sum\": ";
    appendInt(out, histogram.sum());
    out += ", \"min\": ";
    appendInt(out, histogram.min());
    out += ", \"max\": ";
    appendInt(out, histogram.max());
    out += ", \"mean\": ";
    appendFixed3(out, histogram.mean());
    out += ", \"p50\": ";
    appendFixed3(out, histogram.quantile(0.5));
    out += ", \"p99\": ";
    appendFixed3(out, histogram.quantile(0.99));
    out += ", \"buckets\": [";
    const std::size_t end = histogram.bucketEnd();
    for (std::size_t b = 0; b < end; ++b) {
      if (b != 0) out += ", ";
      appendInt(out, histogram.bucket(b));
    }
    out += "]}";
  }
  out += "}}";
  // Callers keep the document (wst serve holds one per session), so hand it
  // back without the spare capacity that growing it left.
  out.shrink_to_fit();
  return out;
}

}  // namespace wst::support
