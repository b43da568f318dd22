#include "report.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "server/protocol.h"

namespace servebench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return Quantile(std::move(values), 0.5);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return kInf;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(size_t samples) {
  if (samples < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

Report Summarize(const WorkloadSpec& spec, const RunResult& run,
                 const CheckResult& check) {
  Report report;
  const double window_ms = run.window_s * 1e3;
  // A failed or refused command never delivers its answer: it counts as
  // +inf, which misses any latency limit. A percentile that lands on one
  // is reported right-censored at the timed window's length (the answer
  // did not arrive within it), so the value stays a finite measurement.
  auto percentile = [&](const std::vector<double>& latencies, double q) {
    const double value = Quantile(latencies, q);
    return std::isinf(value) ? window_ms : value;
  };

  std::vector<double> all, opens, diversifies, zooms, queue;
  size_t verified = 0, busy = 0, transport = 0, mismatched = 0;
  size_t computes = 0, ok_computes = 0, ok_diversify = 0, cached = 0;
  size_t negative_queue = 0;
  double bytes = 0, accesses = 0, distances = 0;
  size_t ok_answers = 0;
  for (const Record& record : run.records) {
    const bool matched =
        record.ok && record.item != kNoItem && check.item_ok[record.item];
    if (record.ok && !matched) ++mismatched;
    if (record.busy) ++busy;
    if (record.transport) ++transport;
    const double latency = matched ? record.latency_ms : kInf;
    if (matched) ++verified;
    all.push_back(latency);
    const bool compute = record.verb == disc::Verb::kDiversify ||
                         record.verb == disc::Verb::kZoom;
    if (record.verb == disc::Verb::kOpen && !record.setup) {
      opens.push_back(latency);
    } else if (record.verb == disc::Verb::kZoom || record.radius_change) {
      zooms.push_back(latency);
    } else if (record.verb == disc::Verb::kDiversify) {
      diversifies.push_back(latency);
    }
    if (!compute) {
      if (matched) {
        bytes += record.bytes;
        ++ok_answers;
      }
      continue;
    }
    ++computes;
    if (!matched) continue;
    ++ok_computes;
    ++ok_answers;
    bytes += record.bytes;
    accesses += static_cast<double>(record.node_accesses);
    distances += static_cast<double>(record.distance_computations);
    if (record.verb == disc::Verb::kDiversify) {
      ++ok_diversify;
      if (record.from_cache) ++cached;
    }
    if (record.wall_ms >= 0) {
      if (record.latency_ms < record.wall_ms) ++negative_queue;
      // Coalesced answers replay the leader's wall_ms, so queue time is
      // taken only where an answer cannot have been coalesced: every
      // answer of a session workload (no two sessions share a dataset),
      // and own-cache hits of a shared one.
      if (!spec.shared || record.from_cache) {
        queue.push_back(record.latency_ms - record.wall_ms);
      }
    }
  }
  // The shared workloads OPEN only during set-up; their OPEN latency is
  // taken from every set-up repetition.
  if (opens.empty()) {
    for (const Record& record : run.setup_opens) {
      opens.push_back(record.ok ? record.latency_ms : kInf);
    }
  }

  report.attempted = run.records.size();
  report.failed = report.attempted - verified;
  report.correct = check.mismatched_items == 0;
  const double tail = TailQuantile(all.size());

  // The latencies other than diversify_p50_ms, and peak_rss_mb, did not
  // repeat within a tenth from run to run (README.md, "Steadiness"), so
  // they travel in the context line instead of the metrics.
  report.end_to_end = {
      {"setup_s", Median(run.setup_s), "s"},
      {"cmds_per_s", Share(static_cast<double>(verified), run.window_s),
       "1/s"},
      {"diversify_p50_ms", percentile(diversifies, 0.5), "ms"},
      {"goodput_share",
       Share(static_cast<double>(verified),
             static_cast<double>(report.attempted)),
       "share"},
      {"cpu_ms_per_cmd",
       Share(run.cpu_s * 1e3, static_cast<double>(std::max<size_t>(
                                  1, verified))),
       "ms"},
  };

  const disc::SessionManagerStats& m = run.manager_delta;
  const double cold = std::max(
      0.0, static_cast<double>(m.flights_led) -
               static_cast<double>(m.flights_adapted) -
               static_cast<double>(m.flights_adapt_followed) -
               static_cast<double>(run.server_delta.busy_rejections));
  const double attempted = static_cast<double>(report.attempted);
  const double n_computes = static_cast<double>(computes);
  report.per_layer = {
      {"error_rate", Share(static_cast<double>(report.failed), attempted),
       "share"},
      {"metric.distances_per_cmd",
       Share(distances, static_cast<double>(ok_computes)), "count"},
      {"mtree.node_accesses_per_cmd",
       Share(accesses, static_cast<double>(ok_computes)), "count"},
      {"engine.cache_hit_share",
       Share(static_cast<double>(cached), static_cast<double>(ok_diversify)),
       "share"},
      {"session.pool_hit_share",
       Share(static_cast<double>(m.pool_hits),
             static_cast<double>(m.leases_acquired)),
       "share"},
      {"session.memo_hit_share",
       Share(static_cast<double>(m.flights_memoized), n_computes), "share"},
      {"session.follower_share",
       Share(static_cast<double>(m.flights_coalesced), n_computes), "share"},
      {"session.adapted_share",
       Share(static_cast<double>(m.flights_adapted), n_computes), "share"},
      {"session.adapt_followed_share",
       Share(static_cast<double>(m.flights_adapt_followed), n_computes),
       "share"},
      {"session.cold_solves_per_cmd", Share(cold, attempted), "count"},
      {"server.queue_ms", Median(queue), "ms"},
      {"server.negative_queue_share",
       Share(static_cast<double>(negative_queue),
             static_cast<double>(ok_computes)),
       "share"},
      {"server.busy_share",
       Share(static_cast<double>(run.server_delta.busy_rejections),
             attempted),
       "share"},
      {"server.coalesced_share",
       Share(static_cast<double>(run.server_delta.coalesced_responses),
             attempted),
       "share"},
      {"protocol.response_bytes",
       Share(bytes, static_cast<double>(ok_answers)), "bytes"},
      {"batch.cold_solves_per_frame",
       Share(cold, static_cast<double>(run.frames)), "count"},
  };

  report.context = {
      {"lat_p50_ms", percentile(all, 0.5)},
      {"lat_p99_ms", percentile(all, tail)},
      {"open_p50_ms", percentile(opens, 0.5)},
      {"zoom_p50_ms", percentile(zooms, 0.5)},
      {"peak_rss_mb", run.peak_rss_mb},
      {"attempted", attempted},
      {"verified", static_cast<double>(verified)},
      {"failed", static_cast<double>(report.failed)},
      {"busy", static_cast<double>(busy)},
      {"transport_errors", static_cast<double>(transport)},
      {"mismatched", static_cast<double>(mismatched)},
      {"error_rate", Share(static_cast<double>(report.failed), attempted)},
      {"checked_items", static_cast<double>(check.item_ok.size())},
      {"latency_samples", static_cast<double>(all.size())},
      {"lat_tail_quantile", tail},
      {"open_samples", static_cast<double>(opens.size())},
      {"diversify_samples", static_cast<double>(diversifies.size())},
      {"zoom_samples", static_cast<double>(zooms.size())},
      {"window_s", run.window_s},
      {"frames", static_cast<double>(run.frames)},
  };
  return report;
}

std::string ContextJson(const Context& context) {
  disc::JsonWriter fields;
  for (const auto& [key, value] : context.values) fields.Field(key, value);
  for (const auto& [key, value] : context.numbers) fields.Field(key, value);
  return disc::JsonWriter().RawField("context", fields.Finish()).Finish();
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  disc::JsonWriter values;
  for (const Metric& metric : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    values.RawField(metric.name, disc::JsonWriter()
                                     .Field("value", value)
                                     .Field("unit", metric.unit)
                                     .Finish());
  }
  return disc::JsonWriter()
      .Field("correct", correct)
      .Field("attempted", static_cast<uint64_t>(attempted))
      .Field("failed", static_cast<uint64_t>(failed))
      .RawField("metrics", values.Finish())
      .Finish();
}

}  // namespace servebench
