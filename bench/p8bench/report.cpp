#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/contract.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace p8bench {

using p8::common::json_number;
using p8::common::json_quote;

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

void set_layer(Outcome& out, const std::string& name, double value,
               std::size_t samples) {
  for (Metric& m : out.per_layer)
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      return;
    }
  out.per_layer.push_back({name, value, "", samples});
}

BenchmarkSpec load_benchmark() {
  const std::string path = std::string(P8BENCH_REPO_ROOT) + "/BENCHMARK.json";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const p8::common::Json doc = p8::common::Json::parse(text.str());
  const auto field = [&](const p8::common::Json& row, const char* key)
      -> const p8::common::Json& {
    const p8::common::Json* v = row.find(key);
    if (v == nullptr) throw std::runtime_error(path + ": a metric has no " + key);
    return *v;
  };
  const auto rows = [&](const char* key) {
    std::vector<MetricSpec> out;
    const p8::common::Json* list = doc.find(key);
    if (list == nullptr || !list->is_array())
      throw std::runtime_error(path + " has no " + key + " list");
    for (const p8::common::Json& e : list->array) {
      MetricSpec m;
      m.name = field(e, "name").as_string("name");
      m.unit = field(e, "unit").as_string("unit");
      m.higher_is_better = field(e, "better").as_string("better") == "higher";
      if (const p8::common::Json* b = e.find("bound")) m.bound = b->as_number("bound");
      out.push_back(m);
    }
    return out;
  };
  const p8::common::Json* run_seconds = doc.find("run_seconds");
  if (run_seconds == nullptr) throw std::runtime_error(path + " has no run_seconds");
  return {run_seconds->as_number("run_seconds"), rows("end_to_end"), rows("per_layer")};
}

void conform(Outcome& out, const BenchmarkSpec& spec, bool traced) {
  const auto declared = [](const std::vector<MetricSpec>& rows, const Metric& m) {
    for (const MetricSpec& r : rows)
      if (r.name == m.name && (m.unit.empty() || r.unit == m.unit)) return true;
    return false;
  };
  std::vector<Metric>& reported = traced ? out.per_layer : out.end_to_end;
  const std::vector<MetricSpec>& rows = traced ? spec.per_layer : spec.end_to_end;
  for (const Metric& m : reported)
    out.tally.check(declared(rows, m),
                    "metric " + m.name + " [" + m.unit + "] is not declared in BENCHMARK.json");
  std::vector<Metric> ordered;
  for (const MetricSpec& r : rows) {
    Metric row{r.name, 0.0, r.unit, 0};
    bool found = false;
    for (const Metric& m : reported)
      if (m.name == r.name) {
        row.value = m.value;
        row.samples = m.samples;
        found = true;
      }
    out.tally.check(found || traced,
                    "end-to-end metric " + r.name + " was not measured");
    ordered.push_back(row);
  }
  reported = std::move(ordered);
}

double median(std::vector<double> values) {
  return quantile_or_zero(std::move(values), 0.5);
}

double quantile_or_zero(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return p8::common::quantile(std::move(values), q);
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Buckets span 100 ns .. ~1000 s; bucket b holds [kLow g^b, kLow g^(b+1)).
constexpr double kLow = 1e-7;
constexpr double kGrowth = 1.002;
constexpr std::size_t kBuckets = 11520;

}  // namespace

void LatencyHistogram::add(double seconds) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  const double b = seconds > kLow ? std::log(seconds / kLow) / std::log(kGrowth) : 0.0;
  ++buckets_[std::min(kBuckets - 1, static_cast<std::size_t>(b))];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Rank q(n-1) among the sorted samples, as common::quantile ranks; the
  // samples inside a bucket are taken as spread evenly across it.
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  double below = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double n = static_cast<double>(buckets_[b]);
    if (rank < below + n) {
      const double within = (rank - below + 0.5) / n;
      return kLow * std::pow(kGrowth, static_cast<double>(b) + within);
    }
    below += n;
  }
  return kLow * std::pow(kGrowth, static_cast<double>(kBuckets));
}

void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& rates, double latency_p50_s,
                    double latency_p99_s, std::size_t latency_samples) {
  if (latency_samples < 1000)
    std::fprintf(stderr,
                 "p8bench: warning: latency_p99_us comes from %zu samples, "
                 "fewer than ten beyond it (the window is too short)\n",
                 latency_samples);
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"throughput_per_s", median(rates), "1/s", rates.size()},
      {"latency_p50_us", latency_p50_s * 1e6, "us", latency_samples},
      {"latency_p99_us", latency_p99_s * 1e6, "us", latency_samples},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  p8::common::SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ull) ^
                            (b * 0xc2b2ae3d27d4eb4full));
  return sm.next();
}

void flip_low_bit(double& v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof bits);
}

std::string build_refusal() {
#ifndef NDEBUG
  return "this build does not define NDEBUG; build Release "
         "(-O3 -DNDEBUG) before reporting numbers";
#else
  if (P8_CONTRACTS_ENABLED)
    return "this build forces the hot-path contract checks on "
           "(P8_CONTRACTS); numbers from it do not describe the shipped "
           "simulator";
  return "";
#endif
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

/// HEAD of the source tree this binary was configured from, read at run
/// time so a rebuild after a commit reports the new commit.
std::string git_head() {
  const std::string git = std::string(P8BENCH_REPO_ROOT) + "/.git";
  const std::string head = read_first_line(git + "/HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  const std::string loose = read_first_line(git + "/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(git + "/packed-refs");
  std::string line;
  while (std::getline(packed, line))
    if (line.size() == ref.size() + 41 &&
        line.compare(41, std::string::npos, ref) == 0)
      return line.substr(0, 40);
  return "unknown";
}

std::string metrics_object(const std::vector<Metric>& metrics,
                           bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_quote(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_quote(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

const std::vector<Metric>& reported(const Options& options,
                                    const Outcome& outcome) {
  return options.traced ? outcome.per_layer : outcome.end_to_end;
}

std::string provenance_json(const Options& options) {
  return "{\"nproc\": " + std::to_string(online_cpus()) +
         ", \"cpu_model\": " + json_quote(cpu_model()) +
         ", \"compiler\": " + json_quote(P8BENCH_COMPILER) +
         ", \"build_flags\": " + json_quote(P8BENCH_FLAGS) +
         ", \"git_head\": " + json_quote(git_head()) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"tracing\": " + (options.traced ? "true" : "false") +
         ", \"workers\": " + std::to_string(options.threads) +
         ", \"connections\": " + std::to_string(options.threads) + "}";
}

}  // namespace

std::string result_json(const Options& options, const Outcome& outcome) {
  std::string out = "{\n  \"benchmark\": \"p8bench\"";
  out += ",\n  \"workload\": " + json_quote(options.workload);
  out += ",\n  \"seed\": " + std::to_string(options.seed);
  out += ",\n  \"seconds\": " + json_number(options.seconds);
  out += std::string(",\n  \"traced\": ") + (options.traced ? "true" : "false");
  out += ",\n  \"provenance\": " + provenance_json(options);
  out += std::string(",\n  \"correct\": ") +
         (outcome.tally.failed == 0 ? "true" : "false");
  out += ",\n  \"attempted\": " + std::to_string(outcome.tally.attempted);
  out += ",\n  \"failed\": " + std::to_string(outcome.tally.failed);
  out += ",\n  \"failures\": [";
  for (std::size_t i = 0; i < outcome.tally.failures.size(); ++i)
    out += (i ? ", " : "") + json_quote(outcome.tally.failures[i]);
  out += "]";
  out += ",\n  \"end_to_end\": " + metrics_object(outcome.end_to_end, true);
  out += ",\n  \"per_layer\": " + metrics_object(outcome.per_layer, true);
  out += ",\n  \"facts\": {";
  for (std::size_t i = 0; i < outcome.facts.size(); ++i)
    out += (i ? ", " : "") + json_quote(outcome.facts[i].first) + ": " +
           json_quote(outcome.facts[i].second);
  out += "}\n}\n";
  return out;
}

std::string summary_line(const Options& options, const Outcome& outcome) {
  return std::string("{\"correct\": ") +
         (outcome.tally.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.tally.attempted) +
         ", \"failed\": " + std::to_string(outcome.tally.failed) +
         ", \"metrics\": " +
         metrics_object(reported(options, outcome), false) + "}";
}

std::string metric_lines(const Options& options, const Outcome& outcome) {
  std::ostringstream out;
  for (const Metric& m : reported(options, outcome))
    out << m.name << " " << json_number(m.value) << " " << m.unit
        << " (n=" << m.samples << ")\n";
  return out.str();
}

std::uint64_t digest(const std::vector<double>& values) {
  return p8::trace::fnv1a(values.data(), values.size() * sizeof(double));
}

std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kDigits[v & 15];
  return out;
}

}  // namespace p8bench
