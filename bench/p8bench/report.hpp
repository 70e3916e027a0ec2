// Result plumbing shared by every workload: run options, metrics, the
// oracle tally, provenance and the two output forms — one
// `name value unit` line per metric plus a one-line JSON summary on
// stdout, and a full result file (metrics with sample counts, facts,
// provenance) that `p8bench compare` reads back.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace p8bench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Measured window: BENCHMARK.json's run_seconds unless --seconds says
  /// otherwise.
  double seconds = 0.0;
  bool traced = false;
  /// Flip one bit of one result before the oracles run (oracle self-test).
  bool perturb = false;
  /// Result files, spans, traces and sockets go here.
  std::string out_dir = "build/p8bench/results";
  std::size_t threads = 1;  ///< sweep workers, and client connections
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value
};

/// Oracle bookkeeping: every check is one attempted operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnostics

  void check(bool ok, const std::string& what);
};

/// What one workload run produces.
struct Outcome {
  std::vector<Metric> end_to_end;  ///< filled by every run
  std::vector<Metric> per_layer;   ///< filled by traced runs
  Tally tally;
  /// Deterministic descriptors (digests, counts, sizes) for the file.
  std::vector<std::pair<std::string, std::string>> facts;

  void fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
};

/// Sets (or overwrites) one per-layer row; its unit comes from
/// BENCHMARK.json when the run conforms its output.
void set_layer(Outcome& out, const std::string& name, double value,
               std::size_t samples);

// ---- the BENCHMARK.json contract ------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  ///< end-to-end rows only
};

struct BenchmarkSpec {
  double run_seconds = 0.0;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

/// The repository's BENCHMARK.json: the run length and the one list of
/// metric names, units, directions and bounds; throws when it cannot be
/// read.
BenchmarkSpec load_benchmark();

/// Makes the reported rows match `spec`: a traced run gets every
/// per-layer row in the spec's order and units (rows the workload never
/// reached read 0); an untraced run's end-to-end rows must be exactly
/// the spec's.  A row the spec does not declare is an oracle failure.
void conform(Outcome& out, const BenchmarkSpec& spec, bool traced);

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated quantile; 0 for an empty sample.
double quantile_or_zero(std::vector<double> values, double q);
std::size_t online_cpus();

/// Latencies counted in logarithmic buckets 0.2% wide.  Its memory is
/// fixed however many requests a window completes, so peak RSS measures
/// the program under test rather than the benchmark's sample buffers.
class LatencyHistogram {
 public:
  void add(double seconds);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// The q-quantile in seconds, interpolated inside its bucket; 0 when
  /// empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// The end-to-end metrics every workload reports: set-up time (median
/// of the repeated set-ups), work rate (median of the window's
/// sub-window rates, so a stall in one pass or second does not move it),
/// the latency median and 99th percentile of its unit of work, and peak
/// resident memory.  A p99 needs at least ten samples beyond it; every
/// workload is sized to complete 1000 units in a run_seconds window, and
/// a window that completes fewer prints a warning.
void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& rates, double latency_p50_s,
                    double latency_p99_s, std::size_t latency_samples);

// ---- seeded inputs --------------------------------------------------------

/// A well-mixed 64-bit value derived from the seed and two indices; every
/// seeded input (permutation seeds, request picks, samples) comes from it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// Flips the lowest bit of `v`: the `--perturb` fault the oracles must
/// catch.
void flip_low_bit(double& v);

// ---- provenance and output ------------------------------------------------

/// Empty when this binary may report numbers; otherwise why not (a build
/// without NDEBUG, or with the contract checks forced on).
std::string build_refusal();

/// The full result document written to the result file.
std::string result_json(const Options& options, const Outcome& outcome);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}
/// with the end-to-end metrics (untraced) or per-layer ones (traced).
std::string summary_line(const Options& options, const Outcome& outcome);

/// `name value unit (n=samples)` lines for the reported metrics.
std::string metric_lines(const Options& options, const Outcome& outcome);

/// FNV-1a over the bytes of `values`.
std::uint64_t digest(const std::vector<double>& values);
std::string hex64(std::uint64_t v);

}  // namespace p8bench
