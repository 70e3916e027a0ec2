// Shared helpers for the bench binaries: every bench regenerates one
// table or figure of the paper and prints it in a uniform style, with
// the paper's reported value alongside the model/measured value where
// the paper states one.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/taskgraph.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "sim/audit.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/sweep.hpp"

namespace p8::bench {

inline void print_header(const std::string& artifact,
                         const std::string& description) {
  std::printf("=======================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("=======================================================\n");
}

/// "model vs paper" cell: value, paper value, and the ratio.
inline std::string vs_paper(double value, double paper, int digits = 0) {
  return common::fmt_num(value, digits) + " (paper " +
         common::fmt_num(paper, digits) + ", " +
         common::fmt_num(100.0 * value / paper, 0) + "%)";
}

/// Declares the shared `--counters` flag: a path to dump the bench's
/// event counters to, "" (the default) meaning counting stays off.
inline std::string counters_path_arg(common::ArgParser& args) {
  return args.get_string(
      "counters", "",
      "dump simulator event counters here (.csv => CSV, else JSON)");
}

/// Writes `registry` to `path`, picking the format from the extension
/// (".csv"/".CSV" => CSV, anything else => JSON tagged with `bench`).
/// No-op (returning true) for an empty path, so benches can call it
/// unconditionally.  An unwritable path prints a clear message to
/// stderr and returns false — callers turn that into a non-zero exit
/// so sweep scripts notice the missing dump instead of reading stale
/// files.
inline bool write_counters(const sim::CounterRegistry& registry,
                           const std::string& path,
                           const std::string& bench) {
  if (path.empty()) return true;
  const bool csv = common::iends_with(path, ".csv");
  const std::string body = csv ? registry.to_csv() : registry.to_json(bench);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write counters to %s\n", path.c_str());
    return false;
  }
  std::fputs(body.c_str(), f);
  std::fclose(f);
  return true;
}

/// Declares a validated integer flag: a value that fails to parse
/// ("10x", "abc") or falls outside [lo, hi] prints a diagnostic and
/// returns nullopt — callers turn that into exit code 2, the same
/// loud-failure path a misspelled option takes, instead of crashing on
/// an uncaught std::invalid_argument or silently running a nonsense
/// configuration.
inline std::optional<std::int64_t> bounded_int_arg(common::ArgParser& args,
                                                   const std::string& name,
                                                   std::int64_t def,
                                                   std::int64_t lo,
                                                   std::int64_t hi,
                                                   const std::string& help) {
  std::int64_t raw = 0;
  try {
    raw = args.get_int(name, def, help);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
  if (raw < lo || raw > hi) {
    std::fprintf(stderr,
                 "error: --%s must be between %lld and %lld, got %lld\n",
                 name.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi), static_cast<long long>(raw));
    return std::nullopt;
  }
  return raw;
}

/// Declares the shared `--threads` flag: how many workers the bench's
/// sweep pool uses, 0 (the default) meaning one per
/// hardware thread.  Validated like every bounded_int_arg (and
/// `--thread=` itself lands in finish_args' did-you-mean hint because
/// the flag is declared here); 4096 is a sanity cap no real pool wants.
inline std::optional<std::size_t> threads_arg(common::ArgParser& args) {
  const auto raw = bounded_int_arg(
      args, "threads", 0, 0, 4096,
      "sweep workers (0 = one per hardware thread)");
  if (!raw) return std::nullopt;
  return static_cast<std::size_t>(*raw);
}

/// The pool size a `--threads` value asks for: 0 means one worker per
/// hardware thread.
inline std::size_t pool_threads(std::size_t threads) {
  return threads != 0 ? threads : common::default_thread_count();
}

/// Declares the shared `--task-json` flag: where to dump the sweeps'
/// per-task timing timeline, "" (the default) meaning no artifact.
inline std::string task_json_arg(common::ArgParser& args) {
  return args.get_string(
      "task-json", "",
      "dump the sweeps' per-task timing timeline (JSON) here; \"\" = off");
}

/// Sweeps run one after another, their per-point records gathered
/// into one timeline on one clock for the --task-json artifact.
struct SweepTimeline {
  std::vector<common::TaskRecord> records;
  double wall_s = 0.0;  ///< when the last sweep finished
  common::Timer clock;

  /// runner.run(points, point) with its tasks labelled `label`; the
  /// run's records are appended shifted onto `clock`.
  template <typename Fn>
  auto run(sim::SweepRunner& runner, const std::string& label,
           std::size_t points, Fn&& point) {
    const double start_s = clock.seconds();
    runner.set_task_label(label);
    auto out = runner.run(points, std::forward<Fn>(point));
    for (common::TaskRecord rec : runner.last_timeline()) {
      rec.start_s += start_s;
      rec.end_s += start_s;
      records.push_back(std::move(rec));
    }
    wall_s = clock.seconds();
    return out;
  }

  /// The timeline as common::timeline_json renders it.
  std::string json(const std::string& bench, std::size_t workers) const {
    return common::timeline_json(bench, workers, records, wall_s);
  }
};

/// Writes a pre-rendered task-timeline JSON document to `path`.  No-op
/// returning true for an empty path, so benches call it
/// unconditionally; an unwritable path prints to stderr and returns
/// false (callers exit non-zero), mirroring write_counters.
inline bool write_task_timeline(const std::string& body,
                                const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write task timeline to %s\n",
                 path.c_str());
    return false;
  }
  std::fputs(body.c_str(), f);
  std::fclose(f);
  std::printf("task timeline written to %s\n", path.c_str());
  return true;
}

/// Declares the shared `--machine` flag: which machine to simulate — a
/// registry preset name or a path to a MachineSpec .json file
/// (docs/MODEL.md).  `def` is the bench's calibrated default.
inline std::string machine_arg(common::ArgParser& args,
                               const std::string& def = "e870") {
  std::string presets;
  for (const std::string& name : sim::machine_names()) {
    if (!presets.empty()) presets += "|";
    presets += name;
  }
  return args.get_string(
      "machine", def,
      "machine to simulate: a preset (" + presets + ") or a spec .json path");
}

/// Resolves a `--machine` selector.  On an unknown preset, unreadable
/// file or malformed JSON, prints the error to stderr and returns
/// nullopt — callers turn that into exit code 2.
inline std::optional<sim::MachineSpec> load_machine(
    const std::string& selector) {
  try {
    return sim::load_machine_spec(selector);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
}

/// Call once every option is declared, instead of args.finish().
/// Handles `--help` (prints usage, exit 0) and unknown options (prints
/// each with a did-you-mean hint, exit 2) without throwing; returns
/// nullopt when the bench should proceed.  Usage:
///
///   if (auto exit_code = bench::finish_args(args)) return *exit_code;
inline std::optional<int> finish_args(const common::ArgParser& args) {
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  const std::vector<std::string> unknown = args.unknown_args();
  if (unknown.empty()) return std::nullopt;
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "error: unknown option --%s\n", name.c_str());
    const std::string hint = args.suggest(name);
    if (!hint.empty())
      std::fprintf(stderr, "       (did you mean --%s?)\n", hint.c_str());
  }
  std::fputs(args.help().c_str(), stderr);
  return 2;
}

/// Declares the shared `--no-audit` flag: waive a failed ModelAudit and
/// simulate the (structurally wrong) configuration anyway.  Must be
/// called before args.finish(), like every other declaration.
inline bool no_audit_arg(common::ArgParser& args) {
  return args.get_flag(
      "no-audit",
      "run even if the machine configuration fails its model audit");
}

/// Audit gate every bench runs after constructing its Machine: prints
/// the audit diagnostics to stderr and returns false — callers turn
/// that into exit code 2 — when the configuration carries errors and
/// `no_audit` was not passed.  Warnings are printed but never block.
/// A waived failing audit is announced so a sweep log shows the run
/// was a deliberate counterfactual.
inline bool gate_model(const sim::Machine& machine, bool no_audit) {
  const sim::AuditReport& report = machine.audit();
  if (!report.diagnostics.empty())
    std::fputs(report.to_string().c_str(), stderr);
  if (report.ok()) return true;
  if (no_audit) {
    std::fputs("audit: FAILED but waived by --no-audit\n", stderr);
    return true;
  }
  std::fputs(
      "audit: FAILED — refusing to simulate a structurally wrong machine "
      "(pass --no-audit to run anyway)\n",
      stderr);
  return false;
}

/// gate_model() for benches that sweep: also arms (or waives) the
/// SweepRunner's own gate, so a model that dodges the bench-level check
/// still cannot be swept.
inline bool gate_model(const sim::Machine& machine, sim::SweepRunner& runner,
                       bool no_audit) {
  runner.gate_on_audit(machine.audit());
  if (no_audit) runner.waive_audit();
  return gate_model(machine, no_audit);
}

// ---------------------------------------------------------------------------
// Tolerance-table gate machinery, shared by bench_scaling_matrix and
// bench_predict.  Two kinds of rows feed one reporting path:
//
//  * Verdict        — a named boolean invariant with a human detail
//                     string ("latency.plateaus", "mix.2to1-peak", ...);
//  * ToleranceCheck — |value/reference - 1| <= tol quantitative
//                     agreement, rendered into a Verdict for printing.
//
// Gates accumulate rows per artifact (a machine preset, a figure) and
// print the failures through print_failed(), in row order, after all
// parallel work has drained — so stderr is deterministic at any worker
// count.

struct Verdict {
  std::string invariant;
  bool ok = true;
  std::string detail;
};

/// Appends a verdict row.
inline void add_check(std::vector<Verdict>& out, std::string invariant,
                      bool ok, std::string detail) {
  out.push_back(Verdict{std::move(invariant), ok, std::move(detail)});
}

inline int failed_count(const std::vector<Verdict>& verdicts) {
  int failed = 0;
  for (const Verdict& v : verdicts) failed += v.ok ? 0 : 1;
  return failed;
}

/// Prints "FAIL [artifact] invariant: detail" to stderr for every
/// failing row, in row order; returns the number of failures.
inline int print_failed(const std::string& artifact,
                        const std::vector<Verdict>& verdicts) {
  int failed = 0;
  for (const Verdict& v : verdicts) {
    if (v.ok) continue;
    ++failed;
    std::fprintf(stderr, "FAIL [%s] %s: %s\n", artifact.c_str(),
                 v.invariant.c_str(), v.detail.c_str());
  }
  return failed;
}

/// One quantitative agreement row: `value` (model/predictor) against
/// `reference` (paper or simulator ground truth) under a relative
/// tolerance.
struct ToleranceCheck {
  std::string quantity;
  double reference = 0.0;
  double value = 0.0;
  double tol = 0.02;
  /// Documented deviation: an overshoot warns instead of failing.
  bool allow_warn = false;
};

/// value/reference; 0 when the reference is zero (no meaningful ratio).
inline double tolerance_ratio(const ToleranceCheck& c) {
  return c.reference != 0.0 ? c.value / c.reference : 0.0;
}

inline bool tolerance_within(const ToleranceCheck& c) {
  if (c.reference == 0.0) return c.value == 0.0;
  return std::abs(tolerance_ratio(c) - 1.0) <= c.tol;
}

/// "PASS" within tolerance, "ALLOWED" for a documented deviation,
/// "FAIL" otherwise — the BENCH_fidelity.json status vocabulary.
inline const char* tolerance_status(const ToleranceCheck& c) {
  if (tolerance_within(c)) return "PASS";
  return c.allow_warn ? "ALLOWED" : "FAIL";
}

/// Renders the row into a Verdict for the shared printing path.
/// ALLOWED rows are ok (they gate nothing) but keep their detail.
inline Verdict tolerance_verdict(const ToleranceCheck& c) {
  const std::string status = tolerance_status(c);
  return Verdict{
      c.quantity, status != "FAIL",
      common::fmt_num(c.value, 3) + " vs " + common::fmt_num(c.reference, 3) +
          " (ratio " + common::fmt_num(tolerance_ratio(c), 3) + ", tol " +
          common::fmt_num(c.tol, 3) + "): " + status};
}

/// The numbers of a bench_perf_simcore run its baseline gate reads.
struct PerfSample {
  std::string sweep_checksum;  ///< 16 hex digits
  double seq_scan_macc_per_s = 0.0;
  double chase_macc_per_s = 0.0;
};

/// The perf-baseline gate: `fresh` against a baseline document
/// (BENCH_perf_simcore.json).  The sweep checksum is a simulated
/// result, so any drift is a hard failure: 1.  Throughput is wall-clock
/// noisy, so a >25% drop of the scan or chase rate alone returns 3,
/// "throughput only, retry me".  0 means pass.  Prints the reason for
/// a non-zero verdict; throws std::invalid_argument when the baseline
/// lacks a field.
inline int perf_baseline_gate(const PerfSample& fresh,
                              const common::Json& baseline) {
  auto field = [&](const std::string& key) -> const common::Json& {
    const common::Json* v = baseline.find(key);
    if (v == nullptr)
      throw std::invalid_argument("perf baseline has no \"" + key + "\"");
    return *v;
  };
  const std::string& checksum =
      field("sweep_checksum").as_string("sweep_checksum");
  if (fresh.sweep_checksum != checksum) {
    std::printf("FAIL: sweep checksum drifted: %s (baseline %s) — the "
                "simulated latencies changed\n",
                fresh.sweep_checksum.c_str(), checksum.c_str());
    return 1;
  }
  const std::pair<std::string, double> rates[] = {
      {"seq_scan_macc_per_s", fresh.seq_scan_macc_per_s},
      {"chase_macc_per_s", fresh.chase_macc_per_s}};
  int verdict = 0;
  for (const auto& [key, value] : rates) {
    const double base = field(key).as_number(key);
    if (value >= 0.75 * base) continue;
    std::printf("PERF: %s dropped >25%%: %.3f vs baseline %.3f\n",
                key.c_str(), value, base);
    verdict = 3;
  }
  return verdict;
}

/// A mid-plateau working-set size for one hierarchy level.
struct Landmark {
  const char* level;
  std::uint64_t bytes;
};

/// Working-set sizes that land in the middle of each hierarchy level
/// the machine actually has (a level missing from a configuration —
/// e.g. an L4 smaller than the chip L3 — is skipped, not asserted).
/// Shared by bench_scaling_matrix (shape invariants) and bench_predict
/// (the differential matrix), so both gates probe the same geometry:
/// the one the simulator builds (Machine::hierarchy()).
inline std::vector<Landmark> hierarchy_landmarks(
    const sim::HierarchyConfig& h) {
  const std::uint64_t chip_l3 = h.chip_l3_bytes();
  std::vector<Landmark> out;
  out.push_back({"L1", h.l1_bytes / 2});
  if (h.l2_bytes > h.l1_bytes) out.push_back({"L2", h.l2_bytes / 2});
  if (h.l3_bytes > h.l2_bytes) out.push_back({"L3", h.l3_bytes / 2});
  if (chip_l3 > h.l3_bytes)
    out.push_back({"chip-L3", (h.l3_bytes + chip_l3) / 2});
  if (h.l4_bytes > chip_l3)
    out.push_back({"L4", (chip_l3 + h.l4_bytes) / 2});
  const std::uint64_t deepest = chip_l3 > h.l4_bytes ? chip_l3 : h.l4_bytes;
  out.push_back({"DRAM", 4 * deepest});
  return out;
}

}  // namespace p8::bench
