// p8trace — record and replay binary access traces (src/trace).
//
//   p8trace record --workload=seq-scan --out=seq.p8t [--machine=e870]
//                  [--accesses=N] [--chunk-records=N]
//   p8trace replay --in=seq.p8t --workload=seq-scan [--machine=e870]
//                  [--counters=path] [--json=path]
//   p8trace run    --workload=seq-scan [--machine=e870] [--counters=path]
//                  [--json=path] [--accesses=N]
//   p8trace info   --in=seq.p8t [--json=path]
//
//   p8trace diff   <report_a.json> <report_b.json>
//
// `record` streams a registered workload generator into a TraceWriter
// — the trace never materializes in memory, so files much larger than
// RAM are fine.  `replay` streams the file back through the probe one
// chunk at a time (peak RSS bounded by the chunk size) and reports the
// same windows the live driver measures, bit for bit.  `run` is the
// in-memory reference: generator straight into the probe, no file —
// diffing its counters against `replay`'s is the fidelity check
// scripts/tier1.sh performs.  `diff` compares two --json reports
// key by key (ignoring the fields expected to differ between a replay
// and its reference run: mode, trace path, peak RSS) and lists every
// mismatch — the replay-vs-run identity check, in the tool itself
// instead of an ad-hoc script.  Exit codes: 0 ok, 1 trace/simulation
// error or report mismatch, 2 usage error.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"
#include "ubench/workloads.hpp"

namespace {

using namespace p8;

long max_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

void usage(std::FILE* to) {
  std::fputs(
      "usage: p8trace <record|replay|run|info> [options]\n"
      "  record --workload=W --out=FILE [--machine=M] [--accesses=N]\n"
      "         [--chunk-records=N]\n"
      "  replay --in=FILE --workload=W [--machine=M] [--counters=PATH]\n"
      "         [--json=PATH]\n"
      "  run    --workload=W [--machine=M] [--accesses=N] [--counters=PATH]\n"
      "         [--json=PATH]\n"
      "  info   --in=FILE [--json=PATH]\n"
      "  diff   REPORT_A.json REPORT_B.json\n"
      "workloads:\n",
      to);
  for (const auto& w : ubench::trace_workloads())
    std::fprintf(to, "  %-10s %s\n", w.name.c_str(), w.description.c_str());
}

const ubench::TraceWorkload* resolve_workload(const std::string& name) {
  if (name.empty()) {
    std::fputs("error: --workload is required\n", stderr);
    return nullptr;
  }
  const ubench::TraceWorkload* w = ubench::find_trace_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", name.c_str());
    usage(stderr);
  }
  return w;
}

/// Shared outcome reporting for replay/run: summary table on stdout,
/// optional machine-readable JSON, optional counter dump.
int report(const std::string& mode, const std::string& machine_sel,
           const std::string& workload, const std::string& trace_path,
           const sim::BatchStats& stats,
           const std::vector<trace::ChunkedReplayer::Mark>& marks,
           double now_ns, const sim::CounterRegistry* registry,
           const std::string& counters_path, const std::string& json_path) {
  std::printf("%s: %s on %s\n", mode.c_str(), workload.c_str(),
              machine_sel.c_str());
  if (!trace_path.empty()) std::printf("trace: %s\n", trace_path.c_str());
  std::printf("accesses: %" PRIu64 "\n", stats.accesses);
  std::printf("busy_ns: %.6f\n", stats.busy_ns);
  std::printf("l1_fast_hits: %" PRIu64 "\n", stats.l1_fast_hits);
  std::printf("prefetched_hits: %" PRIu64 "\n", stats.prefetched_hits);
  double window_ns = 0.0;
  std::uint64_t window_accesses = 0;
  for (const auto& m : marks)
    if (m.id == ubench::kMarkMeasureStart) {
      window_ns = now_ns - m.now_ns;
      window_accesses = stats.accesses - m.accesses;
      break;
    }
  if (window_accesses != 0)
    std::printf("measure window: %" PRIu64 " accesses, %.6f ns/access\n",
                window_accesses, window_ns / static_cast<double>(window_accesses));
  std::printf("max_rss_kb: %ld\n", max_rss_kb());

  if (registry != nullptr &&
      !bench::write_counters(*registry, counters_path, "p8trace"))
    return 1;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"tool\": \"p8trace\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"machine\": \"%s\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"trace\": \"%s\",\n"
                 "  \"accesses\": %" PRIu64 ",\n"
                 "  \"l1_fast_hits\": %" PRIu64 ",\n"
                 "  \"prefetched_hits\": %" PRIu64 ",\n"
                 "  \"busy_ns\": %.6f,\n"
                 "  \"now_ns\": %.6f,\n"
                 "  \"window_accesses\": %" PRIu64 ",\n"
                 "  \"window_ns\": %.6f,\n"
                 "  \"max_rss_kb\": %ld\n"
                 "}\n",
                 mode.c_str(), machine_sel.c_str(), workload.c_str(),
                 trace_path.c_str(), stats.accesses, stats.l1_fast_hits,
                 stats.prefetched_hits, stats.busy_ns, now_ns,
                 window_accesses, window_ns, max_rss_kb());
    std::fclose(f);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}

int cmd_record(common::ArgParser& args) {
  const std::string workload_name =
      args.get_string("workload", "", "workload to record (see usage)");
  const std::string out = args.get_string("out", "", "trace file to write");
  const std::string machine_sel = bench::machine_arg(args);
  const auto accesses = bench::bounded_int_arg(
      args, "accesses", 0, 0, std::int64_t{1} << 40,
      "scale the workload to ~N accesses (0 = workload default)");
  const auto chunk_records = bench::bounded_int_arg(
      args, "chunk-records", trace::kDefaultChunkRecords, 1,
      std::int64_t{1} << 31, "records per trace chunk");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!accesses || !chunk_records) return 2;
  const ubench::TraceWorkload* w = resolve_workload(workload_name);
  if (w == nullptr) return 2;
  if (out.empty()) {
    std::fputs("error: --out is required\n", stderr);
    return 2;
  }
  const auto machine_spec = bench::load_machine(machine_sel);
  if (!machine_spec) return 2;
  const sim::Machine machine = machine_spec->machine();

  trace::WriterOptions options;
  options.chunk_records = static_cast<std::uint32_t>(*chunk_records);
  try {
    trace::TraceWriter writer(out, options);
    w->emit(machine, static_cast<std::uint64_t>(*accesses), writer);
    writer.finish();
    std::printf("recorded %" PRIu64 " records (%" PRIu64
                " accesses) in %" PRIu64 " chunks, %" PRIu64 " bytes -> %s\n",
                writer.records(), writer.accesses(), writer.chunks(),
                writer.bytes(), out.c_str());
    std::printf("max_rss_kb: %ld\n", max_rss_kb());
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_replay(common::ArgParser& args) {
  const std::string in = args.get_string("in", "", "trace file to replay");
  const std::string workload_name = args.get_string(
      "workload", "", "workload the trace was recorded from (probe config)");
  const std::string machine_sel = bench::machine_arg(args);
  const std::string counters_path = bench::counters_path_arg(args);
  const std::string json_path =
      args.get_string("json", "", "machine-readable output file");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (in.empty()) {
    std::fputs("error: --in is required\n", stderr);
    return 2;
  }
  const ubench::TraceWorkload* w = resolve_workload(workload_name);
  if (w == nullptr) return 2;
  const auto machine_spec = bench::load_machine(machine_sel);
  if (!machine_spec) return 2;
  const sim::Machine machine = machine_spec->machine();

  sim::CounterRegistry registry;
  sim::ProbeOptions probe_options = w->probe_options;
  if (!counters_path.empty()) probe_options.counters = &registry;

  try {
    trace::TraceReader reader(in);
    sim::LatencyProbe probe = machine.probe(probe_options);
    const trace::ReplayResult result = trace::replay_trace(reader, probe);
    return report("replay", machine_sel, w->name, in, result.stats,
                  result.marks, probe.now_ns(),
                  counters_path.empty() ? nullptr : &registry, counters_path,
                  json_path);
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::invalid_argument& e) {
    // A well-formed trace can still hold an address past the simulated
    // caches' tag range (sim::SetAssocCache::kTagBits).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int cmd_run(common::ArgParser& args) {
  const std::string workload_name =
      args.get_string("workload", "", "workload to simulate (see usage)");
  const std::string machine_sel = bench::machine_arg(args);
  const std::string counters_path = bench::counters_path_arg(args);
  const std::string json_path =
      args.get_string("json", "", "machine-readable output file");
  const auto accesses = bench::bounded_int_arg(
      args, "accesses", 0, 0, std::int64_t{1} << 40,
      "scale the workload to ~N accesses (0 = workload default)");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!accesses) return 2;
  const ubench::TraceWorkload* w = resolve_workload(workload_name);
  if (w == nullptr) return 2;
  const auto machine_spec = bench::load_machine(machine_sel);
  if (!machine_spec) return 2;
  const sim::Machine machine = machine_spec->machine();

  sim::CounterRegistry registry;
  sim::ProbeOptions probe_options = w->probe_options;
  if (!counters_path.empty()) probe_options.counters = &registry;

  sim::LatencyProbe probe = machine.probe(probe_options);
  trace::ChunkedReplayer sink(probe);
  w->emit(machine, static_cast<std::uint64_t>(*accesses), sink);
  sink.flush();
  return report("run", machine_sel, w->name, "", sink.stats(), sink.marks(),
                probe.now_ns(), counters_path.empty() ? nullptr : &registry,
                counters_path, json_path);
}

int cmd_info(common::ArgParser& args) {
  const std::string in = args.get_string("in", "", "trace file to inspect");
  const std::string json_path =
      args.get_string("json", "", "machine-readable output file");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (in.empty()) {
    std::fputs("error: --in is required\n", stderr);
    return 2;
  }
  try {
    trace::TraceReader reader(in);
    std::printf("%s: valid P8TRACE v%u\n", in.c_str(), trace::kVersion);
    std::printf("records: %" PRIu64 "\n", reader.total_records());
    std::printf("accesses: %" PRIu64 "\n", reader.total_accesses());
    std::printf("chunks: %" PRIu64 " (%u records/chunk)\n",
                reader.chunk_count(), reader.chunk_records());
    std::printf("file_bytes: %" PRIu64 "\n", reader.file_bytes());
    if (!json_path.empty()) {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
        return 1;
      }
      std::fprintf(f,
                   "{\n"
                   "  \"tool\": \"p8trace\",\n"
                   "  \"mode\": \"info\",\n"
                   "  \"trace\": \"%s\",\n"
                   "  \"version\": %u,\n"
                   "  \"records\": %" PRIu64 ",\n"
                   "  \"accesses\": %" PRIu64 ",\n"
                   "  \"chunks\": %" PRIu64 ",\n"
                   "  \"chunk_records\": %u,\n"
                   "  \"file_bytes\": %" PRIu64 "\n"
                   "}\n",
                   in.c_str(), trace::kVersion, reader.total_records(),
                   reader.total_accesses(), reader.chunk_count(),
                   reader.chunk_records(), reader.file_bytes());
      std::fclose(f);
    }
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// ---- diff -----------------------------------------------------------------

/// Keys expected to differ between a replay report and its in-memory
/// reference run: the mode tag, the trace path (empty for `run`) and
/// the wall-clock peak RSS.
bool diff_ignored_key(const std::string& key) {
  return key == "mode" || key == "trace" || key == "max_rss_kb";
}

std::string render_value(const common::Json& v) {
  switch (v.kind) {
    case common::Json::Kind::kNull:
      return "null";
    case common::Json::Kind::kBool:
      return v.boolean ? "true" : "false";
    case common::Json::Kind::kNumber:
      return common::json_number(v.number);
    case common::Json::Kind::kString:
      return common::json_quote(v.string);
    case common::Json::Kind::kArray:
      return "<array>";
    case common::Json::Kind::kObject:
      return "<object>";
  }
  return "<?>";
}

bool json_equal(const common::Json& a, const common::Json& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case common::Json::Kind::kNull:
      return true;
    case common::Json::Kind::kBool:
      return a.boolean == b.boolean;
    case common::Json::Kind::kNumber:
      return a.number == b.number;  // same text parses to the same double
    case common::Json::Kind::kString:
      return a.string == b.string;
    case common::Json::Kind::kArray: {
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!json_equal(a.array[i], b.array[i])) return false;
      return true;
    }
    case common::Json::Kind::kObject: {
      if (a.object.size() != b.object.size()) return false;
      for (const auto& [key, value] : a.object) {
        const common::Json* other = b.find(key);
        if (other == nullptr || !json_equal(value, *other)) return false;
      }
      return true;
    }
  }
  return false;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

int cmd_diff(int argc, char** argv) {
  if (argc != 2) {
    std::fputs("error: diff takes exactly two report files\n", stderr);
    usage(stderr);
    return 2;
  }
  const std::string path_a = argv[0];
  const std::string path_b = argv[1];
  common::Json a, b;
  const auto load = [](const std::string& path, common::Json* doc) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return false;
    }
    try {
      *doc = common::Json::parse(text);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
      return false;
    }
    if (!doc->is_object()) {
      std::fprintf(stderr, "error: %s: not a JSON object\n", path.c_str());
      return false;
    }
    return true;
  };
  if (!load(path_a, &a) || !load(path_b, &b)) return 1;

  int mismatches = 0;
  std::size_t compared = 0;
  for (const auto& [key, value] : a.object) {
    if (diff_ignored_key(key)) continue;
    const common::Json* other = b.find(key);
    if (other == nullptr) {
      std::printf("DIFF %-16s %s vs <absent>\n", key.c_str(),
                  render_value(value).c_str());
      ++mismatches;
      continue;
    }
    ++compared;
    if (!json_equal(value, *other)) {
      std::printf("DIFF %-16s %s vs %s\n", key.c_str(),
                  render_value(value).c_str(), render_value(*other).c_str());
      ++mismatches;
    }
  }
  for (const auto& [key, value] : b.object) {
    if (diff_ignored_key(key) || a.find(key) != nullptr) continue;
    std::printf("DIFF %-16s <absent> vs %s\n", key.c_str(),
                render_value(value).c_str());
    ++mismatches;
  }

  if (mismatches != 0) {
    std::printf("diff: %d mismatched key%s between %s and %s\n", mismatches,
                mismatches == 1 ? "" : "s", path_a.c_str(), path_b.c_str());
    return 1;
  }
  std::printf("diff: reports identical on %zu keys\n", compared);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  // `diff` is purely positional; every other subcommand hands the rest
  // of the line to ArgParser.
  if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  common::ArgParser args(argc - 1, argv + 1);
  if (cmd == "record") return cmd_record(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "info") return cmd_info(args);
  std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return 2;
}
