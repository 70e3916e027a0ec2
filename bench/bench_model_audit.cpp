// Runs the ModelAudit over the E870 configuration and prints every
// diagnostic — the static-analysis pass for machine configurations,
// registered in ctest as the `model_audit_gate` check.
//
// --perturb deliberately breaks the configuration the way a botched
// parameter edit would: the L2/L3 latencies swapped (a classic
// transposition that still produces smooth, wrong Fig. 2 curves), a
// 96 KB L1 whose set count is not a power of two, and a Centaur link
// ratio that quietly loses the 2:1 read:write structure behind the
// Table III peak.  The audit must reject all of it — ctest runs this
// mode under WILL_FAIL, mirroring the fidelity gate's self-test.
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "sim/audit.hpp"
#include "sim/machine/machine.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const bool perturb = args.get_flag(
      "perturb", "audit a deliberately broken config (gate self-test hook)");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;

  bench::print_header("Model audit",
                      "static analysis of the machine configuration");

  arch::SystemSpec spec = arch::e870();
  sim::MemBandwidthParams mem_params;
  sim::NocParams noc_params;

  sim::AuditReport report =
      sim::ModelAudit::machine(spec, mem_params, noc_params);
  if (perturb) {
    sim::ProbeConfig probe;
    probe.hierarchy = sim::HierarchyConfig::from_spec(spec, noc_params);
    probe.prefetch.line_bytes = spec.processor.cache_line_bytes;
    std::swap(probe.hierarchy.latency.l2_ns, probe.hierarchy.latency.l3_local_ns);
    probe.hierarchy.l1_bytes = 96 * 1024;  // 96 sets: not a power of two
    spec.centaur.write_link_gbs = spec.centaur.read_link_gbs;  // ratio 1:1
    report = sim::ModelAudit::system(spec);
    report.merge(sim::ModelAudit::bandwidth(spec, mem_params));
    report.merge(sim::ModelAudit::noc(noc_params));
    report.merge(sim::ModelAudit::probe_config(probe));
  }

  if (report.diagnostics.empty()) {
    std::printf("clean: every audit rule passed\n");
  } else {
    std::printf("%s", report.to_string().c_str());
    std::printf("%zu error(s), %zu warning(s)\n", report.error_count(),
                report.warning_count());
  }
  return report.ok() ? 0 : 2;
}
