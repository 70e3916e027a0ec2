#include "lint/rules.hpp"

#include <algorithm>
#include <set>

namespace p8::lint {

namespace {

// ---------------------------------------------------------------------------
// Token-stream helpers.  `k` indexes ctx.code; kNone marks "no token".

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

const Token& tok(const FileContext& ctx, std::size_t k) {
  return (*ctx.tokens)[ctx.code[k]];
}

const std::string& text(const FileContext& ctx, std::size_t k) {
  return tok(ctx, k).text;
}

bool is_ident(const FileContext& ctx, std::size_t k, const char* what) {
  return tok(ctx, k).kind == Tok::kIdentifier && text(ctx, k) == what;
}

bool is_punct(const FileContext& ctx, std::size_t k, char what) {
  return tok(ctx, k).kind == Tok::kPunct && text(ctx, k)[0] == what;
}

/// True when code token k is preceded by `.` or `->` (member access).
bool after_member_access(const FileContext& ctx, std::size_t k) {
  if (k == 0) return false;
  if (is_punct(ctx, k - 1, '.')) return true;
  return k >= 2 && is_punct(ctx, k - 1, '>') && is_punct(ctx, k - 2, '-');
}

/// True when code token k is preceded by `::`.
bool after_scope(const FileContext& ctx, std::size_t k) {
  return k >= 2 && is_punct(ctx, k - 1, ':') && is_punct(ctx, k - 2, ':');
}

void add(std::vector<Finding>& out, const FileContext& ctx, std::size_t k,
         const char* rule, std::string message) {
  out.push_back(Finding{ctx.path, tok(ctx, k).line, rule, std::move(message)});
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool has_identifier(const FileContext& ctx, const char* what) {
  for (std::size_t k = 0; k < ctx.code.size(); ++k)
    if (is_ident(ctx, k, what)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Determinism rules.  Scope: the model directories whose outputs are
// pinned bit for bit (BENCH_*.json baselines, fidelity gate rows).

void rule_det_rand(const FileContext& ctx, std::vector<Finding>& out) {
  if (!path_in_model_scope(ctx.path)) return;
  static const std::set<std::string> kBanned = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "random_device"};
  for (std::size_t k = 0; k < ctx.code.size(); ++k) {
    if (tok(ctx, k).kind != Tok::kIdentifier) continue;
    const std::string& id = text(ctx, k);
    if (kBanned.count(id) == 0) continue;
    // Calls and std::-qualified mentions only; `random_device` is
    // banned as a type, so any mention counts.
    const bool call = k + 1 < ctx.code.size() && is_punct(ctx, k + 1, '(');
    if (id != "random_device" && !call && !after_scope(ctx, k)) continue;
    add(out, ctx, k, "det-rand",
        "non-deterministic RNG source `" + id +
            "` in model code — use common::Xoshiro256 with an explicit "
            "seed so pinned outputs stay byte-identical");
  }
}

void rule_det_wall_clock(const FileContext& ctx, std::vector<Finding>& out) {
  if (!path_in_model_scope(ctx.path)) return;
  static const std::set<std::string> kAlways = {"gettimeofday", "system_clock",
                                                "localtime", "gmtime"};
  static const std::set<std::string> kCallOnly = {"time", "clock"};
  for (std::size_t k = 0; k < ctx.code.size(); ++k) {
    if (tok(ctx, k).kind != Tok::kIdentifier) continue;
    const std::string& id = text(ctx, k);
    const bool always = kAlways.count(id) != 0;
    const bool call_only = kCallOnly.count(id) != 0;
    if (!always && !call_only) continue;
    if (call_only) {
      // Only the C library calls: `time(...)` / `clock()`, including
      // std::-qualified, but not members like `state.clock.seconds()`.
      if (after_member_access(ctx, k)) continue;
      if (k + 1 >= ctx.code.size() || !is_punct(ctx, k + 1, '(')) continue;
    }
    add(out, ctx, k, "det-wall-clock",
        "wall-clock source `" + id +
            "` in model code — simulated time comes from the model "
            "(now_ns); wall time for perf reporting goes through "
            "common::Timer (steady_clock)");
  }
}

void rule_det_unordered_iter(const FileContext& ctx,
                             std::vector<Finding>& out) {
  if (!starts_with(ctx.path, "src/") && !starts_with(ctx.path, "bench/"))
    return;
  // Pass 1: names declared with an unordered container type.
  std::set<std::string> unordered_names;
  for (std::size_t k = 0; k < ctx.code.size(); ++k) {
    if (!is_ident(ctx, k, "unordered_map") && !is_ident(ctx, k, "unordered_set"))
      continue;
    std::size_t j = k + 1;
    if (j >= ctx.code.size() || !is_punct(ctx, j, '<')) continue;
    int depth = 0;
    for (; j < ctx.code.size(); ++j) {
      if (is_punct(ctx, j, '<')) ++depth;
      if (is_punct(ctx, j, '>') && --depth == 0) break;
    }
    // The declared name: first identifier after the template args,
    // skipping cv/ref/pointer decorations.
    for (++j; j < ctx.code.size(); ++j) {
      if (is_punct(ctx, j, '&') || is_punct(ctx, j, '*')) continue;
      if (is_ident(ctx, j, "const")) continue;
      if (tok(ctx, j).kind == Tok::kIdentifier)
        unordered_names.insert(text(ctx, j));
      break;
    }
  }
  if (unordered_names.empty()) return;
  // Pass 2: range-for whose range expression mentions such a name.
  for (std::size_t k = 0; k + 1 < ctx.code.size(); ++k) {
    if (!is_ident(ctx, k, "for") || !is_punct(ctx, k + 1, '(')) continue;
    int depth = 0;
    std::size_t colon = kNone;
    const std::size_t limit = std::min(ctx.code.size(), k + 120);
    for (std::size_t j = k + 1; j < limit && colon == kNone; ++j) {
      if (is_punct(ctx, j, '(')) ++depth;
      if (is_punct(ctx, j, ')') && --depth == 0) break;
      if (depth == 1 && is_punct(ctx, j, ':') && !is_punct(ctx, j - 1, ':') &&
          (j + 1 >= ctx.code.size() || !is_punct(ctx, j + 1, ':')))
        colon = j;
    }
    if (colon == kNone) continue;
    int rdepth = 1;
    for (std::size_t j = colon + 1; j < limit && rdepth > 0; ++j) {
      if (is_punct(ctx, j, '(')) ++rdepth;
      if (is_punct(ctx, j, ')')) --rdepth;
      if (rdepth >= 1 && tok(ctx, j).kind == Tok::kIdentifier &&
          unordered_names.count(text(ctx, j)) != 0) {
        add(out, ctx, k, "det-unordered-iter",
            "iteration over unordered container `" + text(ctx, j) +
                "` — hash iteration order is implementation-defined; "
                "sort the output (and annotate) or iterate a sorted view "
                "before anything feeds an output or checksum");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency rules.  The repo's documented contract (docs/PERF.md,
// "Sweep scheduling"): synchronizing atomics are seq_cst so TSan
// models them; anything weaker must justify itself in an annotation.

void rule_conc_weak_atomic(const FileContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kWeak = {
      "memory_order_relaxed", "memory_order_acquire", "memory_order_release",
      "memory_order_acq_rel", "memory_order_consume"};
  static const std::set<std::string> kWeakScoped = {
      "relaxed", "acquire", "release", "acq_rel", "consume"};
  for (std::size_t k = 0; k < ctx.code.size(); ++k) {
    if (tok(ctx, k).kind != Tok::kIdentifier) continue;
    const std::string& id = text(ctx, k);
    bool weak = kWeak.count(id) != 0;
    if (!weak && kWeakScoped.count(id) != 0 && after_scope(ctx, k) && k >= 3 &&
        is_ident(ctx, k - 3, "memory_order"))
      weak = true;
    if (!weak) continue;
    add(out, ctx, k, "conc-weak-atomic",
        "`" + id +
            "` is weaker than the documented all-seq_cst contract "
            "(docs/PERF.md, sweep scheduling) — promote to seq_cst or "
            "carry a `// p8lint: allow(conc-weak-atomic) <why>` "
            "justification");
  }
}

void rule_conc_volatile(const FileContext& ctx, std::vector<Finding>& out) {
  for (std::size_t k = 0; k < ctx.code.size(); ++k)
    if (is_ident(ctx, k, "volatile"))
      add(out, ctx, k, "conc-volatile",
          "`volatile` is not a synchronization primitive — use "
          "std::atomic (seq_cst) for shared state; for MMIO-style "
          "semantics this repo has no use case");
}

void rule_conc_detach(const FileContext& ctx, std::vector<Finding>& out) {
  for (std::size_t k = 0; k < ctx.code.size(); ++k) {
    if (!is_ident(ctx, k, "detach")) continue;
    if (!after_member_access(ctx, k)) continue;
    if (k + 1 >= ctx.code.size() || !is_punct(ctx, k + 1, '(')) continue;
    add(out, ctx, k, "conc-detach",
        "`.detach()` leaks a thread past its owner's lifetime — every "
        "thread in this repo is joined, by ThreadPool or its owner, so "
        "shutdown and error paths stay deterministic");
  }
}

// ---------------------------------------------------------------------------
// Counter rules: the hierarchical dotted-name discipline
// (docs/COUNTERS.md) that keeps merges and dumps deterministic.

/// Collects the string-literal payloads lexically inside the argument
/// list opening at code index `open` (which must hold '(').
std::vector<std::size_t> literals_in_call(const FileContext& ctx,
                                          std::size_t open) {
  std::vector<std::size_t> literals;
  int depth = 0;
  for (std::size_t j = open; j < ctx.code.size(); ++j) {
    if (is_punct(ctx, j, '(')) ++depth;
    if (is_punct(ctx, j, ')') && --depth == 0) break;
    if (tok(ctx, j).kind == Tok::kString || tok(ctx, j).kind == Tok::kRawString)
      literals.push_back(j);
  }
  return literals;
}

void check_counter_literals(const FileContext& ctx, std::vector<Finding>& out,
                            const std::vector<std::size_t>& literals) {
  for (const std::size_t j : literals) {
    const std::string payload = string_payload(tok(ctx, j));
    if (!counter_literal_ok(payload)) {
      add(out, ctx, j, "counter-name-grammar",
          "counter name literal \"" + payload +
              "\" violates the component.subsystem.event grammar "
              "(lowercase dotted segments of [a-z0-9_-], no empty "
              "segments; docs/COUNTERS.md)");
      continue;
    }
    std::string trimmed = payload;
    while (!trimmed.empty() && trimmed.front() == '.') trimmed.erase(0, 1);
    while (!trimmed.empty() && trimmed.back() == '.') trimmed.pop_back();
    if (trimmed.empty() || ctx.counters_doc == nullptr) continue;
    if (ctx.counters_doc->find(trimmed) == std::string::npos)
      add(out, ctx, j, "counter-undocumented",
          "counter name \"" + trimmed +
              "\" is not documented in docs/COUNTERS.md — every "
              "registered counter needs a namespace table entry");
  }
}

void rule_counters(const FileContext& ctx, std::vector<Finding>& out) {
  if (!starts_with(ctx.path, "src/") && !starts_with(ctx.path, "bench/"))
    return;
  for (std::size_t k = 0; k + 1 < ctx.code.size(); ++k) {
    const bool reg_call = is_ident(ctx, k, "make_counter") ||
                          (is_ident(ctx, k, "slot") &&
                           after_member_access(ctx, k));
    if (!reg_call || !is_punct(ctx, k + 1, '(')) continue;
    check_counter_literals(ctx, out, literals_in_call(ctx, k + 1));
  }
}

// ---------------------------------------------------------------------------
// Contract rules: failures on hot paths go through the contract layer
// (compiled out in Release) so Release stays byte-identical and fast.

void rule_contract_throw(const FileContext& ctx, std::vector<Finding>& out) {
  if (!is_hot_path_header(ctx.path)) return;
  for (std::size_t k = 0; k < ctx.code.size(); ++k)
    if (is_ident(ctx, k, "throw"))
      add(out, ctx, k, "contract-throw-header",
          "bare `throw` in a hot-path header — express the condition as "
          "P8_ENSURE/P8_INVARIANT (compiled out in Release) or move the "
          "cold failure path to a .cpp");
}

void rule_contract_static_assert(const FileContext& ctx,
                                 std::vector<Finding>& out) {
  if (!starts_with(ctx.path, "src/") || !ends_with(ctx.path, ".hpp")) return;
  for (std::size_t k = 0; k < ctx.code.size(); ++k)
    if (is_ident(ctx, k, "static_assert"))
      add(out, ctx, k, "contract-static-assert",
          "bare static_assert in a header — spell compile-time "
          "contracts P8_STATIC_REQUIRE (common/contract.hpp) so they "
          "read as part of the contract family");
}

// ---------------------------------------------------------------------------
// Bench hygiene rules: every bench parses flags through ArgParser
// (typos fail loudly), simulates a declared --machine, and refuses to
// run a machine that fails its model audit.

void rule_bench_argparser(const FileContext& ctx, std::vector<Finding>& out) {
  if (!is_bench_source(ctx.path)) return;
  if (has_identifier(ctx, "ArgParser")) return;
  out.push_back(Finding{
      ctx.path, 1, "bench-argparser",
      "bench binary without common::ArgParser — flags must fail loudly "
      "on typos (unknown_args + did-you-mean); see bench_util.hpp"});
}

void rule_bench_machine_flag(const FileContext& ctx,
                             std::vector<Finding>& out) {
  if (!is_bench_source(ctx.path)) return;
  const bool uses_machine = has_identifier(ctx, "Machine") ||
                            has_identifier(ctx, "MachineSpec") ||
                            has_identifier(ctx, "load_machine");
  if (!uses_machine) return;
  if (has_identifier(ctx, "machine_arg")) return;
  // Sweep benches declare the selector directly as a --machines list.
  for (std::size_t k = 0; k < ctx.code.size(); ++k) {
    if (tok(ctx, k).kind != Tok::kString) continue;
    const std::string payload = string_payload(tok(ctx, k));
    if (payload == "machine" || payload == "machines") return;
  }
  out.push_back(Finding{
      ctx.path, 1, "bench-machine-flag",
      "bench simulates a machine but declares no --machine= selector "
      "(bench::machine_arg) — every simulated artifact must be "
      "reproducible on any registry preset"});
}

void rule_bench_audit_gate(const FileContext& ctx, std::vector<Finding>& out) {
  if (!is_bench_source(ctx.path)) return;
  if (!has_identifier(ctx, "Machine")) return;  // MachineSpec-only: analytic
  if (has_identifier(ctx, "gate_model") || has_identifier(ctx, "ModelAudit") ||
      has_identifier(ctx, "audit"))
    return;
  out.push_back(Finding{
      ctx.path, 1, "bench-audit-gate",
      "bench constructs a sim::Machine without gating on its model "
      "audit (bench::gate_model) — a structurally wrong configuration "
      "must refuse to simulate, not emit plausible curves"});
}

/// lint-annotation findings are produced by the engine (it owns
/// annotation parsing); the registry entry exists so the rule is
/// listable, allowlistable and covered by the fixture corpus.
void rule_lint_annotation(const FileContext&, std::vector<Finding>&) {}

const std::vector<Rule> kRules = {
    {"det-rand",
     "no non-deterministic RNG sources (std::rand, random_device, ...) in "
     "model code",
     rule_det_rand},
    {"det-wall-clock",
     "no wall-clock reads (time(), gettimeofday, system_clock) in model code",
     rule_det_wall_clock},
    {"det-unordered-iter",
     "no iteration over unordered containers where order can reach an output",
     rule_det_unordered_iter},
    {"conc-weak-atomic",
     "memory orders weaker than seq_cst need a justification annotation",
     rule_conc_weak_atomic},
    {"conc-volatile", "volatile is not a synchronization primitive",
     rule_conc_volatile},
    {"conc-detach", "no detached threads; everything joins",
     rule_conc_detach},
    {"counter-name-grammar",
     "counter registrations follow the component.subsystem.event grammar",
     rule_counters},
    {"counter-undocumented",
     "every registered counter name appears in docs/COUNTERS.md",
     // One walk produces both counter rules' findings; registering the
     // checker once keeps the scan single-pass.
     rule_lint_annotation},
    {"contract-throw-header",
     "hot-path headers fail through P8_ENSURE/P8_INVARIANT, not bare throw",
     rule_contract_throw},
    {"contract-static-assert",
     "headers spell compile-time contracts P8_STATIC_REQUIRE",
     rule_contract_static_assert},
    {"bench-argparser", "every bench parses flags through common::ArgParser",
     rule_bench_argparser},
    {"bench-machine-flag",
     "every simulating bench declares --machine= via bench::machine_arg",
     rule_bench_machine_flag},
    {"bench-audit-gate",
     "every bench constructing a sim::Machine gates on its model audit",
     rule_bench_audit_gate},
    {"lint-annotation",
     "p8lint allow() annotations must name known rules and justify "
     "themselves",
     rule_lint_annotation},
};

}  // namespace

const std::vector<Rule>& rules() { return kRules; }

const Rule* find_rule(const std::string& id) {
  for (const Rule& r : kRules)
    if (id == r.id) return &r;
  return nullptr;
}

bool path_in_model_scope(const std::string& path) {
  return starts_with(path, "src/sim/") || starts_with(path, "src/trace/") ||
         starts_with(path, "src/predict/") ||
         starts_with(path, "src/serve/") ||
         starts_with(path, "src/ubench/") || starts_with(path, "bench/");
}

bool is_bench_source(const std::string& path) {
  return starts_with(path, "bench/bench_") && ends_with(path, ".cpp");
}

bool is_hot_path_header(const std::string& path) {
  if (!ends_with(path, ".hpp")) return false;
  return starts_with(path, "src/sim/") || starts_with(path, "src/trace/") ||
         starts_with(path, "src/predict/") ||
         starts_with(path, "src/serve/") || starts_with(path, "src/ubench/");
}

bool counter_literal_ok(const std::string& literal) {
  if (literal.empty()) return false;
  for (const char c : literal) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return literal.find("..") == std::string::npos;
}

}  // namespace p8::lint
