// Tests for tools/wild5g_lint: every fixture in tests/lint_fixtures/ must
// trip exactly its intended rule, justified suppressions must silence their
// finding, and the real tree (src/, bench/, tools/, examples/) must lint
// clean — that last assertion is the determinism contract the golden-metrics
// harness rests on.
//
// The linter binary path and fixture directory come in as compile
// definitions (see tests/CMakeLists.txt); runs go through popen so we
// exercise the actual CLI, --json output, and exit codes end to end.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/json.h"

namespace {

namespace json = wild5g::json;

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string command =
      std::string(WILD5G_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch: " << command;
  LintRun run;
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string fixture(const std::string& name) {
  return std::string(WILD5G_LINT_FIXTURES) + "/" + name;
}

/// Runs the linter on one fixture and asserts that it exits 1 and that every
/// finding carries exactly the expected rule (counts may exceed one, rules
/// may not differ — a fixture that trips a neighboring rule is a test bug).
void expect_only_rule(const std::string& name, const std::string& rule) {
  const LintRun run = run_lint("--json " + fixture(name));
  ASSERT_EQ(run.exit_code, 1) << name << " output:\n" << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_GE(findings->size(), 1u) << name;
  for (const auto& entry : findings->as_array()) {
    const json::Value* got = entry.find("rule");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->as_string(), rule)
        << name << " tripped a rule it should not have:\n"
        << run.output;
    const json::Value* line = entry.find("line");
    ASSERT_NE(line, nullptr);
    EXPECT_GT(line->as_number(), 0) << name;
  }
}

void expect_clean(const std::string& name) {
  const LintRun run = run_lint("--json " + fixture(name));
  EXPECT_EQ(run.exit_code, 0) << name << " output:\n" << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* count = doc.find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->as_number(), 0) << name;
}

TEST(lint, fixture_ban_random_device) {
  expect_only_rule("bad_random_device.cpp", "ban-random-device");
}

TEST(lint, fixture_ban_c_rand) {
  expect_only_rule("bad_c_rand.cpp", "ban-c-rand");
}

TEST(lint, fixture_ban_wall_clock_time) {
  expect_only_rule("bad_wall_clock.cpp", "ban-wall-clock");
}

TEST(lint, fixture_ban_wall_clock_chrono) {
  expect_only_rule("bad_chrono_clock.cpp", "ban-wall-clock");
}

TEST(lint, fixture_ban_raw_engine) {
  expect_only_rule("bad_raw_engine.cpp", "ban-raw-engine");
}

TEST(lint, fixture_ban_raw_distribution) {
  expect_only_rule("bad_distribution.cpp", "ban-raw-engine");
}

TEST(lint, fixture_unordered_iteration) {
  expect_only_rule("bad_unordered_iteration.cpp", "unordered-iteration");
}

TEST(lint, fixture_float_equality) {
  expect_only_rule("bad_float_equality.cpp", "float-equality");
}

TEST(lint, fixture_printf_float) {
  expect_only_rule("bad_printf_float.cpp", "printf-float");
}

TEST(lint, fixture_catch_swallow) {
  expect_only_rule("bad_catch_swallow.cpp", "catch-swallow");
}

TEST(lint, fixture_bench_sample_hoard) {
  // Virtual path maps tests/lint_fixtures/bench/... to bench/..., so the
  // store-all percentile pattern trips the bench-only rule.
  expect_only_rule("bench/bad_sample_hoard.cpp", "bench-sample-hoard");
}

TEST(lint, fixture_bench_figure_unordered_iteration) {
  // A figure feeds the golden document only through its bench_common.h
  // include; that include alone must arm unordered-iteration.
  expect_only_rule("bench/bad_figure_unordered_iteration.cpp",
                   "unordered-iteration");
}

TEST(lint, fixture_allow_needs_justification) {
  expect_only_rule("bad_allow_missing_justification.cpp",
                   "allow-needs-justification");
}

TEST(lint, fixture_unknown_rule) {
  expect_only_rule("bad_unknown_rule.cpp", "unknown-rule");
}

TEST(lint, fixture_parallel_rng_capture) {
  expect_only_rule("bad_parallel_rng_capture.cpp", "parallel-rng-capture");
}

TEST(lint, fixture_parallel_rng_stream) {
  expect_only_rule("bad_parallel_rng_stream.cpp", "parallel-rng-stream");
}

TEST(lint, fixture_bad_global_state) {
  expect_only_rule("src/core/bad_global_state.cpp", "global-mutable-state");
}

TEST(lint, fixture_engine_blocking_call) {
  // Virtual path maps tests/lint_fixtures/src/engine/... to src/engine/...,
  // so blocking filesystem/sleep calls trip the compute-thread purity rule.
  expect_only_rule("src/engine/bad_engine_blocking.cpp",
                   "engine-blocking-call");
}

TEST(lint, fixture_engine_snapshot_writer_is_exempt) {
  // The sanctioned checkpoint writer (virtual path src/engine/snapshot.cpp)
  // may touch the filesystem without a finding.
  expect_clean("src/engine/snapshot.cpp");
}

TEST(lint, fixture_good_global_state) {
  expect_clean("src/core/good_global_state.cpp");
}

TEST(lint, fixture_good_audited_global_write_in_task) {
  // A justified allow(global-mutable-state) on the comment lines above a
  // declaration audits the global: it leaves the inventory, and a task body
  // that writes it through a call chain stays clean.
  expect_clean("src/core/good_audited_global.cpp");
}

TEST(lint, fixture_checkpoint_restore_symmetry) {
  expect_only_rule("src/engine/bad_ckpt_symmetry.cpp",
                   "checkpoint-restore-symmetry");
}

TEST(lint, fixture_good_checkpoint_restore_symmetry) {
  expect_clean("src/engine/good_ckpt_symmetry.cpp");
}

TEST(lint, fixture_checkpoint_restore_symmetry_restore_only_key) {
  expect_only_rule("src/engine/bad_ckpt_restore_only.cpp",
                   "checkpoint-restore-symmetry");
}

/// Lints one fixture that must yield exactly one finding and returns it.
json::Value single_finding(const std::string& name) {
  const LintRun run = run_lint("--json " + fixture(name));
  EXPECT_EQ(run.exit_code, 1) << name << " output:\n" << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* findings = doc.find("findings");
  if (findings == nullptr || findings->size() != 1u) {
    ADD_FAILURE() << name << " should yield exactly one finding:\n"
                  << run.output;
    return json::Value();
  }
  return findings->as_array()[0];
}

std::string string_field(const json::Value& entry, const std::string& key) {
  const json::Value* field = entry.find(key);
  return field == nullptr ? std::string() : field->as_string();
}

TEST(lint, checkpoint_symmetry_names_the_dropped_key_and_its_pair) {
  // The message must name the key and point at the restore_state that
  // misses it; the fix-it names the function to edit.
  const json::Value finding =
      single_finding("src/engine/bad_ckpt_symmetry.cpp");
  const std::string message = string_field(finding, "message");
  EXPECT_NE(message.find("serializes 'handoffs'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("bad_ckpt_symmetry.cpp:24"), std::string::npos)
      << message;
  EXPECT_NE(string_field(finding, "fixit").find("restore_state"),
            std::string::npos);
}

TEST(lint, checkpoint_symmetry_pairs_functions_in_definition_order) {
  // Two campaigns share a file. Only the second pair is asymmetric, so the
  // finding must sit on its restore_state and cite its checkpoint_state
  // (line 35), not the first campaign's (line 19).
  const json::Value finding =
      single_finding("src/engine/bad_ckpt_restore_only.cpp");
  const json::Value* line = finding.find("line");
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->as_number(), 43);
  const std::string message = string_field(finding, "message");
  EXPECT_NE(message.find("reads 'epoch'"), std::string::npos) << message;
  EXPECT_NE(message.find("bad_ckpt_restore_only.cpp:35"), std::string::npos)
      << message;
  EXPECT_NE(string_field(finding, "fixit").find("checkpoint_state"),
            std::string::npos);
}

TEST(lint, fixture_layering) {
  // The fixture's virtual path (…/src/core/…) puts it in src/core, so its
  // radio include violates the layer DAG.
  expect_only_rule("src/core/bad_layering.cpp", "layering");
}

TEST(lint, fixture_include_cycle) {
  expect_only_rule("src/sim/bad_include_cycle.h", "include-cycle");
}

TEST(lint, fixture_line_splice_cannot_hide_a_banned_call) {
  // Phase-2 splicing happens before lexing: ra\<newline>nd() is rand().
  expect_only_rule("bad_line_splice.cpp", "ban-c-rand");
}

TEST(lint, fixture_good_allow_suppresses) { expect_clean("good_allow.cpp"); }

TEST(lint, fixture_good_clean) { expect_clean("good_clean.cpp"); }

TEST(lint, fixture_good_tokenizer_edges) {
  // Raw strings quoting banned identifiers, digit separators, a comment
  // line-splice, and UTF-8 prose must not confuse any rule.
  expect_clean("good_tokenizer_edges.cpp");
}

TEST(lint, every_bad_fixture_has_a_test) {
  // Walking the fixture dir keeps this suite honest: adding a fixture
  // without a matching expect_only_rule() call fails here.
  const std::set<std::string> covered = {
      "bad_random_device.cpp",    "bad_c_rand.cpp",
      "bad_wall_clock.cpp",       "bad_chrono_clock.cpp",
      "bad_raw_engine.cpp",       "bad_distribution.cpp",
      "bad_unordered_iteration.cpp", "bad_float_equality.cpp",
      "bad_printf_float.cpp",     "bad_allow_missing_justification.cpp",
      "bad_unknown_rule.cpp",     "bad_catch_swallow.cpp",
      "bad_parallel_rng_capture.cpp", "bad_parallel_rng_stream.cpp",
      "src/core/bad_layering.cpp", "src/sim/bad_include_cycle.h",
      "bad_line_splice.cpp",      "bench/bad_sample_hoard.cpp",
      "bench/bad_figure_unordered_iteration.cpp",
      "src/core/bad_global_state.cpp",
      "src/engine/bad_engine_blocking.cpp", "src/engine/snapshot.cpp",
      "good_allow.cpp",           "good_clean.cpp",
      "good_tokenizer_edges.cpp", "src/core/good_global_state.cpp",
      "src/engine/bad_ckpt_symmetry.cpp",
      "src/engine/good_ckpt_symmetry.cpp",
      "src/engine/bad_ckpt_restore_only.cpp",
      "src/core/good_audited_global.cpp"};
  const LintRun listing =
      run_lint("--json " + std::string(WILD5G_LINT_FIXTURES));
  const json::Value doc = json::parse(listing.output);
  const json::Value* scanned = doc.find("files_scanned");
  ASSERT_NE(scanned, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(scanned->as_number()), covered.size())
      << "fixture added or removed without updating test_lint_fixtures.cpp";
}

TEST(lint, every_registered_rule_has_a_bad_fixture) {
  // The file count above cannot tell a rule with no fixture from one with
  // two. Lint the whole fixture dir and require every registry id to show
  // up in some finding, so a rule cannot land (or outlive its fixture)
  // without a seeded violation that proves it still fires.
  const LintRun rules_run = run_lint("--list-rules --json");
  ASSERT_EQ(rules_run.exit_code, 0);
  const json::Value rules_doc = json::parse(rules_run.output);
  const json::Value* rules = rules_doc.find("rules");
  ASSERT_NE(rules, nullptr);

  const LintRun run = run_lint("--json " + std::string(WILD5G_LINT_FIXTURES));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  std::set<std::string> fired;
  for (const auto& entry : findings->as_array()) {
    const json::Value* rule = entry.find("rule");
    ASSERT_NE(rule, nullptr);
    fired.insert(rule->as_string());
  }
  for (const auto& rule : rules->as_array()) {
    const json::Value* id = rule.find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(fired.count(id->as_string()), 1u)
        << "rule '" << id->as_string()
        << "' has no finding anywhere under tests/lint_fixtures/";
  }
}

TEST(lint, clean_tree) {
  // The repo's own sources must satisfy the determinism contract. This is
  // the same gate as ctest's lint.tree, asserted here with --json so a
  // regression names the offending rule in the failure message.
  const std::string root(WILD5G_SOURCE_ROOT);
  const LintRun run = run_lint("--json " + root + "/src " + root + "/bench " +
                               root + "/tools " + root + "/examples");
  EXPECT_EQ(run.exit_code, 0) << "tree has lint findings:\n" << run.output;
}

TEST(lint, full_tree_sweep_stays_inside_the_time_budget) {
  // Analyzer-scale gate: every check is a per-file scan, and this test keeps
  // it that way — a rule whose cost goes superlinear in the tree size blows
  // the budget here long before it times CI out. The
  // budget is deliberately generous (the sweep takes well under a second on
  // an unloaded machine; sanitizer builds and loaded runners are slower).
  const std::string root(WILD5G_SOURCE_ROOT);
  const auto start = std::chrono::steady_clock::now();
  const LintRun run = run_lint("--json " + root + "/src " + root + "/bench " +
                               root + "/tools " + root + "/examples");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            120)
      << "full-tree sweep blew the wall-clock budget";
}

TEST(lint, lexed_file_cache_prevents_re_lexing) {
  // src/core/rng.h is scanned once as part of the src/ walk and then named
  // again explicitly; the second load must come from the LexedFile cache.
  // The --json counters make the assertion exact: files_lexed counts cold
  // loads, lex_cache_hits counts avoided re-lexes.
  const std::string root(WILD5G_SOURCE_ROOT);
  const LintRun run =
      run_lint("--json " + root + "/src " + root + "/src/core/rng.h");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* lexed = doc.find("files_lexed");
  const json::Value* hits = doc.find("lex_cache_hits");
  ASSERT_NE(lexed, nullptr);
  ASSERT_NE(hits, nullptr);
  EXPECT_GE(hits->as_number(), 1) << "duplicate path was re-lexed";
  const json::Value* scanned = doc.find("files_scanned");
  ASSERT_NE(scanned, nullptr);
  EXPECT_EQ(lexed->as_number() + hits->as_number(), scanned->as_number());
}

TEST(lint, list_rules_covers_registry) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const std::string rule :
       {"ban-random-device", "ban-c-rand", "ban-wall-clock", "ban-raw-engine",
        "unordered-iteration", "float-equality", "printf-float",
        "catch-swallow", "bench-sample-hoard", "engine-blocking-call",
        "parallel-rng-capture", "parallel-rng-stream",
        "global-mutable-state", "layering",
        "include-cycle", "checkpoint-restore-symmetry"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  }
}

TEST(lint, list_rules_json_is_machine_readable) {
  // --list-rules --json is the contract --rules-doc and external tooling
  // build on: every rule carries an id, a family, and a summary.
  const LintRun run = run_lint("--list-rules --json");
  ASSERT_EQ(run.exit_code, 0);
  const json::Value doc = json::parse(run.output);
  const json::Value* rules = doc.find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->size(), 18u) << "rule added or retired without updating "
                                  "this count";
  const json::Value* count = doc.find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(count->as_number()), rules->size());
  std::set<std::string> families;
  for (const auto& rule : rules->as_array()) {
    const json::Value* id = rule.find("id");
    const json::Value* family = rule.find("family");
    const json::Value* summary = rule.find("summary");
    ASSERT_NE(id, nullptr);
    ASSERT_NE(family, nullptr);
    ASSERT_NE(summary, nullptr);
    EXPECT_FALSE(summary->as_string().empty()) << id->as_string();
    families.insert(family->as_string());
  }
  for (const std::string family :
       {"determinism", "parallel", "layering", "hygiene", "meta"}) {
    EXPECT_EQ(families.count(family), 1u) << family;
  }
}

/// Ids of rules the linter no longer defines (DESIGN.md §8): the static
/// concurrency rules, whose bug class the TSan and soak gates cover at
/// runtime; the interprocedural parallel-effect rules, covered by the
/// per-bench thread-count byte-identity tests and the TSan lane; the
/// unit-suffix rules, which no gate replaces; and arena-escape, whose
/// arena is gone.
const char* const kRetiredRules[] = {
    "guarded-by-violation",    "lock-order-cycle",
    "cv-wait-no-predicate",    "lock-held-blocking-call",
    "signal-unsafe-call",      "parallel-effect-write",
    "parallel-effect-rng",     "parallel-effect-alias",
    "parallel-effect-unknown", "unit-mismatch-assign",
    "unit-mismatch-call",      "unit-double-conversion",
    "arena-escape"};

std::set<std::string> registry_ids() {
  const LintRun run = run_lint("--list-rules --json");
  EXPECT_EQ(run.exit_code, 0);
  std::set<std::string> ids;
  const json::Value doc = json::parse(run.output);
  const json::Value* rules = doc.find("rules");
  if (rules == nullptr) return ids;
  for (const auto& rule : rules->as_array()) {
    const json::Value* id = rule.find("id");
    if (id != nullptr) ids.insert(id->as_string());
  }
  return ids;
}

/// Rule ids a SARIF log declares in runs[0].tool.driver.rules.
std::set<std::string> sarif_rule_ids(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::set<std::string> ids;
  const json::Value doc = json::parse(buffer.str());
  const json::Value* runs = doc.find("runs");
  if (runs == nullptr || runs->size() != 1u) return ids;
  const json::Value* tool = runs->as_array()[0].find("tool");
  const json::Value* driver = tool == nullptr ? nullptr : tool->find("driver");
  const json::Value* rules =
      driver == nullptr ? nullptr : driver->find("rules");
  if (rules == nullptr) return ids;
  for (const auto& rule : rules->as_array()) {
    const json::Value* id = rule.find("id");
    if (id != nullptr) ids.insert(id->as_string());
  }
  return ids;
}

TEST(lint, list_rules_has_no_retired_family_or_rule) {
  const LintRun run = run_lint("--list-rules --json");
  ASSERT_EQ(run.exit_code, 0);
  const json::Value doc = json::parse(run.output);
  const json::Value* rules = doc.find("rules");
  ASSERT_NE(rules, nullptr);
  for (const auto& rule : rules->as_array()) {
    const json::Value* family = rule.find("family");
    ASSERT_NE(family, nullptr);
    for (const std::string retired : {"concurrency", "units", "effects"}) {
      EXPECT_NE(family->as_string(), retired);
    }
    // No rule carries effect-lattice metadata.
    EXPECT_EQ(rule.find("effects"), nullptr);
  }
  const std::set<std::string> ids = registry_ids();
  for (const std::string retired : kRetiredRules) {
    EXPECT_EQ(ids.count(retired), 0u) << retired;
  }
}

TEST(lint, committed_sarif_baseline_declares_the_registry) {
  // tools/lint_baseline.sarif is regenerated with the registry; a stale
  // baseline would still declare retired rules or miss new ones.
  const std::set<std::string> ids = registry_ids();
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(sarif_rule_ids(std::string(WILD5G_SOURCE_ROOT) +
                           "/tools/lint_baseline.sarif"),
            ids);
}

TEST(lint, sarif_output_declares_every_registered_rule) {
  const std::string sarif_path =
      ::testing::TempDir() + "/wild5g_lint_registry.sarif";
  const LintRun run =
      run_lint("--sarif " + sarif_path + " " + fixture("good_clean.cpp"));
  EXPECT_EQ(run.exit_code, 0);
  const std::set<std::string> ids = registry_ids();
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(sarif_rule_ids(sarif_path), ids);
}

/// A justified allow() naming a retired rule is a stale suppression: it must
/// surface as unknown-rule (and nothing else) so it gets deleted.
void expect_retired_allow_is_unknown(const std::string& rule) {
  std::string name = rule;
  std::replace(name.begin(), name.end(), '-', '_');
  const std::string path =
      ::testing::TempDir() + "/wild5g_lint_retired_" + name + ".cpp";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << "// wild5g-lint: allow(" << rule << ") confined by g_mutex\n"
        << "int retired_probe() { return 1; }\n";
  }
  const LintRun run = run_lint("--json " + path);
  ASSERT_EQ(run.exit_code, 1) << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->size(), 1u) << run.output;
  const json::Value& finding = findings->as_array()[0];
  EXPECT_EQ(string_field(finding, "rule"), "unknown-rule");
  EXPECT_NE(string_field(finding, "message").find("allow(" + rule + ")"),
            std::string::npos)
      << run.output;
}

TEST(lint, allow_of_retired_guarded_by_violation_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[0]);
}

TEST(lint, allow_of_retired_lock_order_cycle_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[1]);
}

TEST(lint, allow_of_retired_cv_wait_no_predicate_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[2]);
}

TEST(lint, allow_of_retired_lock_held_blocking_call_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[3]);
}

TEST(lint, allow_of_retired_signal_unsafe_call_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[4]);
}

TEST(lint, allow_of_retired_parallel_effect_write_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[5]);
}

TEST(lint, allow_of_retired_parallel_effect_rng_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[6]);
}

TEST(lint, allow_of_retired_parallel_effect_alias_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[7]);
}

TEST(lint, allow_of_retired_parallel_effect_unknown_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[8]);
}

TEST(lint, allow_of_retired_unit_mismatch_assign_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[9]);
}

TEST(lint, allow_of_retired_unit_mismatch_call_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[10]);
}

TEST(lint, allow_of_retired_unit_double_conversion_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[11]);
}

TEST(lint, allow_of_retired_arena_escape_is_unknown) {
  expect_retired_allow_is_unknown(kRetiredRules[12]);
}

TEST(lint, baseline_suppresses_known_findings) {
  // The ratchet: a SARIF log captured from a dirty tree acts as a baseline;
  // re-linting the same tree against it exits 0, because every finding's
  // fingerprint (rule + file + normalized source line) matches.
  const std::string baseline =
      ::testing::TempDir() + "/wild5g_lint_baseline.sarif";
  const LintRun capture =
      run_lint("--sarif " + baseline + " " + fixture("bad_c_rand.cpp"));
  ASSERT_EQ(capture.exit_code, 1);
  const LintRun gated = run_lint("--baseline " + baseline + " --json " +
                                 fixture("bad_c_rand.cpp"));
  EXPECT_EQ(gated.exit_code, 0) << gated.output;
  const json::Value doc = json::parse(gated.output);
  const json::Value* count = doc.find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->as_number(), 0);
}

TEST(lint, baseline_still_fails_on_new_findings) {
  // A baseline from a *different* file suppresses nothing here: the
  // fingerprints don't match, so the findings survive the ratchet.
  const std::string baseline =
      ::testing::TempDir() + "/wild5g_lint_other_baseline.sarif";
  const LintRun capture =
      run_lint("--sarif " + baseline + " " + fixture("bad_c_rand.cpp"));
  ASSERT_EQ(capture.exit_code, 1);
  const LintRun gated = run_lint("--baseline " + baseline + " --json " +
                                 fixture("bad_wall_clock.cpp"));
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
}

TEST(lint, baseline_rejects_unreadable_file) {
  const LintRun run = run_lint("--baseline /nonexistent/baseline.sarif " +
                               fixture("good_clean.cpp"));
  EXPECT_EQ(run.exit_code, 2);
}

TEST(lint, sarif_output_matches_code_scanning_shape) {
  // The SARIF log must carry the 2.1.0 fields GitHub code scanning requires:
  // version, runs[0].tool.driver.{name,rules}, and per-result ruleId/level/
  // message.text/locations[0].physicalLocation with a uri and a 1-based
  // startLine.
  const std::string sarif_path =
      ::testing::TempDir() + "/wild5g_lint_fixture.sarif";
  const LintRun run =
      run_lint("--sarif " + sarif_path + " " + fixture("bad_c_rand.cpp"));
  EXPECT_EQ(run.exit_code, 1);
  std::ifstream in(sarif_path);
  ASSERT_TRUE(in.good()) << sarif_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  const json::Value* version = doc.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->as_string(), "2.1.0");
  const json::Value* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const json::Value& the_run = runs->as_array()[0];
  const json::Value* tool = the_run.find("tool");
  ASSERT_NE(tool, nullptr);
  const json::Value* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  const json::Value* name = driver->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), "wild5g-lint");
  const json::Value* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_GE(rules->size(), 17u);
  const json::Value* results = the_run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_GE(results->size(), 1u);
  for (const auto& result : results->as_array()) {
    const json::Value* rule_id = result.find("ruleId");
    ASSERT_NE(rule_id, nullptr);
    EXPECT_EQ(rule_id->as_string(), "ban-c-rand");
    const json::Value* level = result.find("level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(level->as_string(), "error");
    const json::Value* message = result.find("message");
    ASSERT_NE(message, nullptr);
    ASSERT_NE(message->find("text"), nullptr);
    const json::Value* locations = result.find("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_EQ(locations->size(), 1u);
    const json::Value* physical =
        locations->as_array()[0].find("physicalLocation");
    ASSERT_NE(physical, nullptr);
    const json::Value* artifact = physical->find("artifactLocation");
    ASSERT_NE(artifact, nullptr);
    ASSERT_NE(artifact->find("uri"), nullptr);
    const json::Value* region = physical->find("region");
    ASSERT_NE(region, nullptr);
    const json::Value* start_line = region->find("startLine");
    ASSERT_NE(start_line, nullptr);
    EXPECT_GE(start_line->as_number(), 1);
  }
}

TEST(lint, rules_doc_is_fresh) {
  // docs/LINT_RULES.md is generated from the registry; this gate fails when
  // a rule is added or reworded without regenerating the doc.
  const LintRun run = run_lint("--rules-doc");
  ASSERT_EQ(run.exit_code, 0);
  std::ifstream in(WILD5G_LINT_RULES_DOC);
  ASSERT_TRUE(in.good())
      << "docs/LINT_RULES.md missing; regenerate with wild5g_lint "
         "--rules-doc";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), run.output)
      << "docs/LINT_RULES.md is stale; regenerate with:\n"
         "  ./build/tools/wild5g_lint --rules-doc > docs/LINT_RULES.md";
}

}  // namespace
