// Determinism gate: a bench binary invoked twice at kBenchSeed must produce
// byte-identical JSON metrics documents. This is what lets the committed
// goldens in bench/golden/ act as regression baselines at all — any hidden
// nondeterminism (unseeded RNG, iteration over pointer-keyed maps, time- or
// address-dependent output) shows up here as a byte diff.
//
// The same holds across thread counts: every bench but fig18b (whose path is
// serial) must emit the same bytes at --threads 1 and --threads 8, one ctest
// case per bench (GoldenDeterminism/ThreadCount.DoesNotChangeBytes/<bench>),
// so every bench that fans out is covered. A parallel
// task that reaches shared state through a call chain — a file-static
// accumulator, a member Rng — shows up there as a byte diff, and as a data
// race when the CI TSan lane runs the same cases.
//
// WILD5G_BENCH_DIR is injected by tests/CMakeLists.txt and points at the
// build tree's bench/ output directory.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string run_bench_json(const std::string& bench, const std::string& tag,
                           const std::string& extra_args = "") {
  const std::string out_path =
      ::testing::TempDir() + "wild5g_determinism_" + bench + "_" + tag +
      ".json";
  std::remove(out_path.c_str());
  const std::string command = std::string(WILD5G_BENCH_DIR) + "/" + bench +
                              " --json " + out_path +
                              (extra_args.empty() ? "" : " " + extra_args) +
                              " > /dev/null";
  const int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << command;
  const std::string content = read_file(out_path);
  std::remove(out_path.c_str());
  return content;
}

/// The driver's bench list as `bench_<id>` alias names. Under its own name
/// the driver is no bench: it prints the ids on stderr and exits 2. Runs at
/// test registration, so it reports nothing through gtest; an empty list
/// leaves ThreadCount uninstantiated, which gtest reports as a failure.
/// `exit_code`, when given, receives the driver's exit status.
std::vector<std::string> listed_benches(int* exit_code = nullptr) {
  const std::string command =
      std::string(WILD5G_BENCH_DRIVER) + " 2>&1 >/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    text.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (exit_code != nullptr) {
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  std::vector<std::string> names;
  std::istringstream listing(text);
  for (std::string line; std::getline(listing, line);) {
    if (line.rfind("  ", 0) != 0) continue;  // usage text, not an id
    names.push_back("bench_" + line.substr(2));
  }
  return names;
}

/// Every listed bench but fig18b. Its only path is evaluate_on_traces ->
/// MPC, which is serial: it reaches no parallel_map/parallel_for, so the
/// thread count cannot touch its bytes, and it is by far the slowest bench
/// (~172 s per run in Release, two runs per case).
std::vector<std::string> thread_count_benches() {
  std::vector<std::string> names = listed_benches();
  std::erase(names, "bench_fig18b_chunk_length");
  return names;
}

void expect_two_runs_identical(const std::string& bench) {
  const std::string first = run_bench_json(bench, "a");
  const std::string second = run_bench_json(bench, "b");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << bench << " is not run-to-run deterministic";
  // Sanity: the document is a real metrics document, not an error page.
  EXPECT_NE(first.find("\"bench\""), std::string::npos);
  EXPECT_NE(first.find("\"seed\""), std::string::npos);
  EXPECT_NE(first.find("\"tables\""), std::string::npos);
}

}  // namespace

TEST(GoldenDeterminism, HandoffBenchIsByteIdentical) {
  expect_two_runs_identical("bench_fig09_handoffs");
}

TEST(GoldenDeterminism, AbrQoeBenchIsByteIdentical) {
  expect_two_runs_identical("bench_fig17_abr_qoe");
}

// The parallel campaign runner's contract: thread count is a pure
// performance knob. One worker vs eight must emit byte-identical metrics
// documents (per-task forked Rng substreams, index-ordered reduction) on
// every bench that fans out.
class ThreadCount : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadCount, DoesNotChangeBytes) {
  const std::string& bench = GetParam();
  const std::string serial = run_bench_json(bench, "t1", "--threads 1");
  const std::string threaded = run_bench_json(bench, "t8", "--threads 8");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded) << bench << " output depends on thread count";
  // The document must not record the thread count, or byte-identity across
  // --threads values could never hold.
  EXPECT_EQ(serial.find("threads"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(GoldenDeterminism, ThreadCount,
                         ::testing::ValuesIn(thread_count_benches()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(GoldenDeterminism, ThreadCountEnvVarDoesNotChangeBytes) {
  const std::string flagged =
      run_bench_json("bench_fig09_handoffs", "flag", "--threads 8");
  const std::string via_env = [] {
    ::setenv("WILD5G_THREADS", "3", 1);
    std::string out = run_bench_json("bench_fig09_handoffs", "env");
    ::unsetenv("WILD5G_THREADS");
    return out;
  }();
  EXPECT_EQ(flagged, via_env)
      << "bench_fig09_handoffs output depends on WILD5G_THREADS";
}

// The bench list in bench/wild5g_bench.cpp, the build/bench/ aliases from
// bench.cmake and the committed goldens must name the same benches, so no
// golden goes unchecked and no bench runs without one.
TEST(GoldenDeterminism, BenchListGoldensAndAliasesAgree) {
  namespace fs = std::filesystem;
  int exit_code = 0;
  const std::vector<std::string> names = listed_benches(&exit_code);
  EXPECT_NE(exit_code, 0) << "the driver ran as a bench under its own name";
  ASSERT_FALSE(names.empty()) << "the driver listed no benches";
  std::set<std::string> listed;
  for (const std::string& name : names) {
    listed.insert(name);
    EXPECT_TRUE(fs::exists(fs::path(WILD5G_GOLDEN_DIR) / (name + ".json")))
        << name << " has no golden";
    EXPECT_TRUE(fs::exists(fs::path(WILD5G_BENCH_DIR) / name))
        << name << " has no build/bench alias";
  }
  for (const auto& entry : fs::directory_iterator(WILD5G_GOLDEN_DIR)) {
    const std::string name = entry.path().stem().string();
    if (name == "bench_micro") continue;  // google-benchmark, not a figure
    EXPECT_EQ(listed.count(name), 1U) << entry.path() << " is not listed";
  }
}
