// perfbench_native: runs one in-process workload and prints its report.
//
//   perfbench_native <abr_mpc_1s|abr_gbdt_4s|serve_replay> --seed N
//       --seconds S [--trace 0|1] [--spans trace.json] [--workdir DIR]
//       [--threads T] [--soak-intervals N] [--soak-mid N]
//       [--city-cells N] [--city-ues N]
//
// The report (one JSON line on stdout) holds raw samples, per-pass work
// counters and check tallies; perfbench/run.py derives the metrics. Exit 0
// when the workload ran (failed checks are reported, not fatal), 2 on bad
// arguments, 1 when the workload threw.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "core/json.h"
#include "workloads.h"

namespace perfbench {

void Checks::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Checks::write_to(wild5g::json::Value& report) const {
  report.set("attempted", static_cast<std::int64_t>(attempted_));
  report.set("failed", static_cast<std::int64_t>(failed_));
  wild5g::json::Value failures = wild5g::json::Value::array();
  for (const auto& failure : failures_) failures.push_back(failure);
  report.set("failures", failures);
}

wild5g::json::Value to_json_array(const std::vector<double>& values) {
  wild5g::json::Value out = wild5g::json::Value::array();
  for (const double value : values) out.push_back(value);
  return out;
}

std::int64_t peak_rss_kb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a child started by a
  // large parent would report the parent's size.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::int64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

bool another_pass_fits(double elapsed_s, int passes_done, double seconds,
                       int min_passes) {
  if (passes_done < min_passes) return true;
  return elapsed_s + elapsed_s / passes_done <= seconds;
}

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench_native: " << problem
            << "\nusage: perfbench_native <abr_mpc_1s|abr_gbdt_4s|"
               "serve_replay> --seed N --seconds S [--trace 0|1] "
               "[--spans PATH] [--workdir DIR] [--threads T] "
               "[--soak-intervals N] [--soak-mid N] [--city-cells N] "
               "[--city-ues N]\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage("missing workload");
  Options options;
  options.workload = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    char* end = nullptr;
    const long long number = std::strtoll(value.c_str(), &end, 10);
    const bool numeric = end != value.c_str() && *end == '\0' && number >= 0;
    if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (!numeric) {
      return usage(flag + " needs a non-negative integer");
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else if (flag == "--threads" && number > 0) {
      options.threads = static_cast<int>(number);
    } else if (flag == "--soak-intervals" && number > 1) {
      options.soak_intervals = static_cast<int>(number);
    } else if (flag == "--soak-mid" && number > 0) {
      options.soak_mid = static_cast<int>(number);
    } else if (flag == "--city-cells" && number > 0) {
      options.city_cells = static_cast<int>(number);
    } else if (flag == "--city-ues" && number > 0) {
      options.city_ues = static_cast<int>(number);
    } else {
      return usage("bad flag " + flag + " " + value);
    }
  }
  if (options.soak_mid >= options.soak_intervals) {
    return usage("--soak-mid must be below --soak-intervals");
  }

  SpanLog log(options.trace);
  Checks checks;
  wild5g::json::Value report;
  if (options.workload == "abr_mpc_1s") {
    report = run_abr_mpc_1s(options, log, checks);
  } else if (options.workload == "abr_gbdt_4s") {
    report = run_abr_gbdt_4s(options, log, checks);
  } else if (options.workload == "serve_replay") {
    if (options.workdir.empty()) return usage("serve_replay needs --workdir");
    report = run_serve_replay(options, log, checks);
  } else {
    return usage("unknown workload " + options.workload);
  }
  if (options.trace && !options.spans_path.empty()) {
    log.write_chrome_trace(options.spans_path);
  }
  checks.write_to(report);
  std::cout << wild5g::json::dump_compact(report) << '\n';
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_native: " << e.what() << '\n';
    return 1;
  }
}
