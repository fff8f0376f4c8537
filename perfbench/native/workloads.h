// perfbench: the in-process workloads the C++ runner runs.
//
// Each workload fills a JSON report (raw samples, per-pass work counters,
// check tallies) that perfbench/run.py turns into metrics; percentiles and
// self times are computed there, not here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // Chrome trace output (traced runs)
  std::string workdir;     // working files (snapshots)
  int threads = 1;
  // serve_replay only: the request shapes the service client submits.
  int soak_intervals = 120;
  int soak_mid = 60;
  int city_cells = 48;
  int city_ues = 100;
};

/// Correctness checks, counted as operations.
class Checks {
 public:
  void record(bool ok, const std::string& what);
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  /// attempted / failed / failures (first few messages) into `report`.
  void write_to(wild5g::json::Value& report) const;

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
};

/// JSON array of doubles.
[[nodiscard]] wild5g::json::Value to_json_array(
    const std::vector<double>& values);

/// This process's peak resident set so far (VmHWM), in KiB; 0 when
/// /proc is unavailable.
[[nodiscard]] std::int64_t peak_rss_kb();

/// Loops whole passes: keeps going while another pass of the mean length so
/// far still fits in `seconds`, and always runs at least `min_passes`.
[[nodiscard]] bool another_pass_fits(double elapsed_s, int passes_done,
                                     double seconds, int min_passes = 1);

/// 240 x 1 s chunks of fastMPC (horizon 12) with the harmonic-mean
/// predictor over a handful of mmWave traces, one session after another.
[[nodiscard]] wild5g::json::Value run_abr_mpc_1s(const Options& options,
                                                 SpanLog& log, Checks& checks);

/// GBDT training on 160 traces, then fastMPC (horizon 5) with that
/// predictor over the 121-trace evaluation set at 4 s chunks.
[[nodiscard]] wild5g::json::Value run_abr_gbdt_4s(const Options& options,
                                                  SpanLog& log,
                                                  Checks& checks);

/// In-process replay of the service requests (soak with per-step
/// checkpoints, resume from the mid-run snapshot, city-scale metro_load)
/// plus direct metro::run_campaign and A3HandoffEngine::step calls at the
/// soak and city cell counts.
[[nodiscard]] wild5g::json::Value run_serve_replay(const Options& options,
                                                   SpanLog& log,
                                                   Checks& checks);

}  // namespace perfbench
