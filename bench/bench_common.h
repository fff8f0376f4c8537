// Shared code for the benches: the helpers every figure uses, and the one
// supervision layer the wild5g_bench driver and bench_micro run under.
//
// Each figure (bench/bench_<id>.cpp) regenerates one of the paper's tables
// or figures from the simulated substrate and prints the paper's reported
// values alongside. A figure is one function reporting through an
// engine::CampaignContext; bench/wild5g_bench.cpp lists them all and runs
// each as a one-step engine::Campaign under engine::run_steps. With
// `--json <path>` a run also writes a metrics document; the committed
// baselines live in bench/golden/ and `ctest -R golden.` diffs fresh runs
// against them (tools/golden_check.cpp).
//
// Everything clock- or signal-shaped lives here, in Supervisor, and reaches
// a run only through the engine::RunControl predicates it hands to
// run_steps — src/engine itself is deterministic compute only.
#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/table.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "faults/injector.h"

namespace wild5g::bench {

/// Fixed seed so every bench run is reproducible bit-for-bit.
inline constexpr std::uint64_t kBenchSeed = 20210823;  // SIGCOMM'21 opening day
static_assert(kBenchSeed == engine::kDefaultSeed,
              "engine-backed benches must reproduce the committed goldens");

/// A figure body: regenerates one table or figure into `ctx`. `faults` is
/// the injector built from the run's fault plan, or null for a fault-free
/// run (then every harness takes its exact pre-fault code path).
using FigureFn = void(engine::CampaignContext& ctx,
                      const faults::Injector* faults);

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n################################################################\n"
            << "# " << id << ": " << title << "\n"
            << "################################################################\n";
}

inline void paper_note(const std::string& text) {
  std::cout << "[paper] " << text << "\n";
}

inline void measured_note(const std::string& text) {
  std::cout << "[repro] " << text << "\n";
}

namespace detail {

/// The one piece of state a signal handler may touch: the number of the
/// delivery, stored with a relaxed atomic (async-signal-safe on every
/// platform the repo targets).
inline std::atomic<int> g_signal{0};

inline void on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
}

}  // namespace detail

/// Flags, supervision and the document write for one bench run.
///
/// The constructor strips the common flags from argv, leaving the rest in
/// argv[1..argc) (the driver's campaign params, bench_micro's
/// google-benchmark flags); each also takes the `--flag=value` form, and a
/// bad value is a usage error (message, exit 2):
///   --json <path>     write the metrics document to <path>;
///   --threads N       parallel runner size (core/parallel.h); never in the
///                     document, which is byte-identical at any count;
///   --faults <plan>   a validated fault plan; the document records its
///                     name under "fault_plan" so it never meets a golden;
///   --deadline-ms N   a wall-clock budget for the whole run.
///
/// It also installs SIGINT/SIGTERM handlers; control() polls them and the
/// deadline at every run_steps yield point. finish() writes the document —
/// with a top-level `"interrupted": true` on signal, even one that landed
/// during the last step, or a `deadline_hit` metric on deadline — and
/// returns 128+signo, 0 (a deadline is a supervised outcome), or 1 (write
/// failure). Test hooks: WILD5G_DEADLINE_AFTER_YIELDS=N trips the deadline
/// at the Nth yield (no clock involved); WILD5G_TEST_YIELD_DELAY_MS=M dwells
/// M ms per yield to widen the window the signal tests race against.
class Supervisor {
 public:
  Supervisor(int& argc, char** argv, std::string bench_id)
      : bench_id_(std::move(bench_id)) {
    // wild5g-lint: allow(ban-wall-clock) supervision layer: --deadline-ms
    // budgets wall time by definition; src/engine stays clock-free
    start_ = std::chrono::steady_clock::now();
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string flag = arg.substr(0, eq);
      if (flag != "--json" && flag != "--threads" && flag != "--faults" &&
          flag != "--deadline-ms") {
        argv[kept++] = argv[i];
        continue;
      }
      std::string value;
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      }
      if (value.empty()) fail_usage(flag + " requires a value");
      if (flag == "--json") {
        json_path_ = value;
      } else if (flag == "--threads") {
        // As an API 0 means "auto"; as a flag it is a typo for 1 that would
        // silently mislabel any timing taken at hardware concurrency.
        parallel::set_thread_count(
            static_cast<std::size_t>(positive_count(flag, value)));
      } else if (flag == "--faults") {
        load_faults(value);
      } else {
        deadline_ms_ = positive_count(flag, value);
      }
    }
    argc = kept;
    // Test hooks, parsed leniently: they are test plumbing, not user flags.
    if (const char* text = std::getenv("WILD5G_DEADLINE_AFTER_YIELDS")) {
      deadline_after_yields_ = std::atol(text);
    }
    if (const char* text = std::getenv("WILD5G_TEST_YIELD_DELAY_MS")) {
      yield_delay_ms_ = std::atol(text);
    }
    std::signal(SIGINT, detail::on_signal);
    std::signal(SIGTERM, detail::on_signal);
  }

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Usage errors are not results: a clear message and exit 2, before any
  /// document is written.
  [[noreturn]] void fail_usage(const std::string& message) const {
    std::cerr << bench_id_ << ": " << message << "\n";
    std::exit(2);
  }

  /// bench_micro skips its machine-dependent timing runs under `--json`.
  [[nodiscard]] bool json_requested() const { return !json_path_.empty(); }

  /// The validated plan from `--faults`, or nullopt for a fault-free run.
  [[nodiscard]] const std::optional<faults::FaultPlan>& fault_plan() const {
    return fault_plan_;
  }

  /// A fresh document for this run, labelled with the fault plan if any.
  [[nodiscard]] engine::MetricsDocument make_document() const {
    return engine::MetricsDocument(
        bench_id_, kBenchSeed,
        fault_plan_.has_value() ? fault_plan_->name : std::string{});
  }

  /// One poll per yield point (dwell hook, signal flag, deadline), sticky
  /// once stopped: a signal never overwrites a deadline or vice versa.
  [[nodiscard]] engine::RunControl control() {
    engine::RunControl control;
    control.interrupted = [this] {
      poll();
      return signal_ != 0;
    };
    control.over_deadline = [this] { return deadline_hit_; };
    return control;
  }

  /// Annotates a stopped run's document, writes it when `--json` was given,
  /// and returns the exit code. A failed write leaves no file behind.
  [[nodiscard]] int finish(engine::MetricsDocument& doc) {
    // A signal that landed during the last step found no yield point left.
    if (!deadline_hit_ && signal_ == 0) {
      signal_ = detail::g_signal.load(std::memory_order_relaxed);
    }
    if (signal_ != 0) doc.set_flag("interrupted");
    if (deadline_hit_) doc.metric("deadline_hit", 1.0);
    if (!json_path_.empty()) {
      try {
        const std::string text = json::dump(doc.document());
        std::ofstream out(json_path_, std::ios::binary | std::ios::trunc);
        out << text;
        out.flush();
        require(out.good(), "cannot write the file");
      } catch (const std::exception& e) {
        std::remove(json_path_.c_str());
        std::cerr << bench_id_ << ": failed to write '" << json_path_
                  << "': " << e.what() << "\n";
        return 1;
      }
    }
    return signal_ != 0 ? 128 + signal_ : 0;
  }

 private:
  /// A strictly positive int; anything else — garbage, trailing junk, zero,
  /// negative, above INT_MAX (`--deadline-ms 4294967296` must not wrap to 0
  /// and disable the deadline) — is a usage error.
  [[nodiscard]] int positive_count(const std::string& flag,
                                   const std::string& text) const {
    std::size_t parsed = 0;
    long value = 0;
    try {
      value = std::stol(text, &parsed);
    } catch (const std::exception&) {
      fail_usage(flag + ": '" + text + "' is not a count");
    }
    if (parsed != text.size()) {
      fail_usage(flag + ": '" + text + "' is not a count");
    }
    if (value <= 0) {
      fail_usage(flag + ": count must be >= 1, got '" + text + "'");
    }
    if (value > std::numeric_limits<int>::max()) {
      fail_usage(flag + ": count must be <= " +
                 std::to_string(std::numeric_limits<int>::max()) + ", got '" +
                 text + "'");
    }
    return static_cast<int>(value);
  }

  void load_faults(const std::string& path) {
    try {
      fault_plan_ = faults::FaultPlan::load(path);
    } catch (const std::exception& e) {
      // A bad plan is a usage error, not a measurement: refuse to run
      // rather than silently measuring something other than what was asked.
      fail_usage(std::string("--faults: ") + e.what());
    }
  }

  /// One supervision poll = one yield.
  void poll() {
    if (signal_ != 0 || deadline_hit_) return;
    ++yields_;
    if (yield_delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(yield_delay_ms_));
    }
    signal_ = detail::g_signal.load(std::memory_order_relaxed);
    if (signal_ != 0) return;
    if (deadline_after_yields_ > 0 && yields_ >= deadline_after_yields_) {
      deadline_hit_ = true;
      return;
    }
    if (deadline_ms_ > 0) {
      // wild5g-lint: allow(ban-wall-clock) the --deadline-ms supervision
      // check; the engine under this layer never reads a clock
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      deadline_hit_ = elapsed >= std::chrono::milliseconds(deadline_ms_);
    }
  }

  std::string bench_id_;
  std::string json_path_;
  std::optional<faults::FaultPlan> fault_plan_;
  // wild5g-lint: allow(ban-wall-clock) supervision state for --deadline-ms
  std::chrono::steady_clock::time_point start_;
  int deadline_ms_ = 0;
  long deadline_after_yields_ = 0;
  long yield_delay_ms_ = 0;
  long yields_ = 0;
  int signal_ = 0;
  bool deadline_hit_ = false;
};

}  // namespace wild5g::bench
