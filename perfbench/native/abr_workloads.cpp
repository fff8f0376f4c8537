// perfbench: the two ABR workloads, driven through forwarding wrappers
// around AbrAlgorithm::choose_track and ThroughputPredictor::predict_mbps.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "abr/algorithms.h"
#include "abr/predictor.h"
#include "abr/session.h"
#include "abr/video.h"
#include "core/rng.h"
#include "traces/traces.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wild5g::Rng;
namespace abr = wild5g::abr;
namespace json = wild5g::json;
namespace traces = wild5g::traces;

// Set-up (trace generation) is repeated before every pass and its median
// reported, so setup_s samples the host's speed across the whole run.
constexpr int kMpcSetupRepeats = 10;
constexpr int kGbdtSetupRepeats = 2;

/// Forwards predict_mbps to the real predictor inside an "abr.predict" span
/// and keeps the last prediction for the reference planner.
class TimedPredictor final : public abr::ThroughputPredictor {
 public:
  TimedPredictor(abr::ThroughputPredictor& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_session_start(const abr::BandwidthSource& source) override {
    inner_.on_session_start(source);
  }
  [[nodiscard]] double predict_mbps(const abr::AbrContext& context) override {
    const Span span(log_, "abr.predict", request);
    last_mbps_ = inner_.predict_mbps(context);
    return last_mbps_;
  }
  [[nodiscard]] double last_mbps() const { return last_mbps_; }

  std::int64_t request = -1;

 private:
  abr::ThroughputPredictor& inner_;
  SpanLog& log_;
  double last_mbps_ = 0.0;
};

/// What the reference planner needs to re-plan one decision.
struct DecisionSample {
  double buffer_s;
  double max_buffer_s;
  int last_track;
  int next_chunk;
  int chunk_count;
  double predicted_mbps;
  int chosen_track;
};

/// Deterministic per-pass work counters.
struct PassCounters {
  long sessions = 0;
  long decisions = 0;
  long track_sum = 0;
  long switches = 0;
  long out_of_range = 0;

  [[nodiscard]] bool operator==(const PassCounters&) const = default;
};

/// Forwards choose_track to the real MPC, timing every call (predictor
/// included) and sampling decisions for the reference planner.
class TimedAlgorithm final : public abr::AbrAlgorithm,
                             public abr::SourceAwareAlgorithm {
 public:
  TimedAlgorithm(abr::ModelPredictiveAbr& inner, TimedPredictor& predictor,
                 SpanLog& log, int track_count)
      : inner_(inner),
        predictor_(predictor),
        log_(log),
        track_count_(track_count) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void on_session_start(const abr::BandwidthSource& source) override {
    inner_.on_session_start(source);
  }

  [[nodiscard]] int choose_track(const abr::AbrContext& context) override {
    const auto start = Clock::now();
    int track = 0;
    {
      const Span span(log_, "abr.choose_track", predictor_.request);
      track = inner_.choose_track(context);
    }
    decision_ms.push_back(
        static_cast<double>(nanos_between(start, Clock::now())) * 1e-6);
    ++counters.decisions;
    if (track < 0 || track >= track_count_) ++counters.out_of_range;
    counters.track_sum += track;
    if (context.last_track >= 0 && track != context.last_track) {
      ++counters.switches;
    }
    if (sample_stride > 0 && counters.decisions % sample_stride == 0) {
      samples.push_back({context.buffer_s, context.max_buffer_s,
                         context.last_track, context.next_chunk,
                         context.chunk_count,
                         std::max(0.05, predictor_.last_mbps()), track});
    }
    return track;
  }

  std::vector<double> decision_ms;
  PassCounters counters;
  /// Every sample_stride-th decision is kept for the reference planner
  /// (0: none).
  long sample_stride = 0;
  std::vector<DecisionSample> samples;

 private:
  abr::ModelPredictiveAbr& inner_;
  TimedPredictor& predictor_;
  SpanLog& log_;
  int track_count_;
};

// --- reference planner -------------------------------------------------------

/// Best QoE of any plan that starts at `track` with `remaining` chunks left
/// (this one included), written from the documented model rather than from
/// ModelPredictiveAbr: download time = bitrate x chunk / prediction, stall =
/// download beyond the buffer, QoE = bitrate - top bitrate x stall -
/// |bitrate change|, and after the first chunk the track moves by at most
/// one level.
double reference_best(const abr::VideoProfile& video, const DecisionSample& s,
                      int track, int remaining, double buffer_s,
                      double previous_mbps, double qoe_so_far) {
  const double bitrate = video.bitrate(track);
  const double download_s = bitrate * video.chunk_s / s.predicted_mbps;
  const double stall_s = std::max(0.0, download_s - buffer_s);
  const double next_buffer_s = std::min(
      std::max(0.0, buffer_s - download_s) + video.chunk_s, s.max_buffer_s);
  const double qoe = qoe_so_far + bitrate - video.top_mbps() * stall_s -
                     std::abs(bitrate - previous_mbps);
  if (remaining == 1) return qoe;
  double best = -std::numeric_limits<double>::infinity();
  for (int next = std::max(0, track - 1);
       next <= std::min(video.track_count() - 1, track + 1); ++next) {
    best = std::max(best, reference_best(video, s, next, remaining - 1,
                                         next_buffer_s, bitrate, qoe));
  }
  return best;
}

/// True when the chosen first track reaches the best QoE the reference
/// finds over every first track.
bool reference_agrees(const abr::VideoProfile& video, const DecisionSample& s,
                      int horizon) {
  const int steps = std::min(horizon, s.chunk_count - s.next_chunk);
  double best = -std::numeric_limits<double>::infinity();
  double chosen = best;
  for (int first = 0; first < video.track_count(); ++first) {
    const double previous = video.bitrate(s.last_track >= 0 ? s.last_track
                                                            : first);
    const double qoe =
        reference_best(video, s, first, steps, s.buffer_s, previous, 0.0);
    best = std::max(best, qoe);
    if (first == s.chosen_track) chosen = qoe;
  }
  return chosen >= best - 1e-9 * std::max(1.0, std::abs(best));
}

void check_samples(const abr::VideoProfile& video,
                   const std::vector<DecisionSample>& samples, int horizon,
                   Checks& checks) {
  for (const DecisionSample& s : samples) {
    checks.record(reference_agrees(video, s, horizon),
                  "reference planner beats the chosen track at chunk " +
                      std::to_string(s.next_chunk));
  }
}

json::Value counters_json(const PassCounters& c) {
  json::Value out = json::Value::object();
  out.set("sessions", static_cast<std::int64_t>(c.sessions));
  out.set("decisions", static_cast<std::int64_t>(c.decisions));
  out.set("track_sum", static_cast<std::int64_t>(c.track_sum));
  out.set("switches", static_cast<std::int64_t>(c.switches));
  return out;
}

/// Streams every trace once.
void stream_pass(const std::vector<traces::Trace>& set,
                   const abr::VideoProfile& video,
                   const abr::SessionOptions& options, TimedAlgorithm& algorithm,
                   TimedPredictor& predictor, SpanLog& log,
                   std::vector<double>& session_s, std::int64_t& next_request) {
  for (const auto& trace : set) {
    const abr::TraceSource source(trace);
    predictor.request = next_request++;
    algorithm.on_session_start(source);
    const auto start = Clock::now();
    {
      const Span span(log, "abr.stream", predictor.request);
      const auto result = abr::stream(video, source, algorithm, options);
      (void)result;
    }
    session_s.push_back(seconds_since(start));
    ++algorithm.counters.sessions;
  }
}

/// Runs `setup` `setup_repeats` times (untimed by the pass clock) and then
/// `pass`, round after round until the time budget is spent. Untraced: passes
/// with the span log off. Traced: pairs of passes, one with spans and one
/// without, alternating which goes first, so their time difference is the
/// tracing overhead.
template <typename Setup, typename Pass>
void run_passes(const Options& options, SpanLog& log, Setup&& setup,
                int setup_repeats, Pass&& pass, json::Value& report,
                Checks& checks) {
  const auto start = Clock::now();
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<PassCounters> counters;
  for (int round = 0;; ++round) {
    for (int i = 0; i < setup_repeats; ++i) setup();
    if (!options.trace) {
      counters.push_back(pass(round));
    } else {
      for (int half = 0; half < 2; ++half) {
        const bool traced = (round + half) % 2 == 1;
        log.set_enabled(traced);
        const auto pass_start = Clock::now();
        counters.push_back(pass(round));
        (traced ? traced_s : untraced_s) += seconds_since(pass_start);
      }
    }
    // The workload's own peak: later passes only add measurement samples.
    if (round == 0) report.set("peak_rss_kb", peak_rss_kb());
    // Untraced runs repeat every step at least three times, so each step
    // position has a best-of-three time even when the host runs slow.
    if (!another_pass_fits(seconds_since(start), round + 1, options.seconds,
                           options.trace ? 1 : 3)) {
      break;
    }
  }
  log.set_enabled(options.trace);
  bool repeat = true;
  for (const auto& c : counters) repeat = repeat && c == counters.front();
  checks.record(repeat, "work counters differ between passes");
  checks.record(counters.front().out_of_range == 0,
                "a decision chose a track out of range");
  report.set("passes", static_cast<int>(counters.size()));
  report.set("counters", counters_json(counters.front()));
  if (options.trace) {
    json::Value overhead = json::Value::object();
    overhead.set("untraced_s", untraced_s);
    overhead.set("traced_s", traced_s);
    report.set("overhead", overhead);
  }
}

}  // namespace

json::Value run_abr_mpc_1s(const Options& options, SpanLog& log,
                           Checks& checks) {
  json::Value report = json::Value::object();
  auto config = traces::lumos5g_mmwave_config();
  config.count = 6;
  std::vector<traces::Trace> set;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const auto start = Clock::now();
    Rng rng(options.seed);
    const Span span(log, "traces.generate");
    set = traces::generate_traces(config, rng);
    setup_s.push_back(seconds_since(start));
  };

  const auto video = abr::video_ladder_5g(1.0);
  abr::SessionOptions session;
  session.chunk_count = 240;
  const int horizon = abr::ModelPredictiveAbr::horizon_for_chunk_length(1.0);
  abr::HarmonicMeanPredictor harmonic;
  TimedPredictor predictor(harmonic, log);
  abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kFast,
                              predictor, horizon);
  TimedAlgorithm algorithm(mpc, predictor, log, video.track_count());

  std::vector<double> session_s;
  std::int64_t request = 0;
  run_passes(
      options, log, setup, kMpcSetupRepeats,
      [&](int round) {
        algorithm.counters = {};
        // One sampled decision in ~97, from the first pass only.
        algorithm.sample_stride = round == 0 ? 97 : 0;
        stream_pass(set, video, session, algorithm, predictor, log, session_s,
                    request);
        return algorithm.counters;
      },
      report, checks);
  check_samples(video, algorithm.samples, horizon, checks);

  report.set("setup_s", to_json_array(setup_s));
  report.set("decision_ms", to_json_array(algorithm.decision_ms));
  report.set("session_s", to_json_array(session_s));
  return report;
}

namespace {

/// Chunk-length means of a trace, as GbdtPredictor::train aggregates them.
std::vector<double> chunk_means(const traces::Trace& trace, std::size_t chunk) {
  std::vector<double> out;
  for (std::size_t at = 0; at + chunk <= trace.mbps.size(); at += chunk) {
    double sum = 0.0;
    for (std::size_t j = 0; j < chunk; ++j) sum += trace.mbps[at + j];
    out.push_back(sum / static_cast<double>(chunk));
  }
  return out;
}

/// Held-out check: the trained predictor's squared log2 error on the
/// evaluation traces must beat predicting the training mean everywhere.
bool gbdt_beats_constant(abr::GbdtPredictor& gbdt,
                         const std::vector<traces::Trace>& train,
                         const std::vector<traces::Trace>& eval,
                         const abr::VideoProfile& video, int window) {
  const auto chunk = static_cast<std::size_t>(video.chunk_s);
  double log_sum = 0.0;
  long log_count = 0;
  for (const auto& trace : train) {
    for (const double mbps : chunk_means(trace, chunk)) {
      log_sum += std::log2(std::max(0.05, mbps));
      ++log_count;
    }
  }
  const double constant = log_sum / static_cast<double>(log_count);
  double gbdt_error = 0.0;
  double constant_error = 0.0;
  for (const auto& trace : eval) {
    const auto means = chunk_means(trace, chunk);
    const abr::TraceSource source(trace);
    gbdt.on_session_start(source);
    for (std::size_t at = static_cast<std::size_t>(window); at < means.size();
         ++at) {
      abr::AbrContext context;
      context.video = &video;
      context.past_chunk_mbps = std::span<const double>(means.data(), at);
      const double actual = std::log2(std::max(0.05, means[at]));
      const double predicted = std::log2(gbdt.predict_mbps(context));
      gbdt_error += (predicted - actual) * (predicted - actual);
      constant_error += (constant - actual) * (constant - actual);
    }
  }
  return gbdt_error < constant_error;
}

}  // namespace

json::Value run_abr_gbdt_4s(const Options& options, SpanLog& log,
                            Checks& checks) {
  json::Value report = json::Value::object();
  const Rng base(options.seed);
  auto eval_config = traces::lumos5g_mmwave_config();  // the 121-trace set
  auto train_config = eval_config;
  train_config.count = 160;
  std::vector<traces::Trace> eval;
  std::vector<traces::Trace> train;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const auto start = Clock::now();
    const Span span(log, "traces.generate");
    Rng eval_rng = base.fork(1);
    Rng train_rng = base.fork(2);
    eval = traces::generate_traces(eval_config, eval_rng);
    train = traces::generate_traces(train_config, train_rng);
    setup_s.push_back(seconds_since(start));
  };

  const auto video = abr::video_ladder_5g(4.0);
  abr::SessionOptions session;
  session.chunk_count = 60;
  const int horizon = abr::ModelPredictiveAbr::horizon_for_chunk_length(4.0);
  constexpr int kWindow = 5;

  std::vector<double> train_s;
  std::vector<double> session_s;
  std::vector<double> decision_ms;
  std::vector<DecisionSample> samples;
  std::int64_t request = 0;
  run_passes(
      options, log, setup, kGbdtSetupRepeats,
      [&](int round) {
        abr::GbdtPredictor gbdt(kWindow, video.chunk_s);
        Rng fit_rng = base.fork(3);
        const auto start = Clock::now();
        {
          const Span span(log, "ml.train");
          gbdt.train(train, fit_rng);
        }
        train_s.push_back(seconds_since(start));
        if (round == 0) {
          checks.record(
              gbdt_beats_constant(gbdt, train, eval, video, kWindow),
              "GBDT held-out log error does not beat the constant predictor");
        }
        TimedPredictor predictor(gbdt, log);
        abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kFast,
                                    predictor, horizon);
        TimedAlgorithm algorithm(mpc, predictor, log, video.track_count());
        algorithm.sample_stride = round == 0 ? 211 : 0;
        stream_pass(eval, video, session, algorithm, predictor, log, session_s,
                    request);
        decision_ms.insert(decision_ms.end(), algorithm.decision_ms.begin(),
                           algorithm.decision_ms.end());
        samples.insert(samples.end(), algorithm.samples.begin(),
                       algorithm.samples.end());
        return algorithm.counters;
      },
      report, checks);
  check_samples(video, samples, horizon, checks);

  report.set("setup_s", to_json_array(setup_s));
  report.set("training_traces", static_cast<int>(train.size()));
  report.set("train_s", to_json_array(train_s));
  report.set("decision_ms", to_json_array(decision_ms));
  report.set("session_s", to_json_array(session_s));
  return report;
}

}  // namespace perfbench
