// perfbench: in-process replay of the serve_metro requests, for the traced
// run. Times the engine, snapshot, metro and radio layers from outside:
// a forwarding Campaign around execute_step, spans in the run_steps hooks,
// and direct calls into metro::run_campaign and A3HandoffEngine::step.
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "engine/snapshot.h"
#include "metro/metro.h"
#include "radio/handoff.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wild5g::Rng;
namespace engine = wild5g::engine;
namespace json = wild5g::json;
namespace metro = wild5g::metro;
namespace radio = wild5g::radio;

/// Forwards every Campaign call, wrapping execute_step in a span.
class TimedCampaign final : public engine::Campaign {
 public:
  TimedCampaign(engine::Campaign& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::size_t total_steps() const override {
    return inner_.total_steps();
  }
  [[nodiscard]] json::Value execute_step(
      std::size_t index, engine::CampaignContext& ctx) override {
    const Span span(log_, "engine.execute_step",
                    static_cast<std::int64_t>(index));
    return inner_.execute_step(index, ctx);
  }
  [[nodiscard]] json::Value checkpoint_state() const override {
    return inner_.checkpoint_state();
  }
  void restore_state(const json::Value& state) override {
    inner_.restore_state(state);
  }

 private:
  engine::Campaign& inner_;
  SpanLog& log_;
};

struct Replay {
  double run_s = 0.0;
  /// Time in spans the service does not pay for (the separate dump).
  double extra_s = 0.0;
  long frames = 0;
  long ckpts = 0;
  std::uint64_t snapshot_bytes = 0;
  std::string document;
  bool completed = false;
};

/// Runs `campaign` from `start_step` with the hooks wild5g_serve installs:
/// each frame is rendered as its protocol line, and with a checkpoint path
/// every yield point serializes the campaign and document state and saves
/// a snapshot. When `mid_copy` is set, the snapshot written at `mid` is
/// kept there for the resume replay.
Replay replay_steps(engine::Campaign& campaign, engine::MetricsDocument& doc,
                    const engine::CampaignRequest& request,
                    std::size_t start_step, const std::string& checkpoint_path,
                    SpanLog& log, const std::string& mid_copy = {},
                    std::size_t mid = 0) {
  TimedCampaign timed(campaign, log);
  engine::CampaignContext ctx{doc, nullptr};
  engine::RunControl control;
  control.start_step = start_step;
  Replay out;
  control.on_frame = [&out](std::size_t step, const json::Value& frame) {
    json::Value event = json::Value::object();
    event.set("event", "frame");
    event.set("id", "replay");
    event.set("step", static_cast<std::uint64_t>(step));
    event.set("payload", frame);
    (void)json::dump_compact(event);
    ++out.frames;
  };
  if (!checkpoint_path.empty()) {
    control.on_yield = [&](std::size_t next_step) {
      engine::Snapshot snapshot;
      snapshot.request = request;
      snapshot.next_step = next_step;
      {
        const Span span(log, "engine.checkpoint_state");
        snapshot.campaign_state = campaign.checkpoint_state();
        snapshot.document_state = doc.checkpoint_state();
      }
      if (log.enabled()) {
        // save_snapshot serializes internally; this separate dump of the
        // same document splits its time into JSON rendering and file I/O.
        const auto start = Clock::now();
        const json::Value document = snapshot.to_json();
        {
          const Span span(log, "core.json_dump");
          (void)json::dump(document);
        }
        out.extra_s += seconds_since(start);
      }
      {
        const Span span(log, "engine.save_snapshot");
        engine::save_snapshot(snapshot, checkpoint_path);
      }
      out.snapshot_bytes += std::filesystem::file_size(checkpoint_path);
      ++out.ckpts;
      if (!mid_copy.empty() && next_step == mid) {
        std::filesystem::copy_file(
            checkpoint_path, mid_copy,
            std::filesystem::copy_options::overwrite_existing);
      }
    };
  }
  const auto start = Clock::now();
  engine::RunOutcome outcome;
  {
    const Span span(log, "engine.run_steps");
    outcome = engine::run_steps(timed, ctx, control);
  }
  out.run_s = seconds_since(start);
  out.completed = outcome.status == engine::RunStatus::kCompleted;
  out.document = json::dump(doc.document());
  return out;
}

Replay replay_fresh(const engine::CampaignRequest& request,
                    const std::string& checkpoint_path, SpanLog& log,
                    const std::string& mid_copy = {}, std::size_t mid = 0) {
  auto campaign = engine::make_campaign(request);
  engine::MetricsDocument doc(request.campaign, request.seed);
  return replay_steps(*campaign, doc, request, 0, checkpoint_path, log,
                      mid_copy, mid);
}

json::Value replay_json(const Replay& replay) {
  json::Value out = json::Value::object();
  out.set("run_s", replay.run_s);
  out.set("extra_s", replay.extra_s);
  out.set("frames", static_cast<std::int64_t>(replay.frames));
  out.set("ckpts", static_cast<std::int64_t>(replay.ckpts));
  out.set("snapshot_bytes", replay.snapshot_bytes);
  return out;
}

/// One direct metro::run_campaign call per repeat at `config`.
json::Value metro_layer(const metro::MetroConfig& config, std::uint64_t seed,
                        int repeats, SpanLog& log) {
  metro::MetroResult result;
  double total_s = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    const Span span(log, "metro.run_campaign", config.cells);
    result = metro::run_campaign(config, Rng(seed));
    total_s += seconds_since(start);
  }
  json::Value out = json::Value::object();
  out.set("cells", config.cells);
  out.set("run_campaign_s", total_s / repeats);
  out.set("ue_steps", static_cast<std::int64_t>(result.ues) * result.steps);
  out.set("handoffs", static_cast<std::int64_t>(result.handoffs));
  out.set("attach_ops", static_cast<std::int64_t>(result.attach_ops));
  return out;
}

/// A3HandoffEngine::step for one UE driving the corridor of `cells` sites
/// (the metro spacing and band) at vehicular speed, timed as one loop:
/// a step is far shorter than a span.
json::Value handoff_layer(int cells, long steps, std::uint64_t seed,
                          SpanLog& log) {
  const metro::MetroConfig config;
  std::vector<radio::CellSite> sites;
  for (int c = 0; c < cells; ++c) {
    sites.push_back({.id = c,
                     .position_m = c * config.cell_spacing_m,
                     .band = config.network.band});
  }
  radio::A3HandoffEngine engine(sites, config.handoff, Rng(seed));
  const double length_m = std::max(1.0, (cells - 1) * config.cell_spacing_m);
  constexpr double kSpeedMps = 15.0;
  constexpr double kStepS = 0.5;
  const auto start = Clock::now();
  {
    const Span span(log, "radio.handoff_loop", cells);
    for (long i = 0; i < steps; ++i) {
      (void)engine.step(kStepS,
                        std::fmod(static_cast<double>(i) * kStepS * kSpeedMps,
                                  length_m));
    }
  }
  json::Value out = json::Value::object();
  out.set("cells", cells);
  out.set("steps", static_cast<std::int64_t>(steps));
  out.set("step_ns", seconds_since(start) * 1e9 / static_cast<double>(steps));
  out.set("handoffs", engine.handoff_count());
  return out;
}

}  // namespace

json::Value run_serve_replay(const Options& options, SpanLog& log,
                             Checks& checks) {
  wild5g::parallel::set_thread_count(static_cast<std::size_t>(options.threads));
  engine::register_builtin_campaigns();
  const std::filesystem::path dir(options.workdir);
  const std::string soak_ckpt = (dir / "replay-soak.ckpt").string();
  const std::string mid_ckpt = (dir / "replay-mid.ckpt").string();
  const std::string resume_ckpt = (dir / "replay-resume.ckpt").string();

  engine::CampaignRequest soak;
  soak.campaign = "drive_soak";
  soak.seed = options.seed;
  soak.params = json::Value::object();
  soak.params.set("intervals", options.soak_intervals);
  engine::CampaignRequest city;
  city.campaign = "metro_load";
  city.seed = options.seed;
  city.params = json::Value::object();
  city.params.set("cells", options.city_cells);
  city.params.set("ues", options.city_ues);

  json::Value report = json::Value::object();
  // The service's own work, without spans: the in-process baseline that
  // serve.overhead.ms and the tracing overhead are measured against.
  const bool traced = log.enabled();
  log.set_enabled(false);
  const Replay soak_plain = replay_fresh(soak, soak_ckpt, log);
  const Replay city_plain = replay_fresh(city, "", log);
  log.set_enabled(traced);

  const Replay soak_traced = replay_fresh(soak, soak_ckpt, log, mid_ckpt,
                                          static_cast<std::size_t>(
                                              options.soak_mid));
  checks.record(soak_plain.completed && soak_traced.completed &&
                    city_plain.completed,
                "an in-process replay did not complete");
  checks.record(soak_plain.document == soak_traced.document,
                "traced and untraced soak replays disagree");

  engine::Snapshot snapshot;
  {
    const Span span(log, "engine.load_snapshot");
    snapshot = engine::load_snapshot(mid_ckpt);
  }
  std::unique_ptr<engine::Campaign> campaign;
  engine::MetricsDocument doc(snapshot.request.campaign, snapshot.request.seed);
  {
    const Span span(log, "engine.restore_state");
    campaign = engine::make_campaign(snapshot.request);
    campaign->restore_state(snapshot.campaign_state);
    doc.restore_state(snapshot.document_state);
  }
  const Replay resumed = replay_steps(*campaign, doc, snapshot.request,
                                      snapshot.next_step, resume_ckpt, log);
  checks.record(resumed.completed && resumed.document == soak_plain.document,
                "resumed replay's document differs from the uninterrupted one");

  // A second untraced soak after the traced ones, so the tracing overhead
  // compares against runs on both sides of it.
  log.set_enabled(false);
  const Replay soak_plain_after = replay_fresh(soak, soak_ckpt, log);
  log.set_enabled(traced);
  checks.record(soak_plain_after.document == soak_plain.document,
                "repeated soak replays disagree");

  report.set("soak_plain", replay_json(soak_plain));
  report.set("soak_plain_after", replay_json(soak_plain_after));
  report.set("soak_traced", replay_json(soak_traced));
  report.set("resume", replay_json(resumed));
  report.set("city_plain", replay_json(city_plain));

  // The per-UE layers at the soak corridor (one drive_soak interval) and at
  // city scale (one metro_load grid point).
  metro::MetroConfig soak_interval;
  soak_interval.cells = 4;
  soak_interval.ues_per_cell = 25;
  soak_interval.duration_s = 30.0;
  soak_interval.background_load = 0.2;
  metro::MetroConfig city_point;
  city_point.cells = options.city_cells;
  city_point.ues_per_cell = options.city_ues;
  json::Value metro_layers = json::Value::array();
  metro_layers.push_back(metro_layer(soak_interval, options.seed, 10, log));
  metro_layers.push_back(metro_layer(city_point, options.seed, 1, log));
  report.set("metro", metro_layers);

  json::Value radio_layers = json::Value::array();
  radio_layers.push_back(handoff_layer(4, 400000, options.seed, log));
  radio_layers.push_back(
      handoff_layer(options.city_cells, 40000, options.seed, log));
  report.set("radio", radio_layers);

  std::filesystem::remove(soak_ckpt);
  std::filesystem::remove(mid_ckpt);
  std::filesystem::remove(resume_ckpt);
  return report;
}

}  // namespace perfbench
