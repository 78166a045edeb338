// The campaign layers, measured in the traced run of the `search`
// workload: CampaignOrchestrator with 8 latency targets from 19 to 26 ms
// (the band where the constraint binds) over one shared supernet, at the
// CLI `search-campaign` defaults, checkpointing every 5 epochs.
//
// The campaign is not a workload of its own. One campaign takes longer
// than a run's window, so its wall time would be a single sample, and
// that sample moved by more than any regression bound between sets of
// runs of the same code on a shared host.
//
// The campaign is the same in every run (search seed 17, as in the
// campaign_pareto bench) whatever --seed says: a campaign ends when its
// last job converges, and over ten seeds that moved its length by -15/+28
// % around the median.
//
// An untraced campaign runs first, then the same campaign with the timing
// predictor decorator and timestamps from the campaign hooks; every job's
// trace must be unchanged.

#include <algorithm>
#include <cstdio>

#include "campaign/campaign.hpp"
#include "campaign/serialize.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace ln = lightnas;

namespace {

constexpr std::size_t kCheckpointEvery = 5;

constexpr std::uint64_t kCampaignSeed = 17;

ln::campaign::CampaignConfig campaign_config() {
  ln::campaign::CampaignConfig config;
  config.targets = {19.0, 20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0};
  config.search.seed = kCampaignSeed;
  config.search.epochs = 55;
  config.search.warmup_epochs = std::min<std::size_t>(
      config.search.warmup_epochs, config.search.epochs / 2);
  return config;
}

struct TimedCampaign {
  ln::campaign::CampaignResult result;
  double wall_s = 0.0;
  std::vector<double> epoch_us;
};

TimedCampaign timed_campaign(const Setup& setup,
                             const ln::predictors::HardwarePredictor& predictor,
                             const ln::nn::SyntheticTask& task,
                             const std::string& path, Tracer* tracer) {
  TimedCampaign out;
  std::int64_t last = now_ns();
  const std::int64_t start = last;
  ln::campaign::CampaignHooks hooks;
  hooks.checkpoint_every = kCheckpointEvery;
  hooks.on_checkpoint = [&](const ln::campaign::CampaignCheckpoint& ck) {
    ScopedSpan span(tracer, "io.checkpoint");
    ln::campaign::save_campaign_checkpoint(path, ck);
  };
  hooks.should_stop = [&](std::size_t) {
    const std::int64_t now = now_ns();
    out.epoch_us.push_back((now - last) / 1e3);
    last = now;
    return false;
  };
  ln::campaign::CampaignOrchestrator orchestrator(
      setup.space, predictor, task, ln::core::SupernetConfig{},
      campaign_config());
  out.result = orchestrator.run(hooks);
  const std::int64_t end = now_ns();
  out.epoch_us.push_back((end - last) / 1e3);
  out.wall_s = (end - start) / 1e9;
  return out;
}

/// Count each job as one operation; a job fails unless it converged
/// within tolerance.
void check_campaign(const TimedCampaign& run, Result& result) {
  std::size_t converged = 0;
  for (const ln::campaign::JobResult& job : run.result.jobs) {
    const bool ok = job.state == ln::campaign::JobState::kConverged &&
                    job.within_tolerance;
    result.tally.add(ok);
    if (ok) ++converged;
  }
  std::printf("campaign: %.3f s, %zu epochs, %zu weight + %zu alpha updates, "
              "%zu/%zu converged within tolerance\n",
              run.wall_s, run.result.completed_epochs,
              run.result.weight_updates, run.result.alpha_updates, converged,
              run.result.jobs.size());
}

}  // namespace

void trace_campaign(const Options& options, const Setup& setup,
                    const ln::nn::SyntheticTask& task, Result& result) {
  const std::string path = options.work_dir + "/campaign_checkpoint.json";
  const TimedCampaign untraced =
      timed_campaign(setup, *setup.predictor, task, path, nullptr);
  check_campaign(untraced, result);

  // A span log of its own: the search's spans set the run's overhead and
  // coverage figures.
  Tracer tracer;
  const TimedPredictor timed(*setup.predictor, &tracer);
  const std::int64_t begin = now_ns();
  const TimedCampaign traced =
      timed_campaign(setup, timed, task, path, &tracer);
  if (traced.result.jobs.size() != untraced.result.jobs.size()) {
    result.wrong("traced campaign ran a different number of jobs");
  } else {
    for (std::size_t j = 0; j < traced.result.jobs.size(); ++j) {
      const std::string mismatch = trace_mismatch(
          untraced.result.jobs[j].trace, traced.result.jobs[j].trace);
      if (!mismatch.empty()) {
        result.wrong("traced campaign job " + std::to_string(j) +
                     " diverged: " + mismatch);
      }
    }
  }

  std::vector<double> epoch_ms;
  for (const double us : traced.epoch_us) epoch_ms.push_back(us / 1e3);
  result.set("campaign.epoch_ms", mean(epoch_ms), "ms");
  result.set("campaign.alpha_updates",
             static_cast<double>(traced.result.alpha_updates), "count");
  result.set("campaign.jobs_converged",
             static_cast<double>(
                 traced.result.count(ln::campaign::JobState::kConverged)),
             "count");
  const std::string spans_path = options.out_dir + "/spans-campaign-seed" +
                                 std::to_string(options.seed) + ".json";
  if (!write_spans(spans_path, tracer.spans(), begin)) {
    result.wrong("could not write " + spans_path);
  }
}

}  // namespace perfbench
