#include "campaign/serialize.hpp"

#include <stdexcept>
#include <string>

#include "io/serialize.hpp"
#include "util/csv.hpp"

namespace lightnas::campaign {

namespace {

using io::Json;
namespace detail = io::detail;

JobState job_state_from_string(const std::string& name) {
  for (JobState state :
       {JobState::kPending, JobState::kRunning, JobState::kConverged,
        JobState::kDiverged, JobState::kPreempted}) {
    if (name == to_string(state)) return state;
  }
  throw std::runtime_error("unknown job state '" + name + "'");
}

Json trace_to_json(const std::vector<core::SearchEpochStats>& trace) {
  Json arr = Json::array();
  for (const core::SearchEpochStats& stats : trace) {
    arr.push_back(detail::epoch_stats_to_json(stats));
  }
  return arr;
}

std::vector<core::SearchEpochStats> trace_from_json(const Json& json) {
  std::vector<core::SearchEpochStats> trace;
  trace.reserve(json.size());
  for (const Json& row : json.as_array()) {
    trace.push_back(detail::epoch_stats_from_json(row));
  }
  return trace;
}

Json events_to_json(const std::vector<core::WatchdogEvent>& events) {
  Json arr = Json::array();
  for (const core::WatchdogEvent& event : events) {
    Json row = Json::object();
    row.set("epoch", Json(event.epoch));
    row.set("reason", Json(event.reason));
    row.set("rolled_back", Json(event.rolled_back));
    arr.push_back(std::move(row));
  }
  return arr;
}

std::vector<core::WatchdogEvent> events_from_json(const Json& json) {
  std::vector<core::WatchdogEvent> events;
  for (const Json& row : json.as_array()) {
    core::WatchdogEvent event;
    event.epoch = detail::size_from_json(row.at("epoch"), "event epoch");
    event.reason = row.at("reason").as_string();
    event.rolled_back = row.at("rolled_back").as_bool();
    events.push_back(std::move(event));
  }
  return events;
}

Json job_checkpoint_to_json(const JobCheckpoint& job) {
  Json json = Json::object();
  json.set("state", Json(std::string(to_string(job.state))));
  json.set("alpha", detail::tensor_to_json(job.alpha));
  json.set("adam_m", detail::tensor_list_to_json(job.adam_m));
  json.set("adam_v", detail::tensor_list_to_json(job.adam_v));
  json.set("adam_t", Json(job.adam_t));
  json.set("lambdas", Json::from_doubles(job.lambdas));
  json.set("path_rng", detail::rng_state_to_json(job.path_rng));
  json.set("valid_rng", detail::rng_state_to_json(job.valid_rng));
  json.set("valid_batcher",
           detail::batcher_state_to_json(job.valid_batcher));
  json.set("cooldown_scale", Json(job.cooldown_scale));
  json.set("tau_floor", Json(job.tau_floor));
  json.set("rollbacks", Json(job.rollbacks));
  json.set("events", events_to_json(job.events));
  json.set("tolerance_streak", Json(job.tolerance_streak));
  json.set("converged_epoch", Json(job.converged_epoch));
  json.set("alpha_updates", Json(job.alpha_updates));
  json.set("trace", trace_to_json(job.trace));
  return json;
}

JobCheckpoint job_checkpoint_from_json(const Json& json) {
  JobCheckpoint job;
  job.state = job_state_from_string(json.at("state").as_string());
  job.alpha = detail::tensor_from_json(json.at("alpha"));
  job.adam_m = detail::tensor_list_from_json(json.at("adam_m"));
  job.adam_v = detail::tensor_list_from_json(json.at("adam_v"));
  job.adam_t = detail::size_from_json(json.at("adam_t"), "adam_t");
  job.lambdas = json.at("lambdas").to_doubles();
  job.path_rng = detail::rng_state_from_json(json.at("path_rng"));
  job.valid_rng = detail::rng_state_from_json(json.at("valid_rng"));
  job.valid_batcher =
      detail::batcher_state_from_json(json.at("valid_batcher"));
  job.cooldown_scale = json.at("cooldown_scale").number_or_nan();
  job.tau_floor = json.at("tau_floor").number_or_nan();
  job.rollbacks = detail::size_from_json(json.at("rollbacks"), "rollbacks");
  job.events = events_from_json(json.at("events"));
  job.tolerance_streak =
      detail::size_from_json(json.at("tolerance_streak"), "tolerance_streak");
  job.converged_epoch =
      detail::size_from_json(json.at("converged_epoch"), "converged_epoch");
  job.alpha_updates =
      detail::size_from_json(json.at("alpha_updates"), "alpha_updates");
  job.trace = trace_from_json(json.at("trace"));
  return job;
}

}  // namespace

// --- campaign checkpoints ----------------------------------------------

Json campaign_checkpoint_to_json(const CampaignCheckpoint& ck) {
  Json json = Json::object();
  json.set("kind", Json("lightnas.campaign_checkpoint"));
  json.set("version", Json(detail::format_version()));
  json.set("seed", detail::u64_to_json(ck.seed));
  json.set("total_epochs", Json(ck.total_epochs));
  json.set("targets", Json::from_doubles(ck.targets));
  json.set("next_epoch", Json(ck.next_epoch));
  json.set("supernet_weights",
           detail::tensor_list_to_json(ck.supernet_weights));
  json.set("w_velocity", detail::tensor_list_to_json(ck.w_velocity));
  json.set("w_step_counter", Json(ck.w_step_counter));
  json.set("weight_updates", Json(ck.weight_updates));
  json.set("rng", detail::rng_state_to_json(ck.rng));
  json.set("data_rng", detail::rng_state_to_json(ck.data_rng));
  json.set("train_batcher",
           detail::batcher_state_to_json(ck.train_batcher));
  Json jobs = Json::array();
  for (const JobCheckpoint& job : ck.jobs) {
    jobs.push_back(job_checkpoint_to_json(job));
  }
  json.set("jobs", std::move(jobs));
  return json;
}

CampaignCheckpoint campaign_checkpoint_from_json(const Json& json) {
  detail::check_header(json, "lightnas.campaign_checkpoint");
  CampaignCheckpoint ck;
  ck.seed = detail::u64_from_json(json.at("seed"));
  ck.total_epochs =
      detail::size_from_json(json.at("total_epochs"), "total_epochs");
  ck.targets = json.at("targets").to_doubles();
  ck.next_epoch = detail::size_from_json(json.at("next_epoch"), "next_epoch");
  ck.supernet_weights =
      detail::tensor_list_from_json(json.at("supernet_weights"));
  ck.w_velocity = detail::tensor_list_from_json(json.at("w_velocity"));
  ck.w_step_counter =
      detail::size_from_json(json.at("w_step_counter"), "w_step_counter");
  ck.weight_updates =
      detail::size_from_json(json.at("weight_updates"), "weight_updates");
  ck.rng = detail::rng_state_from_json(json.at("rng"));
  ck.data_rng = detail::rng_state_from_json(json.at("data_rng"));
  ck.train_batcher =
      detail::batcher_state_from_json(json.at("train_batcher"));
  for (const Json& job : json.at("jobs").as_array()) {
    ck.jobs.push_back(job_checkpoint_from_json(job));
  }
  return ck;
}

void save_campaign_checkpoint(const std::string& path,
                              const CampaignCheckpoint& checkpoint) {
  io::write_json_file_atomic(path, campaign_checkpoint_to_json(checkpoint));
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  return campaign_checkpoint_from_json(io::read_json_file(path));
}

// --- campaign results ---------------------------------------------------

Json campaign_result_to_json(const CampaignResult& result) {
  Json json = Json::object();
  json.set("kind", Json("lightnas.campaign_result"));
  json.set("version", Json(detail::format_version()));
  json.set("weight_updates", Json(result.weight_updates));
  json.set("alpha_updates", Json(result.alpha_updates));
  json.set("total_updates", Json(result.total_updates()));
  json.set("completed_epochs", Json(result.completed_epochs));
  json.set("interrupted", Json(result.interrupted));
  json.set("resumed", Json(result.resumed));
  json.set("resumed_from_epoch", Json(result.resumed_from_epoch));
  Json jobs = Json::array();
  for (const JobResult& job : result.jobs) {
    Json row = Json::object();
    row.set("job_id", Json(job.job_id));
    row.set("target", Json(job.target));
    row.set("state", Json(std::string(to_string(job.state))));
    row.set("architecture", Json(job.architecture.serialize()));
    row.set("predicted_cost", Json(job.predicted_cost));
    row.set("gap", Json(job.gap));
    row.set("within_tolerance", Json(job.within_tolerance));
    row.set("valid_accuracy", Json(job.valid_accuracy));
    row.set("final_lambda", Json(job.final_lambda));
    row.set("on_front", Json(job.on_front));
    row.set("converged_epoch", Json(job.converged_epoch));
    row.set("alpha_updates", Json(job.alpha_updates));
    row.set("rollbacks", Json(job.rollbacks));
    row.set("events", events_to_json(job.events));
    row.set("trace", trace_to_json(job.trace));
    jobs.push_back(std::move(row));
  }
  json.set("jobs", std::move(jobs));
  Json front = Json::array();
  for (const util::ParetoPoint& point : result.front) {
    Json row = Json::object();
    row.set("cost", Json(point.cost));
    row.set("accuracy", Json(point.value));
    row.set("job_id", Json(point.tag));
    front.push_back(std::move(row));
  }
  json.set("front", std::move(front));
  return json;
}

void save_campaign_result(const std::string& path,
                          const CampaignResult& result) {
  io::write_json_file(path, campaign_result_to_json(result));
}

bool write_campaign_csv(const std::string& path,
                        const CampaignResult& result) {
  util::CsvWriter csv({"job_id", "target", "state", "predicted_cost",
                       "valid_accuracy", "gap", "within_tolerance",
                       "on_front", "alpha_updates", "rollbacks",
                       "architecture"});
  for (const JobResult& job : result.jobs) {
    csv.add_row({std::to_string(job.job_id), std::to_string(job.target),
                 to_string(job.state), std::to_string(job.predicted_cost),
                 std::to_string(job.valid_accuracy),
                 std::to_string(job.gap),
                 job.within_tolerance ? "1" : "0",
                 job.on_front ? "1" : "0",
                 std::to_string(job.alpha_updates),
                 std::to_string(job.rollbacks),
                 job.architecture.serialize()});
  }
  return csv.write_file(path);
}

}  // namespace lightnas::campaign
