#include "check.hpp"

#include <stdexcept>

#include "api/json_value.hpp"

namespace perfbench {

using wtam::api::JsonValue;

std::optional<Answer> parse_answer(const std::string& line) {
  try {
    const JsonValue value = JsonValue::parse(line);
    const JsonValue* status = value.find("status");
    if (status == nullptr) return std::nullopt;
    Answer answer;
    answer.status = status->as_string();
    if (const JsonValue* cache = value.find("cache"))
      answer.cache = cache->as_string();
    if (const JsonValue* v = value.find("testing_time"))
      answer.testing_time = v->as_int();
    if (const JsonValue* v = value.find("lower_bound"))
      answer.lower_bound = v->as_int();
    if (const JsonValue* v = value.find("schedule_valid"))
      answer.schedule_valid = v->as_bool();
    if (const JsonValue* v = value.find("width"))
      answer.width = static_cast<int>(v->as_int());
    if (const JsonValue* details = value.find("details"))
      if (const JsonValue* repacks = details->find("repacks"))
        answer.repacks = std::stoll(repacks->as_string());
    if (const JsonValue* trace = value.find("trace"))
      for (const JsonValue& span : trace->elements()) {
        const JsonValue* stage = span.find("stage");
        const JsonValue* start = span.find("start_ns");
        const JsonValue* duration = span.find("duration_ns");
        if (stage == nullptr || start == nullptr || duration == nullptr)
          return std::nullopt;
        answer.trace.push_back(ServerSpan{stage->as_string(), start->as_int(),
                                          duration->as_int()});
      }
    return answer;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string canonical_answer(const std::string& line) {
  const JsonValue value = JsonValue::parse(line);
  JsonValue kept = JsonValue::object();
  for (const auto& [key, member] : value.members())
    if (key != "id" && key != "cache" && key != "trace") kept.set(key, member);
  return kept.dump_compact_string();
}

std::vector<wtam::api::SolveResult> reference_results(
    const std::vector<const Point*>& points, int threads) {
  std::vector<wtam::api::SolveRequest> requests;
  requests.reserve(points.size());
  for (const Point* point : points) requests.push_back(point->request);
  const wtam::api::Solver solver(
      wtam::api::SolverOptions::with_threads(threads));
  return solver.solve_batch(requests);
}

std::string mismatch(const Answer& answer,
                     const wtam::api::SolveResult& reference) {
  if (reference.status != wtam::api::Status::Ok)
    return "reference solve failed: " + reference.error;
  if (answer.status != "ok") return "status " + answer.status;
  if (!reference.outcome.has_value()) return "reference has no outcome";
  if (answer.testing_time != reference.outcome->testing_time)
    return "testing_time " + std::to_string(answer.testing_time) +
           " != reference " + std::to_string(reference.outcome->testing_time);
  if (answer.lower_bound != reference.lower_bound)
    return "lower_bound " + std::to_string(answer.lower_bound) +
           " != reference " + std::to_string(reference.lower_bound);
  if (answer.schedule_valid != reference.schedule_valid)
    return "schedule_valid differs from the reference";
  if (!answer.schedule_valid) return "schedule not valid";
  if (answer.width != reference.width)
    return "width " + std::to_string(answer.width) + " != reference " +
           std::to_string(reference.width);
  return {};
}

}  // namespace perfbench
