#include "report.hpp"

#include <charconv>
#include <cmath>
#include <iostream>

namespace perfbench {

namespace {

/// Shortest text that reads back as exactly `value`.
std::string number_text(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, end) : "null";
}

}  // namespace

void Report::info(const std::string& key, const std::string& value) {
  std::cout << "info " << key << " = " << value << '\n';
}

void Report::add(Metric metric) {
  std::cout << "metric " << metric.name << " = " << number_text(metric.value)
            << ' ' << metric.unit;
  if (!metric.note.empty()) std::cout << "  (" << metric.note << ')';
  std::cout << '\n';
  metrics_.push_back(std::move(metric));
}

std::string Report::result_json(bool correct, std::size_t attempted,
                                std::size_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " +
            number_text(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
