#include "fleet.hpp"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t since_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Value of `"op": "<x>"` in a control answer, empty when absent.
std::string op_of(const std::string& line) {
  static const std::string kKey = "\"op\": \"";
  const std::size_t at = line.find(kKey);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + kKey.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? std::string{}
                                   : line.substr(begin, end - begin);
}

/// n from a response that starts `{"id": "<prefix><n>"`.
std::optional<std::size_t> id_number(const std::string& line,
                                     const std::string& prefix) {
  const std::string head = "{\"id\": \"" + prefix;
  if (line.compare(0, head.size(), head) != 0) return std::nullopt;
  std::size_t value = 0;
  const char* begin = line.data() + head.size();
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin || ptr == end || *ptr != '"')
    return std::nullopt;
  return value;
}

struct ProcStat {
  int ppid = 0;
  double cpu_s = 0.0;
};

std::optional<ProcStat> read_stat(const std::filesystem::path& dir) {
  std::ifstream in(dir / "stat");
  std::string text;
  if (!std::getline(in, text)) return std::nullopt;
  // Fields after the parenthesized command name (which may hold spaces):
  // state ppid ... utime(14) stime(15), numbered from pid = 1.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(text.substr(close + 1));
  std::string state;
  ProcStat stat;
  fields >> state >> stat.ppid;
  std::string skip;
  for (int field = 5; field <= 13; ++field) fields >> skip;
  long long utime = 0;
  long long stime = 0;
  fields >> utime >> stime;
  if (!fields) return std::nullopt;
  stat.cpu_s = static_cast<double>(utime + stime) /
               static_cast<double>(sysconf(_SC_CLK_TCK));
  return stat;
}

double read_hwm_mib(const std::filesystem::path& dir) {
  std::ifstream in(dir / "status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  return 0.0;
}

}  // namespace

FleetSpec serve_spec(const std::string& bin_dir, int threads,
                     std::vector<std::string> extra) {
  FleetSpec spec;
  spec.argv = {bin_dir + "/wtam_serve", "--quiet", "--threads",
               std::to_string(threads)};
  spec.argv.insert(spec.argv.end(), extra.begin(), extra.end());
  spec.ready_op = "ping";
  return spec;
}

FleetSpec router_spec(const std::string& bin_dir, int workers,
                      std::vector<std::string> extra) {
  FleetSpec spec;
  spec.argv = {bin_dir + "/wtam_router", "--quiet",   "--workers",
               std::to_string(workers),  "--worker-threads", "1",
               "--serve",                bin_dir + "/wtam_serve"};
  spec.argv.insert(spec.argv.end(), extra.begin(), extra.end());
  spec.ready_op = "stats";
  return spec;
}

std::string await_op(wtam::serve::WorkerLink& link, const std::string& op) {
  for (;;) {
    std::optional<std::string> line = link.read_line();
    if (!line.has_value())
      throw std::runtime_error("server closed its pipe while awaiting '" +
                               op + "'");
    if (op_of(*line) == op) return *line;
  }
}

Fleet::Fleet(const FleetSpec& spec) {
  const Clock::time_point start = Clock::now();
  link_ = wtam::serve::make_worker_link(wtam::serve::WorkerSpec::local(spec.argv));
  if (!link_->write_line("{\"op\": \"" + spec.ready_op + "\"}"))
    throw std::runtime_error("cannot write to " + spec.argv.front());
  (void)await_op(*link_, spec.ready_op);
  setup_s_ = static_cast<double>(since_ns(start)) / 1e9;
}

Fleet::~Fleet() {
  if (stopped_ || !link_) return;
  link_->sever();
  link_->finish();
}

void Fleet::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  if (link_->write_line("{\"op\": \"shutdown\"}")) {
    try {
      (void)await_op(*link_, "shutdown");
    } catch (const std::runtime_error&) {
      // Already gone: finish() below reaps it either way.
    }
  }
  link_->close_input();
  link_->finish();
}

TreeSample sample_process_tree() {
  namespace fs = std::filesystem;
  std::map<int, ProcStat> stats;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    int pid = 0;
    const auto [ptr, err] =
        std::from_chars(name.data(), name.data() + name.size(), pid);
    if (err != std::errc{} || ptr != name.data() + name.size()) continue;
    if (const std::optional<ProcStat> stat = read_stat(entry.path()))
      stats.emplace(pid, *stat);
  }
  TreeSample sample;
  std::vector<int> frontier = {static_cast<int>(getpid())};
  while (!frontier.empty()) {
    const int parent = frontier.back();
    frontier.pop_back();
    for (const auto& [pid, stat] : stats) {
      if (stat.ppid != parent) continue;
      frontier.push_back(pid);
      sample.cpu_s += stat.cpu_s;
      sample.hwm_mib += read_hwm_mib(fs::path("/proc") / std::to_string(pid));
      ++sample.processes;
    }
  }
  return sample;
}

LoopResult closed_loop(
    wtam::serve::WorkerLink& link, int outstanding, double seconds,
    const Slicing& slicing, const std::string& id_prefix,
    const std::function<std::optional<std::size_t>(std::size_t)>& next,
    const std::function<std::string(std::size_t point, const std::string& id)>&
        line_for,
    const std::function<void()>& barrier) {
  LoopResult result;
  result.marks.push_back(Mark{0, 0, sample_process_tree().cpu_s});
  const Clock::time_point start = Clock::now();
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);
  const auto period_ns = static_cast<std::int64_t>(slicing.period_s * 1e9);
  std::int64_t next_period_ns = period_ns;
  std::size_t answered = 0;
  std::size_t last = 0;  // the latest answered exchange
  std::size_t in_flight = 0;
  bool exhausted = false;
  bool draining = false;  // `next` asked for a barrier

  const auto send_one = [&] {
    const std::size_t n = result.exchanges.size();
    if (exhausted || draining) return;
    if (window_ns > 0 && since_ns(start) >= window_ns) {
      exhausted = true;
      return;
    }
    const std::optional<std::size_t> point = next(n);
    if (!point.has_value()) {
      exhausted = true;
      return;
    }
    if (*point == kBarrier) {
      draining = true;
      return;
    }
    const std::string line = line_for(*point, id_prefix + std::to_string(n));
    Exchange exchange;
    exchange.point = *point;
    exchange.sent_ns = since_ns(start);
    result.exchanges.push_back(std::move(exchange));
    if (!link.write_line(line))
      throw std::runtime_error("server closed its pipe mid-run");
    ++in_flight;
  };
  // Tops the loop up to `outstanding`, running a barrier once the
  // requests before it have all been answered.
  const auto refill = [&] {
    for (;;) {
      while (!exhausted && !draining &&
             in_flight < static_cast<std::size_t>(outstanding))
        send_one();
      if (!draining || in_flight > 0) return;
      barrier();
      draining = false;
    }
  };

  refill();
  while (in_flight > 0) {
    std::optional<std::string> line = link.read_line();
    const std::int64_t now = since_ns(start);
    if (!line.has_value())
      throw std::runtime_error("server closed its pipe with " +
                               std::to_string(in_flight) +
                               " requests unanswered");
    const std::optional<std::size_t> n = id_number(*line, id_prefix);
    if (!n.has_value() || *n >= result.exchanges.size() ||
        result.exchanges[*n].done_ns >= 0)
      throw std::runtime_error("unmatched answer: " + line->substr(0, 200));
    --in_flight;
    refill();  // close the loop before any bookkeeping
    Exchange& exchange = result.exchanges[*n];
    exchange.done_ns = now;
    exchange.response = std::move(*line);
    last = *n;
    ++answered;
    bool mark = slicing.answers > 0 && answered % slicing.answers == 0;
    if (period_ns > 0 && now >= next_period_ns &&
        (window_ns == 0 || now < window_ns)) {
      mark = true;
      while (next_period_ns <= now) next_period_ns += period_ns;
    }
    if (mark && in_flight > 0)
      result.marks.push_back(Mark{answered, now, sample_process_tree().cpu_s});
  }
  if (answered > 0)
    result.marks.push_back(
        Mark{answered, result.exchanges[last].done_ns, sample_process_tree().cpu_s});
  const std::int64_t first =
      result.exchanges.empty() ? 0 : result.exchanges.front().sent_ns;
  result.window_s = static_cast<double>(result.marks.back().ns - first) / 1e9;
  return result;
}

}  // namespace perfbench
