#include "serve/worker_link.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/line_framer.hpp"
#include "common/subprocess.hpp"
#include "common/timer.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"

namespace wtam::serve {

WorkerSpec WorkerSpec::local(std::vector<std::string> argv,
                             std::string cache) {
  WorkerSpec spec;
  spec.command = std::move(argv);
  spec.cache_file = std::move(cache);
  return spec;
}

WorkerSpec WorkerSpec::connect(std::string endpoint) {
  WorkerSpec spec;
  spec.endpoint = std::move(endpoint);
  return spec;
}

std::string WorkerSpec::describe() const {
  if (remote()) return "tcp:" + endpoint;
  return "pipe:" + (command.empty() ? std::string("?") : command.front());
}

namespace {

/// The read both links share. An oversized worker frame is a protocol
/// violation, not data (wtam_serve never writes one): skipping it keeps
/// the stream aligned.
std::optional<std::string> read_worker_line(common::LineFramer& framer) {
  for (std::string line;;) {
    const common::LineFramer::Status status = framer.read_line(line);
    if (status == common::LineFramer::Status::Line) return line;
    if (status != common::LineFramer::Status::TooLong) return std::nullopt;
  }
}

class SubprocessLink final : public WorkerLink {
 public:
  explicit SubprocessLink(const std::vector<std::string>& argv)
      : process_(argv) {}

  bool write_line(std::string_view line) override {
    return process_.write_line(line);
  }
  std::optional<std::string> read_line() override {
    return read_worker_line(process_.framer());
  }
  void close_input() override { process_.close_stdin(); }
  void sever() override { process_.kill(); }
  void finish() override { (void)process_.wait(); }

 private:
  common::Subprocess process_;
};

class SocketLink final : public WorkerLink {
 public:
  explicit SocketLink(std::unique_ptr<net::Connection> connection)
      : connection_(std::move(connection)) {}

  bool write_line(std::string_view line) override {
    return connection_->write_line(line);
  }
  std::optional<std::string> read_line() override {
    return read_worker_line(connection_->framer());
  }
  void close_input() override { connection_->shutdown_write(); }
  void sever() override { connection_->shutdown_both(); }
  void finish() override {}  // the remote process is not ours to reap

 private:
  std::unique_ptr<net::Connection> connection_;
};

}  // namespace

std::unique_ptr<WorkerLink> make_worker_link(
    const WorkerSpec& spec, std::chrono::milliseconds connect_wait) {
  if (!spec.remote()) {
    if (spec.command.empty())
      throw std::invalid_argument("worker spec has neither command nor "
                                  "endpoint");
    return std::make_unique<SubprocessLink>(spec.command);
  }

  const net::Endpoint endpoint = net::parse_endpoint(spec.endpoint);
  // Doubling backoff until the budget runs out: covers the router
  // booting a beat before its workers and reconnects to a worker that is
  // restarting. The final attempt's error is the one reported.
  const auto deadline = common::steady_now() + connect_wait;
  std::chrono::milliseconds backoff(25);
  for (;;) {
    try {
      return std::make_unique<SocketLink>(net::Connection::connect(endpoint));
    } catch (const std::exception&) {
      if (common::steady_now() + backoff >= deadline) throw;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
    }
  }
}

}  // namespace wtam::serve
