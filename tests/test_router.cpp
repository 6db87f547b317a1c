// Router mechanics against scripted workers (/bin/cat echoes every
// line, tiny sh scripts fake crashes and slow workers), so routing,
// id rewriting, op fan-out/merge, shedding, and crash replay are
// testable without paying for real solves. The full-stack fleet (real
// wtam_serve workers, byte-identity across fleet sizes, crash replay
// of real jobs) runs in cmake/cli_checks.cmake.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/json_value.hpp"
#include "common/line_framer.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "serve/router.hpp"
#include "serve/worker_link.hpp"

namespace wtam::serve {
namespace {

/// Thread-safe sink: collects response lines and lets the test block
/// until a count arrives (readers deliver from their own threads).
class Collector {
 public:
  void operator()(const std::string& line) {
    const common::MutexLock lock(mutex_);
    lines_.push_back(line);
  }

  /// Waits (bounded) until at least `count` lines have arrived.
  [[nodiscard]] bool wait_for(std::size_t count) {
    for (int i = 0; i < 2000; ++i) {
      {
        const common::MutexLock lock(mutex_);
        if (lines_.size() >= count) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  [[nodiscard]] std::vector<std::string> lines() {
    const common::MutexLock lock(mutex_);
    return lines_;
  }

 private:
  common::Mutex mutex_;
  std::vector<std::string> lines_;
};

std::vector<std::string> cat_worker() { return {"/bin/cat"}; }

RouterOptions cat_fleet(int workers, std::uint64_t queue_limit = 0) {
  RouterOptions options;
  for (int i = 0; i < workers; ++i)
    options.workers.push_back(WorkerSpec::local(cat_worker()));
  options.queue_limit = queue_limit;
  return options;
}

const api::JsonValue* find_line_with_id(
    const std::vector<std::string>& lines,
    std::vector<api::JsonValue>& storage, const std::string& id) {
  for (const std::string& line : lines) {
    storage.push_back(api::JsonValue::parse(line));
    const api::JsonValue* found = storage.back().find("id");
    if (found != nullptr &&
        found->kind() == api::JsonValue::Kind::String &&
        found->as_string() == id)
      return &storage.back();
  }
  return nullptr;
}

TEST(Router, RoutesJobsAndRestoresClientIds) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  // cat workers echo the rewritten request, so the "response" proves
  // both directions of the id rewrite: the wire line carried an
  // internal id, the emitted line carries the client's again.
  for (const char* id : {"alpha", "beta", "gamma", "delta"}) {
    std::string line = "{\"id\": \"";
    line += id;
    line += "\", \"soc\": \"d695\", \"width\": 32}";
    EXPECT_TRUE(router.handle_line(line));
  }
  ASSERT_TRUE(collector->wait_for(4));
  std::vector<api::JsonValue> storage;
  const std::vector<std::string> lines = collector->lines();
  for (const char* id : {"alpha", "beta", "gamma", "delta"}) {
    const api::JsonValue* response = find_line_with_id(lines, storage, id);
    ASSERT_NE(response, nullptr) << id;
    // The job body passed through unchanged.
    EXPECT_EQ(response->find("soc")->as_string(), "d695");
    EXPECT_EQ(response->find("width")->as_int(), 32);
  }
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, 4u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.respawns, 0u);
  EXPECT_EQ(counters.orphaned, 0u);
}

TEST(Router, SynthesizesIdsInArrivalOrder) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"soc\": \"d695\", \"width\": 16}"));
  EXPECT_TRUE(router.handle_line("{\"soc\": \"d695\", \"width\": 17}"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<api::JsonValue> storage;
  const std::vector<std::string> lines = collector->lines();
  // Arrival order fixes the synthesized ids regardless of fleet size —
  // part of the N=1/2/4 byte-identity story.
  EXPECT_NE(find_line_with_id(lines, storage, "job-1"), nullptr);
  EXPECT_NE(find_line_with_id(lines, storage, "job-2"), nullptr);
}

TEST(Router, MalformedClientLineIsAnsweredDirectly) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(1),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{not json"));
  EXPECT_TRUE(router.handle_line("{\"op\": 5}"));
  ASSERT_TRUE(collector->wait_for(2));
  for (const std::string& line : collector->lines()) {
    const api::JsonValue value = api::JsonValue::parse(line);
    EXPECT_NE(value.find("error"), nullptr) << line;
  }
  EXPECT_EQ(router.counters().routed, 0u);
}

TEST(Router, OpFanOutMergesAcksAndAddsRouterSections) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  // cat echoes the op line itself, which doubles as a minimal ack.
  EXPECT_TRUE(router.handle_line("{\"op\": \"stats\"}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue merged =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_EQ(merged.find("op")->as_string(), "stats");
  EXPECT_EQ(merged.find("workers")->as_int(), 2);
  ASSERT_NE(merged.find("router"), nullptr);
  EXPECT_EQ(merged.find("router")->find("routed")->as_int(), 0);
}

TEST(Router, KillWorkerAcksAfterTheRespawnCompletes) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"kill_worker\", \"worker\": 0}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_TRUE(ack.find("respawned")->as_bool());
  // Synchronous contract: by ack time the respawn is counted and the
  // slot is live again — no racing the respawn window.
  EXPECT_EQ(router.counters().respawns, 1u);
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"after\", \"soc\": \"d695\", \"width\": 16}"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<api::JsonValue> storage;
  EXPECT_NE(find_line_with_id(collector->lines(), storage, "after"), nullptr);
}

TEST(Router, KillWorkerOutOfRangeIsAnError) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(1),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"kill_worker\", \"worker\": 7}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue value =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_NE(value.find("error"), nullptr);
}

TEST(Router, RespawnsDeadWorkerAndReplaysInFlightJobs) {
  // First incarnation: consume one line and die without answering (a
  // crash with a job in flight). The flag file makes every respawn an
  // honest echo worker, so the replay completes.
  const std::string flag =
      ::testing::TempDir() + "router_respawn_flag_" +
      std::to_string(::getpid());
  std::remove(flag.c_str());
  const std::string script = "if [ ! -e '" + flag +
                             "' ]; then : > '" + flag +
                             "'; IFS= read -r line; exit 0; "
                             "else exec /bin/cat; fi";
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local({"/bin/sh", "-c", script}));
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"survivor\", \"soc\": \"d695\", \"width\": 24}"));
  // The crash eats the job; the respawned cat echoes the replayed line.
  ASSERT_TRUE(collector->wait_for(1));
  std::vector<api::JsonValue> storage;
  const api::JsonValue* response =
      find_line_with_id(collector->lines(), storage, "survivor");
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->find("width")->as_int(), 24);
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.respawns, 1u);
  EXPECT_EQ(counters.replayed, 1u);
  std::remove(flag.c_str());
}

TEST(Router, ShedsWhenTheTargetWorkerIsAtItsQueueLimit) {
  // The worker holds the first job until a second line arrives, giving
  // a deterministic window in which the queue sits at its limit — no
  // timing assumptions.
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local(
      {"/bin/sh", "-c",
       "IFS= read -r a; IFS= read -r b; "
       "printf '%s\\n' \"$a\" \"$b\"; exec /bin/cat"}));
  options.queue_limit = 1;
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"held\", \"soc\": \"d695\", \"width\": 16}"));
  // Worker 0 now has one job in flight; the limit is 1 → shed.
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"refused\", \"soc\": \"d695\", \"width\": 17}"));
  ASSERT_TRUE(collector->wait_for(1));
  std::vector<api::JsonValue> storage;
  const api::JsonValue* shed =
      find_line_with_id(collector->lines(), storage, "refused");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->find("status")->as_string(), "overloaded");
  EXPECT_NE(shed->find("error"), nullptr);
  // The op broadcast is the worker's second line: it releases the held
  // job and acks the stats, whose router section shows the shed.
  EXPECT_TRUE(router.handle_line("{\"op\": \"stats\"}"));
  ASSERT_TRUE(collector->wait_for(3));
  storage.clear();
  const api::JsonValue* released =
      find_line_with_id(collector->lines(), storage, "held");
  ASSERT_NE(released, nullptr);
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, 1u);
  EXPECT_EQ(counters.shed, 1u);
  bool saw_stats = false;
  for (const std::string& line : collector->lines()) {
    const api::JsonValue value = api::JsonValue::parse(line);
    const api::JsonValue* router_section = value.find("router");
    if (router_section == nullptr) continue;
    saw_stats = true;
    EXPECT_EQ(router_section->find("shed")->as_int(), 1);
  }
  EXPECT_TRUE(saw_stats);
}

TEST(Router, ShutdownFansOutMergesAndStopsTheFleet) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_FALSE(router.handle_line("{\"op\": \"shutdown\"}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().back());
  EXPECT_EQ(ack.find("op")->as_string(), "shutdown");
  EXPECT_EQ(ack.find("workers")->as_int(), 2);
  // Idempotent: a second shutdown (or the EOF path) is a no-op.
  EXPECT_FALSE(router.handle_line("{\"op\": \"shutdown\"}"));
  router.shutdown();
}

TEST(Router, EmptyFleetIsRejected) {
  EXPECT_THROW(Router(RouterOptions{}, [](const std::string&) {}),
               std::invalid_argument);
}

TEST(Router, MissingWorkerBinaryFailsTheBoot) {
  RouterOptions options;
  options.workers.push_back(
      WorkerSpec::local({"/nonexistent/worker/binary/hopefully"}));
  EXPECT_THROW(Router(std::move(options), [](const std::string&) {}),
               std::runtime_error);
}

TEST(Router, PingIsAnsweredByTheRouterItselfAndEchoesSeq) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"ping\", \"seq\": 41}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_EQ(ack.find("op")->as_string(), "ping");
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_EQ(ack.find("seq")->as_int(), 41);
  EXPECT_EQ(ack.find("workers")->as_int(), 2);
  // cat workers never saw a line: the router answers pings itself, so a
  // busy fleet cannot make the router look dead.
  EXPECT_EQ(router.counters().routed, 0u);
}

TEST(Router, HealthThreadSeversAWorkerThatNeverPongs) {
  // cat echoes the ping line verbatim — which IS a valid pong (op ping,
  // seq echoed), so a healthy cat worker survives the health thread.
  // A worker that swallows input (sh reading forever without printing)
  // misses its deadline, is severed, and comes back as a cat.
  const std::string flag =
      ::testing::TempDir() + "router_health_flag_" +
      std::to_string(::getpid());
  std::remove(flag.c_str());
  const std::string script = "if [ ! -e '" + flag + "' ]; then : > '" +
                             flag +
                             "'; while IFS= read -r line; do :; done; "
                             "else exec /bin/cat; fi";
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local({"/bin/sh", "-c", script}));
  options.workers.push_back(WorkerSpec::local(cat_worker()));
  options.ping_interval = std::chrono::milliseconds(50);
  options.ping_deadline = std::chrono::milliseconds(200);
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  // Wait (bounded) for the health thread to sever the mute worker and
  // for its replacement to boot. The respawn happens on the reader
  // thread after the sever lands, so poll for both counters.
  bool recovered = false;
  for (int i = 0; i < 2000 && !recovered; ++i) {
    const RouterCounters snap = router.counters();
    recovered = snap.health_severed >= 1 && snap.respawns >= 1;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(router.counters().pings, 1u);
  // The fleet still works end to end after the sever+respawn.
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"after-sever\", \"soc\": \"d695\", \"width\": 16}"));
  std::vector<api::JsonValue> storage;
  bool answered = false;
  for (int i = 0; i < 2000 && !answered; ++i) {
    answered = find_line_with_id(collector->lines(), storage,
                                 "after-sever") != nullptr;
    storage.clear();
    if (!answered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(answered);
  std::remove(flag.c_str());
}

TEST(Router, ResizeWithoutAFleetFactoryIsRefused) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"resize\", \"workers\": 3}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue value =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_NE(value.find("error"), nullptr);
  EXPECT_EQ(router.counters().resizes, 0u);
}

TEST(Router, ResizeRebootsTheFleetAtTheNewSize) {
  RouterOptions options;
  options.workers = {WorkerSpec::local(cat_worker()),
                     WorkerSpec::local(cat_worker())};
  options.fleet_factory = [](std::size_t count) {
    std::vector<WorkerSpec> specs;
    for (std::size_t i = 0; i < count; ++i)
      specs.push_back(WorkerSpec::local(cat_worker()));
    return specs;
  };
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"resize\", \"workers\": 3}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().front());
  ASSERT_EQ(ack.find("op")->as_string(), "resize") << collector->lines().front();
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_EQ(ack.find("workers")->as_int(), 3);
  EXPECT_EQ(router.workers(), 3);
  EXPECT_EQ(router.counters().resizes, 1u);
  // The rebooted fleet routes jobs as before.
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"post-resize\", \"soc\": \"d695\", \"width\": 20}"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<api::JsonValue> storage;
  EXPECT_NE(find_line_with_id(collector->lines(), storage, "post-resize"),
            nullptr);
}

// A worker frame past common::kMaxLineBytes is skipped the same way on
// both links: the next frame arrives, then EOF.
TEST(WorkerLink, OversizedWorkerFrameIsSkippedOnPipeAndSocket) {
  const std::size_t oversized = common::kMaxLineBytes + 1;

  const std::unique_ptr<WorkerLink> pipe = make_worker_link(WorkerSpec::local(
      {"/bin/sh", "-c",
       "head -c " + std::to_string(oversized) +
           " /dev/zero | tr '\\0' x; echo; echo after"}));
  EXPECT_EQ(pipe->read_line(), std::optional<std::string>("after"));
  EXPECT_EQ(pipe->read_line(), std::nullopt);
  pipe->finish();

  net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
  std::thread worker([&listener, oversized] {
    const std::unique_ptr<net::Connection> client = listener.accept();
    if (!client) return;
    EXPECT_TRUE(client->write_line(std::string(oversized, 'x')));
    EXPECT_TRUE(client->write_line("after"));
  });  // the Connection's destructor hangs up: the link sees EOF
  const std::unique_ptr<WorkerLink> socket = make_worker_link(
      WorkerSpec::connect(listener.local_endpoint().to_string()));
  EXPECT_EQ(socket->read_line(), std::optional<std::string>("after"));
  EXPECT_EQ(socket->read_line(), std::nullopt);
  worker.join();
}

}  // namespace
}  // namespace wtam::serve
