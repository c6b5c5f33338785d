// rumor_serve end-to-end: protocol grammar, in-process daemon over a Unix
// socket (SUBMIT validation, RESULTS streaming byte-identical to one-shot
// runs, STATUS/STATS, CANCEL, per-client BUSY backpressure, two-client
// fair-share forward progress), and the resume contract — abandon() (the
// simulated SIGKILL) at an arbitrary point, restart on the same journal,
// and the collected CSV rows equal a one-shot run byte for byte, even
// after hand-tearing the journal tail.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace rumor::serve {
namespace {

namespace fs = std::filesystem;

// ---- Protocol grammar (pure parsing, no daemon) ------------------------

TEST(ServeProtocol, AddressGrammarRoundTrips) {
  std::string error;
  const auto unix_addr = parse_address("unix:/tmp/x.sock", &error);
  ASSERT_TRUE(unix_addr) << error;
  EXPECT_EQ(unix_addr->kind, Address::Kind::unix_socket);
  EXPECT_EQ(unix_addr->path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr->text(), "unix:/tmp/x.sock");

  const auto host_port = parse_address("10.0.0.5:9000", &error);
  ASSERT_TRUE(host_port) << error;
  EXPECT_EQ(host_port->kind, Address::Kind::tcp);
  EXPECT_EQ(host_port->host, "10.0.0.5");
  EXPECT_EQ(host_port->port, 9000);

  const auto bare_port = parse_address("8123", &error);
  ASSERT_TRUE(bare_port) << error;
  EXPECT_EQ(bare_port->host, "127.0.0.1");
  EXPECT_EQ(bare_port->port, 8123);

  EXPECT_FALSE(parse_address("", &error));
  EXPECT_FALSE(parse_address("unix:", &error));
  EXPECT_FALSE(parse_address("host:notaport", &error));
  EXPECT_FALSE(parse_address("1.2.3.4:99999", &error));
}

TEST(ServeProtocol, RequestGrammarAcceptsTheVerbSetAndRejectsJunk) {
  std::string error;
  const auto hello = parse_request("HELLO alice", &error);
  ASSERT_TRUE(hello) << error;
  EXPECT_EQ(hello->kind, Request::Kind::hello);
  EXPECT_EQ(hello->name, "alice");

  const auto submit = parse_request("SUBMIT 3", &error);
  ASSERT_TRUE(submit) << error;
  EXPECT_EQ(submit->kind, Request::Kind::submit);
  EXPECT_EQ(submit->lines, 3u);

  const auto status = parse_request("STATUS 17", &error);
  ASSERT_TRUE(status) << error;
  EXPECT_EQ(status->job, 17u);
  EXPECT_TRUE(parse_request("CANCEL 1", &error));
  EXPECT_TRUE(parse_request("RESULTS 1", &error));
  EXPECT_TRUE(parse_request("STATS", &error));
  EXPECT_TRUE(parse_request("QUIT", &error));

  EXPECT_FALSE(parse_request("", &error));
  EXPECT_FALSE(parse_request("FROBNICATE 1", &error));
  EXPECT_FALSE(parse_request("STATUS 0", &error));       // job ids start at 1
  EXPECT_FALSE(parse_request("STATUS banana", &error));
  EXPECT_FALSE(parse_request("SUBMIT 0", &error));
  EXPECT_FALSE(parse_request("SUBMIT 999999", &error));  // > kMaxSubmitLines
}

TEST(ServeProtocol, SanitizeCollapsesFramingBytes) {
  EXPECT_EQ(sanitize_reply_text("  line one\r\nline two \n"),
            "line one  line two");
}

// ---- In-process daemon fixture -----------------------------------------

// Reference rows: the one-shot runner over the same scenario text. The
// serve path must reproduce these bytes exactly.
std::vector<std::string> one_shot_rows(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  EXPECT_TRUE(specs) << error;
  const auto results = run_scenarios(*specs, &error);
  EXPECT_TRUE(results) << error;
  std::vector<std::string> rows;
  if (results) {
    for (const ScenarioResult& r : *results) {
      rows.push_back(scenario_csv_line(r));
    }
  }
  return rows;
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rumor_serve_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    journal_ = (dir_ / "serve.journal").string();
    sock_ = (dir_ / "s").string();
  }
  void TearDown() override {
    stop_server(/*graceful=*/true);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] Address address() const {
    Address addr;
    addr.kind = Address::Kind::unix_socket;
    addr.path = sock_;
    return addr;
  }

  void start_server(std::size_t workers = 2,
                    std::size_t budget = std::size_t{1} << 16) {
    ASSERT_EQ(server_, nullptr) << "server already running";
    server_ = std::make_unique<Server>();
    stop_.store(false);
    ServerOptions options;
    options.listen = {address()};
    options.journal_path = journal_;
    options.workers = workers;
    options.client_budget = budget;
    std::string error;
    ASSERT_TRUE(server_->start(options, &error)) << error;
    run_thread_ = std::thread([this] { server_->run(stop_); });
  }

  // graceful=true drains + checkpoints (SIGTERM); false is abandon(), the
  // simulated SIGKILL — pending events are dropped on the floor.
  void stop_server(bool graceful) {
    if (server_ == nullptr) return;
    if (graceful) {
      stop_.store(true);
    } else {
      server_->abandon();
    }
    if (run_thread_.joinable()) run_thread_.join();
    server_.reset();
  }

  void connect(Client& client, const std::string& name = "tester") {
    std::string error;
    ASSERT_TRUE(client.connect(address(), name, &error)) << error;
  }

  std::uint64_t submit(Client& client, const std::string& text) {
    std::string error;
    const auto job = client.submit(text, &error);
    EXPECT_TRUE(job) << error;
    return job.value_or(0);
  }

  // Parses the "QUEUE total=... batches=a/b" line out of STATS.
  struct QueueStats {
    std::size_t total = 0, claimed = 0, done = 0, in_flight = 0, queued = 0;
    std::size_t batches_done = 0, batches_total = 0;
  };
  QueueStats queue_stats(Client& client) {
    std::string error;
    const auto lines = client.stats(&error);
    EXPECT_TRUE(lines) << error;
    QueueStats q;
    if (lines) {
      for (const std::string& line : *lines) {
        if (std::sscanf(line.c_str(),
                        "QUEUE total=%zu claimed=%zu done=%zu in_flight=%zu "
                        "queued=%zu batches=%zu/%zu",
                        &q.total, &q.claimed, &q.done, &q.in_flight,
                        &q.queued, &q.batches_done, &q.batches_total) == 7) {
          return q;
        }
      }
      ADD_FAILURE() << "no QUEUE line in STATS reply";
    }
    return q;
  }

  // Parses "trials=<done>/<total>" out of a STATUS reply.
  static std::pair<std::size_t, std::size_t> status_trials(
      const std::string& status) {
    std::size_t done = 0, total = 0;
    const auto pos = status.find("trials=");
    if (pos != std::string::npos) {
      std::sscanf(status.c_str() + pos, "trials=%zu/%zu", &done, &total);
    }
    return {done, total};
  }

  // Polls STATUS until at least min_done trials completed (or the job
  // drained). Time-robust: no fixed sleep guessing at trial speed.
  std::size_t wait_for_trials(Client& client, std::uint64_t job,
                              std::size_t min_done) {
    std::string error;
    for (;;) {
      const auto status = client.status(job, &error);
      if (!status) {
        ADD_FAILURE() << error;
        return 0;
      }
      const auto [done, total] = status_trials(*status);
      if (done >= min_done || (total != 0 && done >= total)) return done;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  fs::path dir_;
  std::string journal_;
  std::string sock_;
  std::unique_ptr<Server> server_;
  std::atomic<bool> stop_{false};
  std::thread run_thread_;
};

// Small-but-real scenario set: three graph modes (fixed eager, lazy
// deterministic, and a sweep line) — 15 trials total, sub-second.
constexpr const char* kSmallText =
    "complete(n=256) push trials=6\n"
    "grid(rows=16,cols=16) push-pull trials=5\n"
    "cycle(n={64,128}) push trials=2 label=ring\n";

TEST_F(ServeServerTest, SubmitAndWatchReproduceOneShotRowsByteForByte) {
  start_server();
  Client client;
  connect(client);
  const std::uint64_t job = submit(client, kSmallText);
  ASSERT_EQ(job, 1u);
  std::string error;
  std::size_t trial_lines = 0;
  const auto result = client.watch(
      job, &error, [&](const TrialUpdate&) { ++trial_lines; });
  ASSERT_TRUE(result) << error;
  EXPECT_EQ(result->state, "done");
  EXPECT_EQ(trial_lines, 15u);  // 6 + 5 + 2 + 2
  EXPECT_EQ(result->rows, one_shot_rows(kSmallText));

  // Watching the finished job again re-streams the identical rows.
  const auto again = client.watch(job, &error);
  ASSERT_TRUE(again) << error;
  EXPECT_EQ(again->rows, result->rows);
  EXPECT_EQ(again->state, "done");

  // STATUS and the drained counters agree: claimed == done == total and
  // every batch retired.
  const auto status = client.status(job, &error);
  ASSERT_TRUE(status) << error;
  EXPECT_NE(status->find("state=done"), std::string::npos);
  EXPECT_NE(status->find("trials=15/15"), std::string::npos);
  const QueueStats q = queue_stats(client);
  EXPECT_EQ(q.total, 15u);
  EXPECT_EQ(q.claimed, 15u);
  EXPECT_EQ(q.done, 15u);
  EXPECT_EQ(q.in_flight, 0u);
  EXPECT_EQ(q.queued, 0u);
  EXPECT_EQ(q.batches_done, q.batches_total);
  EXPECT_EQ(q.batches_total, 4u);
}

TEST_F(ServeServerTest, InvalidSubmissionsAreRejectedWithNothingEnqueued) {
  start_server();
  Client client;
  connect(client);
  std::string error;
  // Unparsable line.
  EXPECT_FALSE(client.submit("not-a-graph push trials=2\n", &error));
  EXPECT_EQ(error.rfind("ERR parse", 0), 0u) << error;
  // Parseable but invalid (source outside the graph).
  EXPECT_FALSE(
      client.submit("complete(n=64) push source=99 trials=2\n", &error));
  EXPECT_EQ(error.rfind("ERR validate", 0), 0u) << error;
  // More agents than 32-bit agent ids: agents= fails to parse, alpha
  // fails validation against n.
  EXPECT_FALSE(client.submit(
      "cycle(n=8) visit-exchange(agents=4294967296) trials=2\n", &error));
  EXPECT_EQ(error.rfind("ERR parse", 0), 0u) << error;
  EXPECT_FALSE(client.submit(
      "cycle(n=8) visit-exchange(alpha=1e9) trials=2\n", &error));
  EXPECT_EQ(error.rfind("ERR validate", 0), 0u) << error;
  EXPECT_NE(error.find("agents"), std::string::npos) << error;
  // churn=1 would trip the simulator's churn < 1 precondition and abort the
  // daemon (and every restart replaying the journal); it fails to parse.
  EXPECT_FALSE(client.submit(
      "cycle(n=8) dynamic-agent(churn=1) trials=2\n", &error));
  EXPECT_EQ(error.rfind("ERR parse", 0), 0u) << error;
  // Curve tracing is a one-shot-only feature (curves are not journaled);
  // the reply names the key to drop.
  EXPECT_FALSE(
      client.submit("complete(n=64) push(curve=on) trials=2\n", &error));
  EXPECT_EQ(error.rfind("ERR validate", 0), 0u) << error;
  EXPECT_NE(error.find("drop curve=on"), std::string::npos) << error;
  // Random families with impossible parameters used to abort the daemon
  // (n*d odd, d outside [1, n)) or spin it forever (no connected draw);
  // each is now a typed validation error.
  for (const char* line :
       {"random_regular(n=5,d=3) push trials=2\n",
        "random_regular(n=4,d=4) push trials=2\n",
        "random_regular(n=10,d=0) push trials=2\n",
        "random_regular(n=10,d=1) push trials=2\n",
        "erdos_renyi(n=1000,p=0.000001) push trials=2\n"}) {
    EXPECT_FALSE(client.submit(line, &error)) << line;
    EXPECT_EQ(error.rfind("ERR validate", 0), 0u) << line << ": " << error;
  }
  // expect claim lines need a verdict channel, which serve does not have.
  EXPECT_FALSE(client.submit(
      "complete(n=64) push trials=2 label=p\nexpect mean(p) < 100\n",
      &error));
  EXPECT_EQ(error.rfind("ERR parse", 0), 0u) << error;
  EXPECT_NE(error.find("expect"), std::string::npos) << error;
  // A bad line ANYWHERE in the submission rejects the whole job.
  EXPECT_FALSE(client.submit(
      "complete(n=64) push trials=2\nbroken line here\n", &error));
  // Nothing was enqueued or journaled by any of the rejects: the queue is
  // empty and the next valid job still gets id 1.
  const QueueStats q = queue_stats(client);
  EXPECT_EQ(q.total, 0u);
  EXPECT_EQ(submit(client, "complete(n=64) push trials=2\n"), 1u);
}

TEST_F(ServeServerTest, PerClientBudgetRejectsWithBusyUntilSlotsFree) {
  // 1 worker + a genuinely slow job (visit-exchange on a long cycle runs
  // ~250ms per trial) keeps trials pending long enough to observe BUSY
  // deterministically — star push trials retire in ~1ms and race the check.
  start_server(/*workers=*/1, /*budget=*/4);
  Client client;
  connect(client, "alice");
  std::string error;
  // A submission larger than the whole budget can never be accepted.
  EXPECT_FALSE(
      client.submit("cycle(n=4096) visit-exchange trials=6\n", &error));
  EXPECT_EQ(error.rfind("busy:", 0), 0u) << error;
  // Fill the budget exactly.
  const std::uint64_t job =
      submit(client, "cycle(n=4096) visit-exchange trials=4\n");
  ASSERT_NE(job, 0u);
  // A second job now exceeds it...
  EXPECT_FALSE(
      client.submit("complete(n=64) push trials=2\n", &error));
  EXPECT_EQ(error.rfind("busy:", 0), 0u) << error;
  // ...but another client's budget is untouched (per-client shares).
  Client other;
  connect(other, "bob");
  EXPECT_NE(submit(other, "complete(n=64) push trials=2\n"), 0u);
  // Cancelling frees alice's queued slots and SUBMIT works again.
  ASSERT_TRUE(client.cancel(job, &error)) << error;
  const auto retry = client.submit("complete(n=64) push trials=2\n", &error);
  EXPECT_TRUE(retry) << error;
}

TEST_F(ServeServerTest, CancelStopsAJobAndReportsItsState) {
  start_server(/*workers=*/1);
  Client client;
  connect(client);
  const std::uint64_t job =
      submit(client, "cycle(n=4096) visit-exchange trials=40\n");
  std::string error;
  ASSERT_TRUE(client.cancel(job, &error)) << error;
  const auto status = client.status(job, &error);
  ASSERT_TRUE(status) << error;
  EXPECT_NE(status->find("state=cancelled"), std::string::npos);
  // Cancelling twice is an error, not a crash.
  EXPECT_FALSE(client.cancel(job, &error));
  EXPECT_NE(error.find("already cancelled"), std::string::npos);
  // RESULTS on a cancelled job terminates immediately.
  const auto watched = client.watch(job, &error);
  ASSERT_TRUE(watched) << error;
  EXPECT_EQ(watched->state, "cancelled");
  // Unknown jobs are typed errors.
  EXPECT_FALSE(client.status(99, &error));
  EXPECT_EQ(error.rfind("ERR nojob", 0), 0u) << error;
}

TEST_F(ServeServerTest, TwoClientsShareOneWorkerWithoutStarvation) {
  start_server(/*workers=*/1);
  Client alice;
  connect(alice, "alice");
  Client bob;
  connect(bob, "bob");
  // alice floods 40 slow trials (~17ms each); bob follows with 4 fast
  // ones. Round-robin claims mean bob's job finishes while alice still
  // has a deep queue — the no-starvation acceptance criterion.
  const std::uint64_t big =
      submit(alice, "cycle(n=1024) visit-exchange trials=40\n");
  const std::uint64_t small =
      submit(bob, "complete(n=256) push trials=4\n");
  std::string error;
  const auto bob_result = bob.watch(small, &error);
  ASSERT_TRUE(bob_result) << error;
  EXPECT_EQ(bob_result->state, "done");
  const auto alice_status = alice.status(big, &error);
  ASSERT_TRUE(alice_status) << error;
  // bob finished after ~8 interleaved claims; alice's 40-trial job must
  // still be running (>30 trials, ~half a second of work, left then).
  EXPECT_NE(alice_status->find("state=running"), std::string::npos)
      << *alice_status;
  ASSERT_TRUE(alice.cancel(big, &error)) << error;  // don't wait out the rest
}

// The resume contract, end to end: kill the server (no checkpoint, no
// event drain) mid-sweep, restart on the same journal, and the job
// completes with rows byte-identical to a never-killed one-shot run.
TEST_F(ServeServerTest, KillAndRestartResumeByteIdenticalRows) {
  // Slow scenario (~60ms/trial) so the kill below genuinely lands
  // mid-sweep: the first journaled trial is observed, then the plug is
  // pulled with ~15 trials (~0.5s of work) still outstanding.
  const std::string text =
      "cycle(n=2048) visit-exchange trials=6\n"
      "grid(rows=32,cols=32) push-pull trials=10\n";
  start_server();
  {
    Client client;
    connect(client);
    ASSERT_EQ(submit(client, text), 1u);
    wait_for_trials(client, 1, 1);
  }
  stop_server(/*graceful=*/false);

  start_server();
  Client client;
  connect(client);
  std::string error;
  const auto result = client.watch(1, &error);
  ASSERT_TRUE(result) << error;
  EXPECT_EQ(result->state, "done");
  EXPECT_EQ(result->rows, one_shot_rows(text));

  // Survives a graceful restart too: the finished job is re-streamable
  // from the checkpointed journal alone.
  stop_server(/*graceful=*/true);
  start_server();
  Client again;
  connect(again);
  const auto replayed = again.watch(1, &error);
  ASSERT_TRUE(replayed) << error;
  EXPECT_EQ(replayed->state, "done");
  EXPECT_EQ(replayed->rows, result->rows);
}

// Kill at a random point AND tear the journal's tail (the torn-write
// SIGKILL case): replay drops the damaged record, the lost trials re-run,
// and the rows still match byte for byte.
TEST_F(ServeServerTest, ResumeSurvivesATornJournalTail) {
  const std::string text = "grid(rows=32,cols=32) push-pull trials=12\n";
  start_server();
  {
    Client client;
    connect(client);
    ASSERT_EQ(submit(client, text), 1u);
    // Wait for every trial record, then kill without checkpointing: the
    // tear below damages exactly the last TRIAL record, so resume must
    // re-run exactly that one trial.
    wait_for_trials(client, 1, 12);
  }
  stop_server(/*graceful=*/false);

  std::error_code ec;
  const auto size = fs::file_size(journal_, ec);
  ASSERT_FALSE(ec);
  // Header (16) + job record (~100) + at least one trial record: the tear
  // below must land inside a TRIAL record, never the job record.
  ASSERT_GT(size, 160u);
  fs::resize_file(journal_, size - 7, ec);  // tear mid-record
  ASSERT_FALSE(ec);

  start_server();
  Client client;
  connect(client);
  std::string error;
  const auto result = client.watch(1, &error);
  ASSERT_TRUE(result) << error;
  EXPECT_EQ(result->state, "done");
  EXPECT_EQ(result->rows, one_shot_rows(text));
}

}  // namespace
}  // namespace rumor::serve
