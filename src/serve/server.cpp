#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "serve/fairshare.hpp"
#include "serve/journal.hpp"

namespace rumor::serve {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// A watcher that never reads must not let the server buffer its stream
// forever; past this the connection is dropped.
constexpr std::size_t kMaxConnBuffer = 64u << 20;

// Per-trial completion state: pending, done-complete, done-at-cutoff.
enum : unsigned char { kPending = 0, kDone = 1, kDoneIncomplete = 2 };

}  // namespace

struct Server::Impl {
  // ---- job state (owned by the I/O thread; map guarded for workers) ----

  struct ScenarioState {
    ScenarioResult result;
    PreparedScenario prep;
    TrialBatch batch;
    LazyGraphSlot lazy;
    std::vector<unsigned char> trial_done;
    std::size_t done_count = 0;
    std::size_t incomplete_count = 0;
    // Whether this scenario's pending work was added to the live queue
    // counters (resume skips fully journaled scenarios).
    bool counted = false;
    [[nodiscard]] bool drained() const { return done_count == batch.trials; }
  };

  struct Job {
    std::uint64_t id = 0;
    std::string client;
    std::vector<std::string> lines;  // canonical expanded scenario lines
    std::vector<std::unique_ptr<ScenarioState>> scenarios;
    enum class State : std::uint8_t { running, done, cancelled, failed };
    State state = State::running;
    std::string failure;
    std::size_t next_row = 0;        // scenario rows emitted, in order
    std::vector<std::string> rows;   // emitted CSV rows (re-streamed)
    std::size_t trials_total = 0;
    std::size_t trials_done = 0;     // includes journal-replayed trials
    // After cancel/failure: in-flight trials still owed an event; the
    // job's lazy graphs are released only when this reaches zero (a
    // worker may hold a reference into them until then).
    std::size_t terminal_inflight = 0;
    std::vector<int> watchers;       // conn fds subscribed via RESULTS
  };

  struct TrialEvent {
    std::uint64_t job = 0;
    std::uint32_t scenario = 0;
    std::uint32_t trial = 0;
    double rounds = 0.0;
    double agent_rounds = 0.0;
    double informed = 0.0;
    bool completed = true;
    bool failed = false;
    std::string error;
  };

  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::string client;
    std::size_t submit_remaining = 0;
    std::string submit_text;
    bool closing = false;  // flush remaining output, then close
  };

  ServerOptions options_;
  Journal journal_;
  std::unique_ptr<FairShareQueue> queue_;
  TrialCounters counters_;
  std::vector<int> listen_fds_;
  std::vector<Address> bound_;
  std::vector<std::string> unix_paths_;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::vector<std::thread> workers_;
  std::mutex events_mutex_;
  std::vector<TrialEvent> events_;
  std::mutex jobs_mutex_;  // insert (I/O thread) vs lookup (workers)
  std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::vector<std::uint64_t> job_order_;  // acceptance order, for STATS
  std::uint64_t next_job_id_ = 1;
  std::unordered_map<int, Conn> conns_;
  bool started_ = false;
  // abandon() support: the poll loop exits without graceful teardown when
  // this flips; loop_active_ tracks whether run() currently owns the state
  // (teardown must then happen on the run thread, not the caller's).
  std::atomic<bool> abandon_{false};
  std::atomic<bool> loop_active_{false};
  std::mutex teardown_mutex_;
  bool torn_down_ = false;

  ~Impl() { teardown(/*checkpoint=*/false, /*drain_events=*/false); }

  // ---- lifecycle -------------------------------------------------------

  bool bind_listener(const Address& addr, std::string* error) {
    int fd = -1;
    if (addr.kind == Address::Kind::unix_socket) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        set_error(error, "socket(AF_UNIX): " + std::string(strerror(errno)));
        return false;
      }
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
      // A SIGKILL'd predecessor leaves its socket file behind; the journal
      // (not the socket) is the durable state, so rebinding wins.
      ::unlink(addr.path.c_str());
      if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
        set_error(error, addr.path + ": bind: " + strerror(errno));
        ::close(fd);
        return false;
      }
      unix_paths_.push_back(addr.path);
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        set_error(error, "socket(AF_INET): " + std::string(strerror(errno)));
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_port = htons(addr.port);
      if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
        set_error(error, addr.host + ": not a numeric IPv4 address");
        ::close(fd);
        return false;
      }
      if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
        set_error(error, addr.text() + ": bind: " + strerror(errno));
        ::close(fd);
        return false;
      }
    }
    if (::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
      set_error(error, addr.text() + ": listen: " + strerror(errno));
      ::close(fd);
      return false;
    }
    Address resolved = addr;
    if (addr.kind == Address::Kind::tcp && addr.port == 0) {
      sockaddr_in sa{};
      socklen_t len = sizeof(sa);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
        resolved.port = ntohs(sa.sin_port);
      }
    }
    listen_fds_.push_back(fd);
    bound_.push_back(resolved);
    return true;
  }

  bool start(const ServerOptions& options, std::string* error) {
    options_ = options;
    if (options_.listen.empty()) {
      set_error(error, "no listen address (need --serve=<addr>)");
      return false;
    }
    if (options_.workers == 0) {
      options_.workers = std::max(1u, std::thread::hardware_concurrency());
    }
    queue_ = std::make_unique<FairShareQueue>(options_.client_budget);
    for (const Address& addr : options_.listen) {
      if (!bind_listener(addr, error)) return false;
    }
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      set_error(error, "pipe: " + std::string(strerror(errno)));
      return false;
    }
    wake_read_ = pipe_fds[0];
    wake_write_ = pipe_fds[1];
    set_nonblocking(wake_read_);
    set_nonblocking(wake_write_);

    JournalState replayed;
    if (!journal_.open(options_.journal_path, &replayed, error)) return false;
    if (!replayed.clean) {
      std::fprintf(stderr, "rumor_serve: journal recovered: %s\n",
                   replayed.warning.c_str());
    }
    next_job_id_ = replayed.next_job_id;
    for (const JournalJob& job : replayed.jobs) resume_job(job);
    // Compact what we just replayed: drops cancelled jobs' trials and any
    // recovered-over tail, and proves the journal is writable.
    if (!journal_.checkpoint(snapshot_journal(), error)) return false;

    workers_.reserve(options_.workers);
    for (std::size_t w = 0; w < options_.workers; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    started_ = true;
    return true;
  }

  // ---- compute plane ---------------------------------------------------

  void wake() {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_write_, &byte, 1);
  }

  void worker_loop() {
    while (auto claim = queue_->wait_claim()) {
      counters_.on_claim();
      ScenarioState* s = nullptr;
      {
        std::lock_guard lock(jobs_mutex_);
        s = jobs_.at(claim->job)->scenarios[claim->scenario].get();
      }
      TrialEvent ev;
      ev.job = claim->job;
      ev.scenario = claim->scenario;
      ev.trial = claim->trial;
      try {
        ev.completed = run_batch_trial(
            s->batch, claim->trial,
            s->batch.lazy_spec != nullptr ? &s->lazy : nullptr);
        ev.rounds = s->result.set.rounds[claim->trial];
        ev.agent_rounds = s->result.set.agent_rounds[claim->trial];
        ev.informed = s->result.set.informed[claim->trial];
      } catch (const std::exception& e) {
        ev.failed = true;
        ev.error = e.what();
      } catch (...) {
        ev.failed = true;
        ev.error = "unknown exception";
      }
      queue_->complete(*claim);
      counters_.on_trial_done();
      {
        std::lock_guard lock(events_mutex_);
        events_.push_back(std::move(ev));
      }
      wake();
    }
  }

  // ---- job construction (submit + resume) ------------------------------

  // Moves scenario i of a prepared job into its own state. Each state
  // keeps its own lazy slot: serve does not share builds within a job.
  static std::unique_ptr<ScenarioState> scenario_state(PreparedRun& run,
                                                       std::size_t i) {
    auto s = std::make_unique<ScenarioState>();
    s->result = std::move(run.results[i]);
    s->prep = std::move(run.prepared[i]);
    return s;
  }

  // Sizes a prepared ScenarioState's batch. Storage under the
  // physical-memory bound validation enforces can still exceed the address
  // space the daemon may use: that throws std::bad_alloc, which the
  // callers turn into an ERR reply or a failed job.
  void init_batch(ScenarioState& s) {
    s.batch = scenario_batch(s.result, s.prep);
    prepare_trial_set(s.batch);
    s.trial_done.assign(s.batch.trials, kPending);
  }

  // Registers a fully built job and enqueues its pending trials. `pending`
  // lists, per scenario, the trial indices still to run.
  void enqueue_job(std::unique_ptr<Job> job,
                   const std::vector<std::vector<std::uint32_t>>& pending) {
    const std::uint64_t id = job->id;
    const std::string client = job->client;
    std::size_t pending_trials = 0;
    std::size_t pending_batches = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].empty()) continue;
      pending_trials += pending[i].size();
      pending_batches += 1;
      job->scenarios[i]->counted = true;
    }
    {
      std::lock_guard lock(jobs_mutex_);
      jobs_.emplace(id, std::move(job));
    }
    job_order_.push_back(id);
    if (pending_trials > 0) {
      counters_.add(pending_trials, pending_batches);
      queue_->add_job(client, id, pending);
    }
  }

  void resume_job(const JournalJob& from) {
    auto job = std::make_unique<Job>();
    job->id = from.id;
    job->client = from.client;
    job->lines = from.lines;
    std::string error;
    std::vector<ScenarioSpec> specs;
    for (const std::string& line : from.lines) {
      auto spec = ScenarioSpec::parse(line, &error);
      if (!spec) break;
      specs.push_back(std::move(*spec));
    }
    std::optional<PreparedRun> run;
    if (specs.size() == from.lines.size()) {
      run = prepare_scenarios(specs, &error);
    }
    if (!run) {
      // A journaled job that no longer validates (e.g. its file: graph
      // vanished) resumes as failed instead of poisoning startup.
      job->state = Job::State::failed;
      job->failure = "resume: " + error;
    }
    for (std::size_t i = 0; run && i < specs.size(); ++i) {
      auto s = scenario_state(*run, i);
      try {
        init_batch(*s);
      } catch (const std::bad_alloc&) {
        job->state = Job::State::failed;
        job->failure = "resume: " + result_storage_error(s->batch.trials);
        break;
      }
      job->trials_total += s->batch.trials;
      job->scenarios.push_back(std::move(s));
    }
    if (job->state != Job::State::failed) {
      // Replay completed trials into their slots; the rest re-run to
      // identical values (seeds are pure functions of (master, index)).
      for (const TrialRecord& rec : from.trials) {
        if (rec.scenario >= job->scenarios.size()) continue;
        ScenarioState& s = *job->scenarios[rec.scenario];
        if (rec.trial >= s.batch.trials ||
            s.trial_done[rec.trial] != kPending) {
          continue;
        }
        s.result.set.rounds[rec.trial] = rec.rounds;
        s.result.set.agent_rounds[rec.trial] = rec.agent_rounds;
        s.result.set.informed[rec.trial] = rec.informed;
        s.trial_done[rec.trial] = rec.completed ? kDone : kDoneIncomplete;
        s.done_count += 1;
        if (!rec.completed) s.incomplete_count += 1;
        job->trials_done += 1;
      }
      if (from.cancelled) {
        job->state = Job::State::cancelled;
      } else if (!from.failure.empty()) {
        job->state = Job::State::failed;
        job->failure = from.failure;
      }
    }
    std::vector<std::vector<std::uint32_t>> pending(job->scenarios.size());
    if (job->state == Job::State::running) {
      for (std::size_t i = 0; i < job->scenarios.size(); ++i) {
        ScenarioState& s = *job->scenarios[i];
        if (s.drained()) {
          finalize_scenario_state(s);
        } else {
          for (std::uint32_t t = 0; t < s.batch.trials; ++t) {
            if (s.trial_done[t] == kPending) pending[i].push_back(t);
          }
        }
      }
      advance_rows(*job);
      if (job->next_row == job->scenarios.size() &&
          !job->scenarios.empty()) {
        job->state = Job::State::done;
      }
    }
    enqueue_job(std::move(job), pending);
  }

  // ---- event processing ------------------------------------------------

  void finalize_scenario_state(ScenarioState& s) {
    s.result.set.incomplete = s.incomplete_count;
    s.lazy.release();
  }

  // Emits (stores + streams) the in-order prefix of completed scenario
  // rows, exactly like the one-shot runner's in-file-order emission.
  void advance_rows(Job& job) {
    while (job.next_row < job.scenarios.size() &&
           job.scenarios[job.next_row]->drained()) {
      const std::string row =
          scenario_csv_line(job.scenarios[job.next_row]->result);
      broadcast(job, "ROW " + std::to_string(job.next_row) + " " + row);
      job.rows.push_back(row);
      job.next_row += 1;
    }
  }

  void broadcast(Job& job, const std::string& line) {
    for (const int fd : job.watchers) {
      const auto it = conns_.find(fd);
      if (it != conns_.end()) send_line(it->second, line);
    }
  }

  void end_watch(Job& job) {
    broadcast(job, end_line(job));
    job.watchers.clear();
  }

  std::string state_name(const Job& job) const {
    switch (job.state) {
      case Job::State::running: return "running";
      case Job::State::done: return "done";
      case Job::State::cancelled: return "cancelled";
      case Job::State::failed: return "failed";
    }
    return "unknown";
  }

  std::string end_line(const Job& job) const {
    std::string line = "END " + std::to_string(job.id) + " " +
                       state_name(job);
    if (job.state == Job::State::failed && !job.failure.empty()) {
      line += " " + sanitize_reply_text(job.failure);
    }
    return line;
  }

  void terminate_job(Job& job, Job::State state, const std::string& why) {
    const std::size_t dropped = queue_->cancel_job(job.id);
    counters_.drop_trials(dropped);
    // Scenarios whose batch will now never drain: retire their counter
    // slots so batches_done == batches_total still holds at drain.
    std::size_t dead_batches = 0;
    for (const auto& s : job.scenarios) {
      if (s->counted && !s->drained()) dead_batches += 1;
    }
    counters_.drop_batches(dead_batches);
    job.state = state;
    job.failure = why;
    job.terminal_inflight =
        job.trials_total - job.trials_done - dropped;
    if (state == Job::State::cancelled) {
      journal_.append_cancel(job.id);
    } else {
      journal_.append_failure(job.id, why);
    }
    if (job.terminal_inflight == 0) release_lazy(job);
    end_watch(job);
  }

  // Lazy graphs may be referenced by in-flight workers; only release once
  // every claimed trial has reported back.
  void release_lazy(Job& job) {
    for (const auto& s : job.scenarios) {
      if (!s->drained()) s->lazy.release();
    }
  }

  void process_events() {
    std::vector<TrialEvent> batch;
    {
      std::lock_guard lock(events_mutex_);
      batch.swap(events_);
    }
    for (const TrialEvent& ev : batch) {
      Job* job_ptr = nullptr;
      {
        std::lock_guard lock(jobs_mutex_);
        const auto it = jobs_.find(ev.job);
        if (it != jobs_.end()) job_ptr = it->second.get();
      }
      if (job_ptr == nullptr) continue;
      Job& job = *job_ptr;
      if (job.state == Job::State::cancelled ||
          job.state == Job::State::failed) {
        // Stale completion of a trial claimed before the cancel landed.
        if (job.terminal_inflight > 0 && --job.terminal_inflight == 0) {
          release_lazy(job);
        }
        continue;
      }
      if (ev.failed) {
        job.trials_done += 1;
        terminate_job(job, Job::State::failed, ev.error);
        continue;
      }
      TrialRecord rec;
      rec.scenario = ev.scenario;
      rec.trial = ev.trial;
      rec.rounds = ev.rounds;
      rec.agent_rounds = ev.agent_rounds;
      rec.informed = ev.informed;
      rec.completed = ev.completed;
      journal_.append_trial(ev.job, rec);
      ScenarioState& s = *job.scenarios[ev.scenario];
      if (s.trial_done[ev.trial] != kPending) continue;  // defensive
      s.trial_done[ev.trial] = ev.completed ? kDone : kDoneIncomplete;
      s.done_count += 1;
      if (!ev.completed) s.incomplete_count += 1;
      job.trials_done += 1;
      broadcast(job, trial_line(ev.scenario, ev.trial, s));
      if (s.drained()) {
        finalize_scenario_state(s);
        if (s.counted) counters_.on_batch_done();
        advance_rows(job);
        if (job.next_row == job.scenarios.size()) {
          job.state = Job::State::done;
          end_watch(job);
        }
      }
    }
  }

  std::string trial_line(std::uint32_t scenario, std::uint32_t trial,
                         const ScenarioState& s) const {
    const TrialSet& set = s.result.set;
    return "TRIAL " + std::to_string(scenario) + " " +
           std::to_string(trial) + " " + fmt_double(set.rounds[trial]) +
           " " + fmt_double(set.agent_rounds[trial]) + " " +
           fmt_double(set.informed[trial]) + " " +
           (s.trial_done[trial] == kDoneIncomplete ? "0" : "1");
  }

  // ---- command handling ------------------------------------------------

  void send_line(Conn& conn, const std::string& line) {
    if (conn.closing) return;
    conn.out += line;
    conn.out += '\n';
    if (conn.out.size() > kMaxConnBuffer) conn.closing = true;
  }

  Job* find_job(std::uint64_t id) {
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
  }

  void handle_submit(Conn& conn) {
    std::string text;
    text.swap(conn.submit_text);
    std::istringstream in(text);
    std::string error;
    // The claim-free form: an `expect` line is an ERR parse here, since
    // serve streams rows and has no verdict channel.
    auto specs = parse_scenario_stream(in, &error);
    if (!specs) {
      send_line(conn, "ERR parse " + sanitize_reply_text(error));
      return;
    }
    if (specs->empty()) {
      send_line(conn, "ERR parse submission contains no scenarios");
      return;
    }
    for (const ScenarioSpec& spec : *specs) {
      if (const TraceOptions* trace = spec.protocol.trace();
          trace != nullptr && trace->informed_curve) {
        send_line(conn, "ERR validate scenario \"" +
                            sanitize_reply_text(spec.name()) +
                            "\": curve tracing is not supported over "
                            "serve (drop curve=on)");
        return;
      }
    }
    auto run = prepare_scenarios(*specs, &error);
    if (!run) {
      send_line(conn, "ERR validate " + sanitize_reply_text(error));
      return;
    }
    auto job = std::make_unique<Job>();
    std::size_t total_trials = 0;
    for (std::size_t i = 0; i < specs->size(); ++i) {
      total_trials += (*specs)[i].plan.trials;
      job->scenarios.push_back(scenario_state(*run, i));
      job->lines.push_back((*specs)[i].name());
    }
    // Backpressure: reject — do not buffer — what the client's budget
    // cannot hold. Checked after validation so the reply names the real
    // problem first.
    if (queue_->would_exceed(conn.client, total_trials)) {
      send_line(conn, "BUSY pending=" +
                          std::to_string(queue_->pending(conn.client)) +
                          " budget=" + std::to_string(queue_->budget()) +
                          " submitted=" + std::to_string(total_trials));
      return;
    }
    std::vector<std::vector<std::uint32_t>> pending(job->scenarios.size());
    for (std::size_t i = 0; i < job->scenarios.size(); ++i) {
      ScenarioState& s = *job->scenarios[i];
      try {
        init_batch(s);
        pending[i].resize(s.batch.trials);
      } catch (const std::bad_alloc&) {
        send_line(conn, "ERR validate scenario \"" +
                            sanitize_reply_text(job->lines[i]) + "\": " +
                            result_storage_error(s.batch.trials));
        return;
      }
      for (std::uint32_t t = 0; t < pending[i].size(); ++t) {
        pending[i][t] = t;
      }
    }
    job->id = next_job_id_++;
    job->client = conn.client;
    job->trials_total = total_trials;
    JournalJob record;
    record.id = job->id;
    record.client = job->client;
    record.lines = job->lines;
    journal_.append_job(record);
    const std::uint64_t id = job->id;
    const std::size_t scenarios = job->scenarios.size();
    enqueue_job(std::move(job), pending);
    send_line(conn, "OK " + std::to_string(id) +
                        " scenarios=" + std::to_string(scenarios) +
                        " trials=" + std::to_string(total_trials));
  }

  void handle_results(Conn& conn, std::uint64_t id) {
    Job* job = find_job(id);
    if (job == nullptr) {
      send_line(conn, "ERR nojob " + std::to_string(id));
      return;
    }
    send_line(conn, "OK " + std::to_string(id) + " streaming");
    // Re-stream everything already complete (a reconnecting client after
    // a server restart sees the same rows it would have live), then
    // subscribe for the rest.
    for (std::uint32_t si = 0; si < job->scenarios.size(); ++si) {
      const ScenarioState& s = *job->scenarios[si];
      for (std::uint32_t t = 0; t < s.trial_done.size(); ++t) {
        if (s.trial_done[t] != kPending) {
          send_line(conn, trial_line(si, t, s));
        }
      }
    }
    for (std::size_t r = 0; r < job->rows.size(); ++r) {
      send_line(conn, "ROW " + std::to_string(r) + " " + job->rows[r]);
    }
    if (job->state != Job::State::running) {
      send_line(conn, end_line(*job));
    } else {
      job->watchers.push_back(conn.fd);
    }
  }

  void handle_status(Conn& conn, std::uint64_t id) {
    Job* job = find_job(id);
    if (job == nullptr) {
      send_line(conn, "ERR nojob " + std::to_string(id));
      return;
    }
    send_line(conn,
              "OK " + std::to_string(id) + " state=" + state_name(*job) +
                  " scenarios=" + std::to_string(job->next_row) + "/" +
                  std::to_string(job->scenarios.size()) +
                  " trials=" + std::to_string(job->trials_done) + "/" +
                  std::to_string(job->trials_total));
  }

  void handle_cancel(Conn& conn, std::uint64_t id) {
    Job* job = find_job(id);
    if (job == nullptr) {
      send_line(conn, "ERR nojob " + std::to_string(id));
      return;
    }
    if (job->state != Job::State::running) {
      send_line(conn, "ERR state job " + std::to_string(id) + " already " +
                          state_name(*job));
      return;
    }
    terminate_job(*job, Job::State::cancelled, "cancelled by " +
                                                   conn.client);
    send_line(conn, "OK " + std::to_string(id) + " cancelled");
  }

  void handle_stats(Conn& conn) {
    const TrialQueueSnapshot q = counters_.snapshot();
    send_line(conn, "OK version=" + std::to_string(kProtocolVersion) +
                        " workers=" + std::to_string(workers_.size()) +
                        " jobs=" + std::to_string(job_order_.size()) +
                        " budget=" + std::to_string(queue_->budget()));
    send_line(conn,
              "QUEUE total=" + std::to_string(q.trials_total) +
                  " claimed=" + std::to_string(q.trials_claimed) +
                  " done=" + std::to_string(q.trials_done) +
                  " in_flight=" + std::to_string(q.in_flight()) +
                  " queued=" + std::to_string(q.queued()) + " batches=" +
                  std::to_string(q.batches_done) + "/" +
                  std::to_string(q.batches_total));
    for (const ClientShare& share : queue_->shares()) {
      send_line(conn, "CLIENT " + share.client +
                          " pending=" + std::to_string(share.pending) +
                          " claimed=" + std::to_string(share.claimed) +
                          " jobs=" + std::to_string(share.jobs));
    }
    send_line(conn, ".");
  }

  void handle_line(Conn& conn, std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (conn.submit_remaining > 0) {
      conn.submit_text += line;
      conn.submit_text += '\n';
      if (--conn.submit_remaining == 0) handle_submit(conn);
      return;
    }
    std::string error;
    const auto req = parse_request(line, &error);
    if (!req) {
      send_line(conn, "ERR proto " + sanitize_reply_text(error));
      return;
    }
    switch (req->kind) {
      case Request::Kind::hello:
        conn.client = req->name;
        send_line(conn, "OK rumor_serve v" +
                            std::to_string(kProtocolVersion));
        break;
      case Request::Kind::submit:
        conn.submit_remaining = req->lines;
        conn.submit_text.clear();
        break;
      case Request::Kind::status:
        handle_status(conn, req->job);
        break;
      case Request::Kind::cancel:
        handle_cancel(conn, req->job);
        break;
      case Request::Kind::results:
        handle_results(conn, req->job);
        break;
      case Request::Kind::stats:
        handle_stats(conn);
        break;
      case Request::Kind::quit:
        send_line(conn, "OK bye");
        conn.closing = true;
        break;
    }
  }

  // ---- poll loop -------------------------------------------------------

  void accept_connections(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      set_nonblocking(fd);
      Conn conn;
      conn.fd = fd;
      conn.client = "anon#" + std::to_string(fd);
      conns_.emplace(fd, std::move(conn));
    }
  }

  void close_conn(int fd) {
    for (auto& [id, job] : jobs_) {
      auto& w = job->watchers;
      w.erase(std::remove(w.begin(), w.end(), fd), w.end());
    }
    ::close(fd);
    conns_.erase(fd);
  }

  // Reads everything available; false = peer hung up or errored.
  bool read_conn(Conn& conn) {
    char buf[4096];
    for (;;) {
      const ssize_t got = ::read(conn.fd, buf, sizeof buf);
      if (got > 0) {
        conn.in.append(buf, static_cast<std::size_t>(got));
        if (conn.in.size() > kMaxConnBuffer) return false;
        continue;
      }
      if (got == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }

  // Flushes buffered output; false = fatal write error. MSG_NOSIGNAL:
  // a watcher that hung up must surface as EPIPE here, not as a SIGPIPE
  // that kills the daemon (or an embedding test binary).
  bool flush_conn(Conn& conn) {
    while (!conn.out.empty()) {
      const ssize_t sent = ::send(conn.fd, conn.out.data(),
                                  conn.out.size(), MSG_NOSIGNAL);
      if (sent > 0) {
        conn.out.erase(0, static_cast<std::size_t>(sent));
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    return true;
  }

  void pump_conn_lines(Conn& conn) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.in.find('\n', start);
      if (nl == std::string::npos) break;
      handle_line(conn, conn.in.substr(start, nl - start));
      start = nl + 1;
    }
    conn.in.erase(0, start);
  }

  void run(const std::atomic<bool>& stop) {
    loop_active_.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_relaxed) &&
           !abandon_.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds;
      fds.push_back({wake_read_, POLLIN, 0});
      for (const int fd : listen_fds_) fds.push_back({fd, POLLIN, 0});
      for (const auto& [fd, conn] : conns_) {
        short events = POLLIN;
        if (!conn.out.empty() || conn.closing) events |= POLLOUT;
        fds.push_back({fd, events, 0});
      }
      // The timeout bounds how late a stop-flag flip is noticed even if
      // no I/O or completion traffic arrives.
      ::poll(fds.data(), fds.size(), 200);
      if (stop.load(std::memory_order_relaxed) ||
          abandon_.load(std::memory_order_relaxed)) {
        break;
      }
      if (fds[0].revents & POLLIN) {
        char drain[256];
        while (::read(wake_read_, drain, sizeof drain) > 0) {
        }
      }
      process_events();
      for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
        if (fds[1 + i].revents & POLLIN) accept_connections(listen_fds_[i]);
      }
      std::vector<int> dead;
      for (std::size_t i = 1 + listen_fds_.size(); i < fds.size(); ++i) {
        const int fd = fds[i].fd;
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Conn& conn = it->second;
        bool alive = true;
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          alive = read_conn(conn);
          if (alive) pump_conn_lines(conn);
        }
        if (alive && (fds[i].revents & POLLOUT || !conn.out.empty())) {
          alive = flush_conn(conn);
        }
        if (!alive || (conn.closing && conn.out.empty())) {
          dead.push_back(fd);
        }
      }
      for (const int fd : dead) close_conn(fd);
    }
    const bool abandoned = abandon_.load(std::memory_order_relaxed);
    teardown(/*checkpoint=*/!abandoned, /*drain_events=*/!abandoned);
    loop_active_.store(false, std::memory_order_release);
  }

  // ---- shutdown --------------------------------------------------------

  JournalState snapshot_journal() {
    JournalState state;
    state.next_job_id = next_job_id_;
    for (const std::uint64_t id : job_order_) {
      const Job& job = *jobs_.at(id);
      JournalJob record;
      record.id = job.id;
      record.client = job.client;
      record.lines = job.lines;
      record.cancelled = job.state == Job::State::cancelled;
      if (job.state == Job::State::failed) {
        record.failure = job.failure.empty() ? "failed" : job.failure;
      }
      for (std::uint32_t si = 0; si < job.scenarios.size(); ++si) {
        const ScenarioState& s = *job.scenarios[si];
        for (std::uint32_t t = 0; t < s.trial_done.size(); ++t) {
          if (s.trial_done[t] == kPending) continue;
          TrialRecord rec;
          rec.scenario = si;
          rec.trial = t;
          rec.rounds = s.result.set.rounds[t];
          rec.agent_rounds = s.result.set.agent_rounds[t];
          rec.informed = s.result.set.informed[t];
          rec.completed = s.trial_done[t] == kDone;
          record.trials.push_back(rec);
        }
      }
      state.jobs.push_back(std::move(record));
    }
    return state;
  }

  void teardown(bool checkpoint, bool drain_events) {
    {
      std::lock_guard lock(teardown_mutex_);
      if (torn_down_) return;
      torn_down_ = true;
    }
    if (queue_) queue_->close();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    workers_.clear();
    if (drain_events) process_events();
    if (checkpoint && journal_.is_open()) {
      std::string error;
      if (!journal_.checkpoint(snapshot_journal(), &error)) {
        std::fprintf(stderr, "rumor_serve: checkpoint failed: %s\n",
                     error.c_str());
      }
    }
    journal_.close();
    for (const auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    for (const int fd : listen_fds_) ::close(fd);
    listen_fds_.clear();
    if (wake_read_ >= 0) ::close(wake_read_);
    if (wake_write_ >= 0) ::close(wake_write_);
    wake_read_ = wake_write_ = -1;
    if (checkpoint) {
      for (const std::string& path : unix_paths_) ::unlink(path.c_str());
    }
    unix_paths_.clear();
    started_ = false;
  }
};

Server::Server() : impl_(std::make_unique<Impl>()) {}
Server::~Server() = default;

bool Server::start(const ServerOptions& options, std::string* error) {
  return impl_->start(options, error);
}

void Server::run(const std::atomic<bool>& stop) {
  if (!impl_->started_) return;
  impl_->run(stop);
}

void Server::abandon() {
  // The simulated SIGKILL: no event drain, no checkpoint, and the unix
  // socket files stay behind exactly as a killed process would leave
  // them (start() unlinks stale ones). When the poll loop is live the
  // teardown must run on ITS thread — we signal and wait for it; the
  // loop notices within one poll timeout.
  impl_->abandon_.store(true, std::memory_order_relaxed);
  if (impl_->wake_write_ >= 0) impl_->wake();
  if (impl_->loop_active_.load(std::memory_order_acquire)) {
    while (impl_->loop_active_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  } else {
    impl_->teardown(/*checkpoint=*/false, /*drain_events=*/false);
  }
}

std::vector<Address> Server::addresses() const { return impl_->bound_; }

}  // namespace rumor::serve
