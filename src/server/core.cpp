#include "server/core.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "asmir/parser.hpp"
#include "dataflow/dataflow.hpp"
#include "support/hash.hpp"

namespace incore::server {

using support::LockGuard;

namespace {

[[nodiscard]] std::int64_t elapsed_ns(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* to_string(Stage s) {
  switch (s) {
    case Stage::Parse: return "parse";
    case Stage::Dataflow: return "dataflow";
    case Stage::Evaluate: return "evaluate";
    case Stage::Finalize: return "finalize";
  }
  return "?";
}

// ---------------------------------------------------------------------- Job

JobResult Job::wait() {
  const LockGuard lock(mu_);
  while (!done_) cv_.wait(mu_);
  return res_;
}

bool Job::done() const {
  const LockGuard lock(mu_);
  return done_;
}

driver::Block Job::block() const {
  const LockGuard lock(mu_);
  return req_.block;
}

// -------------------------------------------------------------- ServiceCore

ServiceCore::ServiceCore(ServiceConfig cfg) : cfg_(cfg) {
  cfg_.parse_workers = std::max(1, cfg_.parse_workers);
  cfg_.dataflow_workers = std::max(1, cfg_.dataflow_workers);
  cfg_.evaluate_workers = std::max(1, cfg_.evaluate_workers);
  cfg_.finalize_workers = std::max(1, cfg_.finalize_workers);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    queues_.push_back(std::make_unique<support::BoundedQueue<JobHandle>>(
        cfg_.queue_capacity));
    clocks_[s] = std::make_unique<support::StageClock>(cfg_.latency_window);
  }
  const int workers[] = {cfg_.parse_workers, cfg_.dataflow_workers,
                         cfg_.evaluate_workers, cfg_.finalize_workers};
  int total = 0;
  for (const int w : workers) total += w;
  pool_ = std::make_unique<support::ThreadPool>(total);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    for (int w = 0; w < workers[s]; ++w) {
      pool_->submit([this, s] { stage_worker(static_cast<Stage>(s)); });
    }
  }
}

ServiceCore::~ServiceCore() { shutdown(); }

std::string ServiceCore::coalesce_key(const JobRequest& req) {
  std::string key = req.block.hash;
  for (const driver::Predictor* p : req.predictors) {
    key += '|';
    key += p->id();
  }
  key += req.audit ? "|A" : "|-";
  key += req.traffic ? "T" : "-";
  // Hooks are std::functions — incomparable — so their caller-supplied
  // identity token keeps requests with *different* hook implementations
  // from sharing one audit/traffic output.
  key += '|';
  key += req.hooks_id;
  return key;
}

JobRequest ServiceCore::text_request(
    std::string assembly, const uarch::MachineModel& mm,
    std::vector<const driver::Predictor*> predictors, BlockHook audit,
    BlockHook traffic) {
  JobRequest req;
  req.block.gen.assembly = std::move(assembly);
  req.block.gen.elements_per_iteration = 1;
  req.block.mm = &mm;
  req.block.text_hash = support::text_key(req.block.gen.assembly);
  req.block.hash = support::block_key(mm.name(), req.block.gen.assembly);
  req.parsed = false;
  req.predictors = std::move(predictors);
  req.audit = std::move(audit);
  req.traffic = std::move(traffic);
  return req;
}

void ServiceCore::fail_job(Job& j, const char* why) {
  {
    const LockGuard jlock(j.mu_);
    j.res_.ok = false;
    j.res_.error = why;
    j.done_ = true;
  }
  j.cv_.notify_all();
}

JobHandle ServiceCore::submit(JobRequest req) {
  auto job = std::make_shared<Job>();
  Job& j = *job;
  std::string key;
  {
    // The job is not shared yet, so the lock is uncontended; it exists to
    // keep the guarded-state invariant uniform (and machine-checkable).
    const LockGuard jlock(j.mu_);
    j.req_ = std::move(req);
    if (j.req_.block.hash.empty()) {
      // Blocks built outside make_block still get the canonical dedup
      // identity.
      j.req_.block.hash = support::block_key(j.req_.block.mm->name(),
                                             j.req_.block.gen.assembly);
    }
    j.key_ = coalesce_key(j.req_);
    key = j.key_;
  }
  bool rejected = false;
  {
    const LockGuard lock(mu_);
    ++submitted_;
    if (stopped_) {
      ++failed_;
      rejected = true;
    } else {
      ++pending_;
      auto it = in_flight_jobs_.find(key);
      if (it != in_flight_jobs_.end() && it->second.lock() != nullptr) {
        // Identical request in flight: ride along instead of re-entering
        // the pipeline.  complete() copies the leader's result over.
        followers_[key].push_back(job);
        ++coalesced_;
        return job;
      }
      in_flight_jobs_[key] = job;
    }
  }
  if (rejected) {
    fail_job(j, "service stopped");
    return job;
  }
  if (!queues_[0]->push(job)) {
    {
      const LockGuard jlock(j.mu_);
      j.res_.ok = false;
      j.res_.error = "service stopped";
    }
    complete(job);
  }
  return job;
}

void ServiceCore::drain() {
  const LockGuard lock(mu_);
  while (pending_ != 0) cv_idle_.wait(mu_);
}

void ServiceCore::shutdown() {
  drain();
  {
    const LockGuard lock(mu_);
    stopped_ = true;
  }
  for (const auto& q : queues_) q->close();
  pool_->stop();
}

void ServiceCore::stage_worker(Stage s) {
  auto& queue = *queues_[static_cast<std::size_t>(s)];
  while (auto job = queue.pop()) {
    if (!run_stage(s, *job)) continue;  // failed or finalized
    const auto next = static_cast<std::size_t>(s) + 1;
    if (!queues_[next]->push(*job)) {
      Job& j = **job;
      {
        const LockGuard jlock(j.mu_);
        j.res_.ok = false;
        j.res_.error = "service stopped";
      }
      complete(*job);
    }
  }
}

bool ServiceCore::run_stage(Stage s, const JobHandle& job) {
  const std::size_t si = static_cast<std::size_t>(s);
  const auto t0 = std::chrono::steady_clock::now();
  in_flight_[si].fetch_add(1, std::memory_order_relaxed);
  bool failed = false;
  Job& j = *job;
  {
    // One stage owns the job for the duration of its work; wait()/done()
    // calls from other threads block on this lock, which is exactly the
    // answer they need (the job is not done).
    const LockGuard jlock(j.mu_);
    JobRequest& req = j.req_;
    JobResult& res = j.res_;
    switch (s) {
      case Stage::Parse: {
        if (!req.parsed) {
          try {
            req.block.gen.program =
                asmir::parse(req.block.gen.assembly, req.block.mm->isa());
            req.parsed = true;
          } catch (const std::exception& e) {
            res.error = e.what();
            failed = true;
          }
        }
        if (!failed && req.block.gen.program.empty()) {
          res.error = "no instructions parsed";
          failed = true;
        }
        break;
      }
      case Stage::Dataflow: {
        // Advisory digest: a program the dataflow pass cannot digest still
        // proceeds to the evaluators (they have their own error channel).
        try {
          const dataflow::Analysis df =
              dataflow::analyze(req.block.gen.program);
          res.instructions = df.instrs.size();
          res.defuse_edges = df.chains.size();
        } catch (const std::exception&) {
          res.instructions = req.block.gen.program.size();
          res.defuse_edges = 0;
        }
        break;
      }
      case Stage::Evaluate: {
        // The job's predictors share one in-core analysis and one ECM
        // composition, computed on first use and dropped with the scope.
        const driver::BlockScope scope(req.block);
        res.predictions.reserve(req.predictors.size());
        for (const driver::Predictor* p : req.predictors) {
          const std::string memo_key = req.block.hash + '|' + p->id();
          bool hit = false;
          {
            // Lock order: Job::mu_ -> ServiceCore::memo_mu_ (the only
            // place two of this file's locks nest).
            const LockGuard lock(memo_mu_);
            auto it = memo_.find(memo_key);
            if (it != memo_.end()) {
              res.predictions.push_back(it->second.pred);
              ++memo_hits_;
              // Touch: move the key to the LRU front.
              memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.lru);
              hit = true;
            }
          }
          if (hit) continue;
          driver::Prediction pred = p->predict(req.block);  // never throws
          {
            const LockGuard lock(memo_mu_);
            auto [it, inserted] = memo_.try_emplace(memo_key);
            if (inserted) {
              // A racing worker may have inserted the same key first; only
              // the winner owns an LRU slot and pays the eviction check.
              memo_lru_.push_front(memo_key);
              it->second.pred = pred;
              it->second.lru = memo_lru_.begin();
              while (cfg_.memo_capacity > 0 &&
                     memo_.size() > cfg_.memo_capacity) {
                memo_.erase(memo_lru_.back());
                memo_lru_.pop_back();
                ++memo_evicted_;
              }
            }
          }
          res.predictions.push_back(std::move(pred));
        }
        break;
      }
      case Stage::Finalize: {
        // The hooks promise thread-safety but not noexcept; a throwing hook
        // fails the job rather than the worker.
        try {
          if (req.audit) res.audit_verdict = req.audit(req.block);
          if (req.traffic) res.traffic_line = req.traffic(req.block);
        } catch (const std::exception& e) {
          res.error = e.what();
          failed = true;
        }
        if (!failed) res.ok = true;
        break;
      }
    }
  }
  const std::int64_t ns = elapsed_ns(t0);
  {
    const LockGuard jlock(j.mu_);
    j.res_.stage_ns[si] = ns;
  }
  clocks_[si]->record(ns);
  in_flight_[si].fetch_sub(1, std::memory_order_relaxed);
  stage_done_[si].fetch_add(1, std::memory_order_relaxed);
  if (failed || s == Stage::Finalize) {
    complete(job);
    return false;
  }
  return true;
}

void ServiceCore::complete(const JobHandle& job) {
  Job& j = *job;
  JobResult result;
  std::string key;
  {
    // The completing stage is the job's sole owner here; copy the result
    // out so followers can be served without holding two job locks.
    const LockGuard jlock(j.mu_);
    result = j.res_;
    key = j.key_;
  }
  std::vector<JobHandle> followers;
  {
    const LockGuard lock(mu_);
    in_flight_jobs_.erase(key);
    auto it = followers_.find(key);
    if (it != followers_.end()) {
      followers = std::move(it->second);
      followers_.erase(it);
    }
    const std::size_t n = 1 + followers.size();
    completed_ += n;
    if (!result.ok) failed_ += n;
    pending_ -= n;
    if (pending_ == 0) cv_idle_.notify_all();
  }
  for (const JobHandle& f : followers) {
    Job& fj = *f;
    {
      const LockGuard flock(fj.mu_);
      fj.res_ = result;
      fj.res_.coalesced = true;
      fj.done_ = true;
    }
    fj.cv_.notify_all();
  }
  // Publish the leader last: its key must leave in_flight_jobs_ before
  // done_ flips, so a racing identical submit() either attached above (and
  // was drained) or starts a fresh leader — never both, never neither.
  {
    const LockGuard jlock(j.mu_);
    j.done_ = true;
  }
  j.cv_.notify_all();
}

ServiceStats ServiceCore::stats() const {
  ServiceStats st;
  {
    const LockGuard lock(mu_);
    st.submitted = submitted_;
    st.completed = completed_;
    st.failed = failed_;
    st.coalesced = coalesced_;
  }
  {
    const LockGuard lock(memo_mu_);
    st.memo_hits = memo_hits_;
    st.memo_size = memo_.size();
    st.memo_evicted = memo_evicted_;
  }
  std::size_t best_depth = 0;
  std::int64_t best_busy = -1;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    StageStats& out = st.stages[s];
    const support::StageClock::Snapshot snap = clocks_[s]->snapshot();
    out.stage = to_string(static_cast<Stage>(s));
    out.count = stage_done_[s].load(std::memory_order_relaxed);
    out.in_flight = in_flight_[s].load(std::memory_order_relaxed);
    out.queue_depth = queues_[s]->depth();
    out.max_queue_depth = queues_[s]->max_depth();
    out.p50_ns = snap.p50_ns;
    out.p99_ns = snap.p99_ns;
    out.total_ns = snap.total_ns;
    out.max_ns = snap.max_ns;
    if (out.queue_depth > best_depth ||
        (out.queue_depth == best_depth && out.total_ns > best_busy)) {
      best_depth = out.queue_depth;
      best_busy = out.total_ns;
      st.saturation_stage = static_cast<Stage>(s);
    }
  }
  return st;
}

}  // namespace incore::server
