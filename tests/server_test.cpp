// Tests for the prediction service: the support primitives it is built
// from (BoundedQueue, StageClock), the staged pipeline core (stage flow,
// memoization, request coalescing, the concurrent-overlap guarantee,
// shutdown semantics) and the socket-free protocol layer (framing codec,
// request dispatch, malformed-request diagnostics) and the sweep flag
// grammar the daemon shares with the CLI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/predictor.hpp"
#include "kernels/kernels.hpp"
#include "server/core.hpp"
#include "server/protocol.hpp"
#include "server/sweep_args.hpp"
#include "support/hash.hpp"
#include "support/queue.hpp"
#include "support/stageclock.hpp"
#include "uarch/model.hpp"
#include "uarch/registry.hpp"

using namespace incore;
using namespace std::chrono_literals;

namespace {

const uarch::MachineModel& spr() {
  return uarch::machine(uarch::Micro::GoldenCove);
}

std::string triad_text() {
  return kernels::generate(
             kernels::Variant{kernels::Kernel::StreamTriad,
                              kernels::Compiler::Gcc, kernels::OptLevel::O3,
                              uarch::Micro::GoldenCove})
      .assembly;
}

std::string sum_text() {
  return kernels::generate(
             kernels::Variant{kernels::Kernel::SumReduction,
                              kernels::Compiler::Gcc, kernels::OptLevel::O3,
                              uarch::Micro::GoldenCove})
      .assembly;
}

std::string copy_text() {
  return kernels::generate(
             kernels::Variant{kernels::Kernel::Copy, kernels::Compiler::Gcc,
                              kernels::OptLevel::O3,
                              uarch::Micro::GoldenCove})
      .assembly;
}

class CountingPredictor final : public driver::Predictor {
 public:
  explicit CountingPredictor(std::string id = "count") : id_(std::move(id)) {}
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] driver::Prediction predict(
      const driver::Block& b) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    driver::Prediction p;
    p.model = id_;
    p.ok = true;
    p.cycles_per_iteration = static_cast<double>(b.gen.program.size());
    return p;
  }
  mutable std::atomic<int> calls{0};

 private:
  std::string id_;
};

/// Blocks inside predict() until release(): the latch the coalescing and
/// stage-overlap tests hold the evaluate stage open with.
class GatePredictor final : public driver::Predictor {
 public:
  explicit GatePredictor(std::string id = "gate") : id_(std::move(id)) {}
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] driver::Prediction predict(
      const driver::Block&) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_entered_.notify_all();
    cv_release_.wait(lock, [this] { return released_; });
    driver::Prediction p;
    p.model = id_;
    p.ok = true;
    p.cycles_per_iteration = 1.0;
    return p;
  }
  void wait_entered(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_entered_.wait(lock, [this, n] { return entered_ >= n; });
  }
  void release() const {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_release_.notify_all();
  }

 private:
  std::string id_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_entered_;
  mutable std::condition_variable cv_release_;
  mutable int entered_ = 0;
  mutable bool released_ = false;
};

}  // namespace

// -------------------------------------------------------------- BoundedQueue

TEST(BoundedQueue, FifoOrder) {
  support::BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.max_depth(), 3u);
}

TEST(BoundedQueue, TryPushRefusesWhenFull) {
  support::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: backpressure boundary
  (void)q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, PushBlocksUntilSpace) {
  support::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    EXPECT_TRUE(q.push(2));  // blocks: capacity 1, queue holds {1}
    pushed = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsThenReportsEmpty) {
  support::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));  // closed: no new items
  EXPECT_EQ(q.pop().value(), 7);  // but the backlog drains
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedPopper) {
  support::BoundedQueue<int> q(4);
  std::atomic<bool> woke{false};
  std::thread t([&] {
    EXPECT_FALSE(q.pop().has_value());
    woke = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(woke.load());
  q.close();
  t.join();
  EXPECT_TRUE(woke.load());
}

TEST(BoundedQueue, CloseWakesBlockedPusherAndRefusesItem) {
  support::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));  // full: the next push blocks
  std::atomic<bool> woke{false};
  std::thread t([&] {
    EXPECT_FALSE(q.push(2));  // close() must wake it with a refusal
    woke = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(woke.load());
  q.close();
  t.join();
  EXPECT_TRUE(woke.load());
  // The refused item was dropped, the accepted backlog still drains.
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesPusherAndPopperTogether) {
  // One producer blocked on a full queue, one consumer blocked on a
  // *different* empty queue, one close() each: both must return, the
  // producer refused, the consumer empty-handed.
  support::BoundedQueue<int> full(1);
  support::BoundedQueue<int> empty(1);
  ASSERT_TRUE(full.push(1));
  std::thread producer([&] { EXPECT_FALSE(full.push(2)); });
  std::thread consumer([&] { EXPECT_FALSE(empty.pop().has_value()); });
  std::this_thread::sleep_for(20ms);
  full.close();
  empty.close();
  producer.join();
  consumer.join();
}

// ---------------------------------------------------------------- StageClock

TEST(StageClock, EmptySnapshotIsZero) {
  support::StageClock clock;
  const auto s = clock.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50_ns, 0);
  EXPECT_EQ(s.p99_ns, 0);
  EXPECT_EQ(s.max_ns, 0);
}

TEST(StageClock, PercentilesFromKnownSamples) {
  support::StageClock clock;
  for (std::int64_t v = 1; v <= 100; ++v) clock.record(v);
  const auto s = clock.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.total_ns, 5050);
  EXPECT_EQ(s.p50_ns, 50);  // nearest-rank over 1..100
  EXPECT_EQ(s.p99_ns, 99);
  EXPECT_EQ(s.max_ns, 100);
}

TEST(StageClock, WindowKeepsRecentSamples) {
  support::StageClock clock(/*window=*/4);
  for (std::int64_t v : {1000, 1000, 1000, 1000, 1, 1, 1, 1}) clock.record(v);
  const auto s = clock.snapshot();
  EXPECT_EQ(s.count, 8u);       // lifetime count survives the window
  EXPECT_EQ(s.p50_ns, 1);       // percentiles come from the last 4 samples
  EXPECT_EQ(s.max_ns, 1000);    // lifetime max survives too
}

TEST(ElapseScope, RecordsOnDestruction) {
  support::StageClock clock;
  { support::ElapseScope scope(clock); }
  EXPECT_EQ(clock.snapshot().count, 1u);
}

// ------------------------------------------------------------------- framing

TEST(Framing, EncodeDecodeRoundTrip) {
  const std::string frame = server::encode_frame("hello\nworld");
  EXPECT_EQ(frame, "INCORE 11\nhello\nworld");
  server::FrameReader r;
  r.feed(frame.data(), frame.size());
  std::string body;
  ASSERT_TRUE(r.take(body));
  EXPECT_EQ(body, "hello\nworld");
  EXPECT_FALSE(r.take(body));
  EXPECT_FALSE(r.failed());
}

TEST(Framing, ByteAtATimeAndBackToBack) {
  const std::string two =
      server::encode_frame("first") + server::encode_frame("second");
  server::FrameReader r;
  for (char c : two) r.feed(&c, 1);
  std::string body;
  ASSERT_TRUE(r.take(body));
  EXPECT_EQ(body, "first");
  ASSERT_TRUE(r.take(body));
  EXPECT_EQ(body, "second");
  EXPECT_FALSE(r.take(body));
}

TEST(Framing, EmptyBody) {
  server::FrameReader r;
  const std::string frame = server::encode_frame("");
  r.feed(frame.data(), frame.size());
  std::string body;
  ASSERT_TRUE(r.take(body));
  EXPECT_EQ(body, "");
}

TEST(Framing, BadMagicIsFatal) {
  server::FrameReader r;
  const std::string junk = "GET / HTTP/1.1\n";
  r.feed(junk.data(), junk.size());
  EXPECT_TRUE(r.failed());
  EXPECT_NE(r.error().find("INCORE"), std::string::npos);
}

TEST(Framing, NonNumericLengthIsFatal) {
  server::FrameReader r;
  const std::string junk = "INCORE twelve\n";
  r.feed(junk.data(), junk.size());
  EXPECT_TRUE(r.failed());
}

TEST(Framing, OversizedLengthIsFatal) {
  server::FrameReader r;
  const std::string junk = "INCORE 99999999999999\n";
  r.feed(junk.data(), junk.size());
  EXPECT_TRUE(r.failed());
  EXPECT_NE(r.error().find("limit"), std::string::npos);
}

// --------------------------------------------------------------- ServiceCore

TEST(ServiceCore, RawTextFlowsThroughAllStages) {
  server::ServiceCore core;
  CountingPredictor count;
  server::JobHandle job = core.submit(server::ServiceCore::text_request(
      triad_text(), spr(), {&count},
      [](const driver::Block&) { return std::string("audited"); },
      [](const driver::Block&) { return std::string("0.5r+0.25w"); }));
  const server::JobResult& res = job->wait();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.instructions, 0u);
  EXPECT_GT(res.defuse_edges, 0u);
  ASSERT_EQ(res.predictions.size(), 1u);
  EXPECT_TRUE(res.predictions[0].ok);
  EXPECT_EQ(res.audit_verdict, "audited");
  EXPECT_EQ(res.traffic_line, "0.5r+0.25w");
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(count.calls.load(), 1);
  const server::ServiceStats st = core.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
  for (const server::StageStats& stage : st.stages) {
    EXPECT_EQ(stage.count, 1u) << stage.stage;
  }
}

TEST(ServiceCore, EmptyAssemblyFailsInParseStage) {
  server::ServiceCore core;
  CountingPredictor count;
  server::JobHandle job = core.submit(
      server::ServiceCore::text_request("  \n\n", spr(), {&count}));
  const server::JobResult& res = job->wait();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("no instructions"), std::string::npos);
  EXPECT_EQ(count.calls.load(), 0);  // never reached the evaluate stage
  EXPECT_EQ(core.stats().failed, 1u);
}

TEST(ServiceCore, MemoServesRepeatedBlocks) {
  server::ServiceCore core;
  CountingPredictor count;
  const std::string text = triad_text();
  (void)core.submit(server::ServiceCore::text_request(text, spr(), {&count}))
      ->wait();
  const server::JobResult& second =
      core.submit(server::ServiceCore::text_request(text, spr(), {&count}))
          ->wait();
  ASSERT_TRUE(second.ok);
  ASSERT_EQ(second.predictions.size(), 1u);
  EXPECT_TRUE(second.predictions[0].ok);
  EXPECT_EQ(count.calls.load(), 1);  // second request hit the memo
  const server::ServiceStats st = core.stats();
  EXPECT_EQ(st.memo_hits, 1u);
  EXPECT_EQ(st.memo_size, 1u);
  EXPECT_EQ(st.coalesced, 0u);  // sequential, not concurrent: memo, not
                                // coalescer
}

TEST(ServiceCore, MemoEvictsLeastRecentlyUsedPastCapacity) {
  server::ServiceConfig cfg;
  cfg.memo_capacity = 1;
  server::ServiceCore core(cfg);
  CountingPredictor count;
  (void)core.submit(server::ServiceCore::text_request(triad_text(), spr(),
                                                {&count}))->wait();
  (void)core.submit(server::ServiceCore::text_request(sum_text(), spr(),
                                                {&count}))->wait();
  // Capacity 1: the sum block evicted the triad entry, so the repeat is a
  // real re-evaluation, not a memo hit.
  (void)core.submit(server::ServiceCore::text_request(triad_text(), spr(),
                                                {&count}))->wait();
  EXPECT_EQ(count.calls.load(), 3);
  const server::ServiceStats st = core.stats();
  EXPECT_EQ(st.memo_size, 1u);
  EXPECT_EQ(st.memo_evicted, 2u);
  EXPECT_EQ(st.memo_hits, 0u);
}

TEST(ServiceCore, MemoHitRefreshesLruOrder) {
  server::ServiceConfig cfg;
  cfg.memo_capacity = 2;
  server::ServiceCore core(cfg);
  CountingPredictor count;
  (void)core.submit(server::ServiceCore::text_request(triad_text(), spr(),
                                                {&count}))->wait();
  (void)core.submit(server::ServiceCore::text_request(sum_text(), spr(),
                                                {&count}))->wait();
  // Touch triad: sum becomes the least recently used entry...
  (void)core.submit(server::ServiceCore::text_request(triad_text(), spr(),
                                                {&count}))->wait();
  // ...so the third distinct block evicts sum, not triad.
  (void)core.submit(server::ServiceCore::text_request(copy_text(), spr(),
                                                {&count}))->wait();
  (void)core.submit(server::ServiceCore::text_request(triad_text(), spr(),
                                                {&count}))->wait();
  EXPECT_EQ(count.calls.load(), 3);  // triad, sum, copy — never re-evaluated
  const server::ServiceStats st = core.stats();
  EXPECT_EQ(st.memo_size, 2u);
  EXPECT_EQ(st.memo_evicted, 1u);
  EXPECT_EQ(st.memo_hits, 2u);
}

TEST(ServiceCore, DistinctHookIdsDoNotCoalesce) {
  server::ServiceCore core;
  GatePredictor gate;
  const std::string text = triad_text();
  server::JobRequest a = server::ServiceCore::text_request(
      text, spr(), {&gate},
      [](const driver::Block&) { return std::string("A"); });
  a.hooks_id = "hook-a";
  server::JobRequest b = server::ServiceCore::text_request(
      text, spr(), {&gate},
      [](const driver::Block&) { return std::string("B"); });
  b.hooks_id = "hook-b";
  server::JobHandle ja = core.submit(std::move(a));
  gate.wait_entered(1);
  server::JobHandle jb = core.submit(std::move(b));
  // Same block, different hook identity: B must run its own pipeline pass
  // instead of riding along and receiving A's audit output.
  gate.wait_entered(2);
  EXPECT_EQ(core.stats().coalesced, 0u);
  gate.release();
  const server::JobResult& ra = ja->wait();
  const server::JobResult& rb = jb->wait();
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_EQ(ra.audit_verdict, "A");
  EXPECT_EQ(rb.audit_verdict, "B");
  EXPECT_FALSE(rb.coalesced);
}

TEST(ServiceCore, IdenticalInFlightRequestsCoalesce) {
  server::ServiceCore core;
  GatePredictor gate;
  const std::string text = triad_text();
  server::JobHandle leader = core.submit(
      server::ServiceCore::text_request(text, spr(), {&gate}));
  gate.wait_entered(1);  // leader is parked inside the evaluate stage
  server::JobHandle twin = core.submit(
      server::ServiceCore::text_request(text, spr(), {&gate}));
  EXPECT_EQ(core.stats().coalesced, 1u);
  gate.release();
  const server::JobResult& lres = leader->wait();
  const server::JobResult& tres = twin->wait();
  ASSERT_TRUE(lres.ok);
  ASSERT_TRUE(tres.ok);
  EXPECT_FALSE(lres.coalesced);
  EXPECT_TRUE(tres.coalesced);
  EXPECT_EQ(tres.predictions[0].cycles_per_iteration,
            lres.predictions[0].cycles_per_iteration);
  const server::ServiceStats st = core.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  // The pipeline itself only saw one job.
  EXPECT_EQ(st.stages[static_cast<int>(server::Stage::Evaluate)].count, 1u);
}

// The tentpole guarantee: stages of *different* requests execute
// concurrently.  With a single evaluate worker parked on job A, job B must
// still flow through parse and dataflow and be queued for evaluation —
// pinned via the live stage statistics.
TEST(ServiceCore, DifferentRequestsOverlapInDifferentStages) {
  server::ServiceConfig cfg;
  cfg.evaluate_workers = 1;
  server::ServiceCore core(cfg);
  GatePredictor gate;
  server::JobHandle a = core.submit(
      server::ServiceCore::text_request(triad_text(), spr(), {&gate}));
  gate.wait_entered(1);  // A occupies the only evaluate worker
  server::JobHandle b = core.submit(
      server::ServiceCore::text_request(sum_text(), spr(), {&gate}));
  // B (a different block: no coalescing) must clear the parse and dataflow
  // stages while A is still mid-evaluate.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool overlapped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const server::ServiceStats st = core.stats();
    const auto& parse =
        st.stages[static_cast<int>(server::Stage::Parse)];
    const auto& dataflow =
        st.stages[static_cast<int>(server::Stage::Dataflow)];
    const auto& evaluate =
        st.stages[static_cast<int>(server::Stage::Evaluate)];
    if (st.completed == 0 && evaluate.in_flight == 1 && parse.count == 2 &&
        dataflow.count == 2) {
      overlapped = true;
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(overlapped)
      << "request B never reached the evaluate queue while A held the "
         "evaluate stage";
  gate.release();
  EXPECT_TRUE(a->wait().ok);
  EXPECT_TRUE(b->wait().ok);
  EXPECT_FALSE(b->wait().coalesced);
}

TEST(ServiceCore, StageTimesAreRecordedPerJob) {
  server::ServiceCore core;
  CountingPredictor count;
  server::JobHandle job = core.submit(
      server::ServiceCore::text_request(triad_text(), spr(), {&count}));
  const server::JobResult& res = job->wait();
  ASSERT_TRUE(res.ok);
  for (std::size_t s = 0; s < server::kStageCount; ++s) {
    EXPECT_GT(res.stage_ns[s], 0) << server::to_string(
        static_cast<server::Stage>(s));
  }
}

TEST(ServiceCore, SubmitAfterShutdownFailsCleanly) {
  server::ServiceCore core;
  core.shutdown();
  CountingPredictor count;
  server::JobHandle job = core.submit(
      server::ServiceCore::text_request(triad_text(), spr(), {&count}));
  const server::JobResult& res = job->wait();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("stopped"), std::string::npos);
  EXPECT_EQ(count.calls.load(), 0);
  core.shutdown();  // idempotent
}

TEST(ServiceCore, DrainWaitsForAllSubmittedJobs) {
  server::ServiceCore core;
  CountingPredictor count;
  std::vector<server::JobHandle> jobs;
  const std::string texts[] = {triad_text(), sum_text()};
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(core.submit(server::ServiceCore::text_request(
        texts[i % 2] + std::string(static_cast<std::size_t>(i), '\n'),
        spr(), {&count})));
  }
  core.drain();
  for (const server::JobHandle& j : jobs) EXPECT_TRUE(j->done());
}

TEST(ServiceCore, BlockKeyMatchesSweepDedupKey) {
  // One hash definition everywhere: a raw-text request and the sweep's
  // make_block agree on the dedup identity, so server requests hit the
  // memo entries a batch sweep warmed (and vice versa).
  const std::string text = triad_text();
  const driver::Block b = driver::make_block(text, spr());
  server::ServiceCore core;
  server::JobHandle job = core.submit(
      server::ServiceCore::text_request(text, spr(), {}));
  EXPECT_EQ(job->block().hash, b.hash);
  EXPECT_EQ(job->block().hash,
            support::block_key(spr().name(), text));
  EXPECT_EQ(job->block().text_hash, support::text_key(text));
  (void)job->wait();
}

// ------------------------------------------------------------ ServerContext

TEST(ServerContext, PingAndStats) {
  server::ServerContext ctx;
  bool shutdown = false;
  EXPECT_EQ(ctx.handle("ping", shutdown),
            "{\"ok\": true, \"kind\": \"pong\"}\n");
  EXPECT_FALSE(shutdown);
  const std::string stats = ctx.handle("stats", shutdown);
  EXPECT_NE(stats.find("\"kind\": \"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"requests\": 2"), std::string::npos);
  EXPECT_NE(stats.find("\"stage\": \"parse\""), std::string::npos);
  EXPECT_NE(stats.find("\"saturation_stage\""), std::string::npos);
}

TEST(ServerContext, ShutdownSetsFlag) {
  server::ServerContext ctx;
  bool shutdown = false;
  const std::string reply = ctx.handle("shutdown", shutdown);
  EXPECT_TRUE(shutdown);
  EXPECT_NE(reply.find("\"kind\": \"shutdown\""), std::string::npos);
}

TEST(ServerContext, MalformedRequestsGetDiagnostics) {
  server::ServerContext ctx;
  bool shutdown = false;
  EXPECT_NE(ctx.handle("bogus", shutdown).find("unknown command"),
            std::string::npos);
  EXPECT_NE(ctx.handle("", shutdown).find("\"ok\": false"),
            std::string::npos);
  EXPECT_NE(ctx.handle("analyze", shutdown).find("expected a machine"),
            std::string::npos);
  EXPECT_NE(
      ctx.handle("analyze no-such-machine\nfadd v0.2d, v1.2d, v2.2d\n",
                 shutdown)
          .find("unknown machine"),
      std::string::npos);
  EXPECT_NE(ctx.handle("analyze spr\n", shutdown).find("empty assembly"),
            std::string::npos);
  EXPECT_NE(ctx.handle("sweep --bogus", shutdown).find("unknown sweep flag"),
            std::string::npos);
  EXPECT_EQ(ctx.errors(), 6u);
  EXPECT_EQ(ctx.requests(), 6u);
}

TEST(ServerContext, AnalyzeRoundTrip) {
  server::ServerContext ctx;
  bool shutdown = false;
  const std::string reply =
      ctx.handle("analyze spr\n" + triad_text(), shutdown);
  EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"kind\": \"analyze\""), std::string::npos);
  EXPECT_NE(reply.find("\"osaca\""), std::string::npos);
  EXPECT_NE(reply.find("\"mca\""), std::string::npos);
  EXPECT_NE(reply.find("\"testbed\""), std::string::npos);
  EXPECT_NE(reply.find("\"stage_ns\""), std::string::npos);
  // A repeat of the same block is served from the memo.
  (void)ctx.handle("analyze spr\n" + triad_text(), shutdown);
  const std::string stats = ctx.handle("stats", shutdown);
  EXPECT_NE(stats.find("\"memo_hits\": 3"), std::string::npos) << stats;
}

TEST(ServerContext, EcmRoundTrip) {
  server::ServerContext ctx;
  bool shutdown = false;
  const std::string text =
      kernels::generate(kernels::Variant{
                            kernels::Kernel::StreamTriad,
                            kernels::Compiler::Gcc, kernels::OptLevel::O3,
                            uarch::Micro::NeoverseV2})
          .assembly;
  const std::string reply = ctx.handle("ecm gcs\n" + text, shutdown);
  EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"kind\": \"ecm\""), std::string::npos);
  EXPECT_NE(reply.find("\"ecm-L1\""), std::string::npos);
  EXPECT_NE(reply.find("\"ecm-MEM\""), std::string::npos);
}

// ------------------------------------------------------------ sweep grammar

namespace {

/// Everything a parse produced, as one comparable line.
std::string describe(const server::SweepArgs& a) {
  if (!a.error.empty()) return a.error;
  std::string out = a.format == server::SweepFormat::Csv    ? "csv"
                    : a.format == server::SweepFormat::Json ? "json"
                                                            : "text";
  if (a.options.audit) out += " audit";
  if (a.options.traffic) out += " traffic";
  for (int n : a.options.cores) out += " n" + std::to_string(n);
  for (driver::Model m : a.options.models) {
    out += std::string(" ") + driver::to_string(m);
  }
  for (const uarch::MachineRef& m : a.options.machines) out += " " + m.name;
  for (kernels::Kernel k : a.options.kernels) {
    out += std::string(" ") + kernels::to_string(k);
  }
  for (kernels::Compiler c : a.options.compilers) {
    out += std::string(" ") + kernels::to_string(c);
  }
  for (kernels::OptLevel o : a.options.opt_levels) {
    out += std::string(" ") + kernels::to_string(o);
  }
  return out;
}

}  // namespace

TEST(SweepGrammar, AcceptsAndRejectsWithTheCliWording) {
  const std::string cores = "sweep: --cores expects core counts in [1, 1024]";
  const struct {
    std::vector<std::string> tokens;
    std::string expected;  // describe() of the parse
  } cases[] = {
      {{}, "text"},
      {{"--csv"}, "csv"},
      {{"--json"}, "json"},
      {{"--csv", "--json"}, "json"},
      {{"--audit", "--traffic"}, "text audit traffic"},
      {{"--cores", "1, 2,1024"}, "text n1 n2 n1024"},
      {{"--models", "llvm-mca,osaca,exec"}, "text mca osaca testbed"},
      {{"--machines", "grace,spr"}, "text gcs spr"},
      {{"--kernels", "sum,stream-triad"}, "text sum stream-triad"},
      {{"--compilers", "gcc,icx"}, "text gcc icx"},
      {{"--opt", "O1,Ofast", "--csv"}, "csv O1 Ofast"},
      // A missing value.
      {{"--models"}, "--models needs a value"},
      {{"--csv", "--cores"}, "--cores needs a value"},
      {{"--machine-file"}, "--machine-file needs a value"},
      // An unknown value, per list flag.
      {{"--models", "foo"}, "--models: unknown value 'foo'"},
      {{"--models", "osaca,"}, "--models: unknown value ''"},
      {{"--machines", "nope"}, "--machines: unknown value 'nope'"},
      {{"--kernels", "nope"}, "--kernels: unknown value 'nope'"},
      {{"--compilers", "x"}, "--compilers: unknown value 'x'"},
      {{"--opt", "O9"}, "--opt: unknown value 'O9'"},
      // An unknown flag; --jobs belongs to the CLI, not the grammar.
      {{"--bogus"}, "unknown sweep flag '--bogus'"},
      {{"--jobs", "2"}, "unknown sweep flag '--jobs'"},
      // Bad core counts.
      {{"--cores", "2x"}, cores + ", got '2x'"},
      {{"--cores", "0"}, cores + ", got '0'"},
      {{"--cores", "1025"}, cores + ", got '1025'"},
      {{"--cores", "4,-1"}, cores + ", got '-1'"},
      {{"--cores", "1,,2"}, cores + ", got ''"},
  };
  for (const auto& c : cases) {
    const server::SweepArgs a = server::parse_sweep_args(c.tokens);
    std::string joined;
    for (const std::string& t : c.tokens) joined += t + " ";
    EXPECT_EQ(describe(a), c.expected) << joined;
    EXPECT_EQ(a.unknown_flag, c.expected.starts_with("unknown sweep flag"))
        << joined;
  }
}

TEST(SweepGrammar, FrontEndFlagsRideAlong) {
  // The CLI's --jobs goes through the hook; the grammar keeps parsing
  // around it, and a hook error stops the parse.
  int jobs = 0;
  const server::FlagHook hook = [&jobs](const std::vector<std::string>& t,
                                        std::size_t& i, std::string& error) {
    if (t[i] != "--jobs") return false;
    if (t[++i] == "bad") error = "bad jobs";
    jobs = std::atoi(t[i].c_str());
    return true;
  };
  const server::SweepArgs ok =
      server::parse_sweep_args({"--csv", "--jobs", "3", "--opt", "O2"}, hook);
  EXPECT_EQ(describe(ok), "csv O2");
  EXPECT_EQ(jobs, 3);
  const server::SweepArgs bad =
      server::parse_sweep_args({"--jobs", "bad", "--bogus"}, hook);
  EXPECT_EQ(bad.error, "bad jobs");
  EXPECT_FALSE(bad.unknown_flag);
  EXPECT_EQ(describe(server::parse_sweep_args({"--nope"}, hook)),
            "unknown sweep flag '--nope'");
}

TEST(ServeGrammar, AcceptsAndRejectsWithExactMessages) {
  // One grammar behind `incore-cli serve` and `incore-server`; both once
  // read --workers (and the daemon --queue) with atoi, so "2x" ran as 2.
  const struct {
    std::vector<std::string> tokens;
    std::string expected;  // error, or "workers/queue/memo socket"
  } cases[] = {
      {{"--socket", "/tmp/s"}, "2/256/65536 /tmp/s"},
      {{"--workers", "4", "--queue", "8", "--memo", "0", "--socket", "s"},
       "4/8/0 s"},
      {{"--workers", "256"}, "256/256/65536 "},
      {{"--workers", "2x"}, "serve: --workers expects a count in [1, 256], got '2x'"},
      {{"--workers", "0"}, "serve: --workers expects a count in [1, 256], got '0'"},
      {{"--workers", "257"},
       "serve: --workers expects a count in [1, 256], got '257'"},
      {{"--workers", ""}, "serve: --workers expects a count in [1, 256], got ''"},
      {{"--queue", "3junk"}, "serve: --queue expects a positive capacity, got '3junk'"},
      {{"--queue", "0"}, "serve: --queue expects a positive capacity, got '0'"},
      {{"--memo", "-1"},
       "serve: --memo expects a non-negative capacity (0 = unbounded), got '-1'"},
      {{"--memo", "5k"},
       "serve: --memo expects a non-negative capacity (0 = unbounded), got '5k'"},
      {{"--bogus"}, "unknown serve flag '--bogus'"},
      {{"--socket"}, "unknown serve flag '--socket'"},  // a missing value
  };
  for (const auto& c : cases) {
    const server::ServeArgs a = server::parse_serve_args(c.tokens, "serve");
    std::string joined;
    for (const std::string& t : c.tokens) joined += t + " ";
    const auto& svc = a.options.service;
    const std::string got =
        !a.error.empty()
            ? a.error
            : std::to_string(svc.evaluate_workers) + "/" +
                  std::to_string(svc.queue_capacity) + "/" +
                  std::to_string(svc.memo_capacity) + " " +
                  a.options.socket_path;
    EXPECT_EQ(got, c.expected) << joined;
    EXPECT_EQ(a.unknown_flag, c.expected.starts_with("unknown serve flag"))
        << joined;
  }
  EXPECT_EQ(server::parse_serve_args({"--workers", "2x"}, "incore-server").error,
            "incore-server: --workers expects a count in [1, 256], got '2x'");
}

TEST(ServerContext, SweepRejectsBadCoreCountsLikeTheCli) {
  // The daemon once parsed --cores with atoi: "2x" ran as 2 and 1025 was
  // accepted.  It now shares the CLI's grammar and its diagnostic.
  server::ServerContext ctx;
  bool shutdown = false;
  for (const std::string bad : {"2x", "0", "1025"}) {
    EXPECT_EQ(ctx.handle("sweep --kernels sum --cores " + bad, shutdown),
              server::error_reply(
                  "sweep: --cores expects core counts in [1, 1024], got '" +
                  bad + "'"));
  }
  EXPECT_EQ(ctx.handle("sweep --models", shutdown),
            server::error_reply("sweep: --models needs a value"));
  EXPECT_EQ(ctx.errors(), 4u);
}
