#include <gtest/gtest.h>

#include <string>

#include "runtime/buffer_pool.h"
#include "runtime/elastic_executor.h"
#include "runtime/serverless.h"

namespace deluge::runtime {
namespace {

using stream::Space;

// -------------------------------------------------------------- BufferPool

std::string SizedPage(size_t n) { return std::string(n, 'p'); }

TEST(BufferPoolTest, HitAfterMiss) {
  int fetches = 0;
  BufferPool pool(1024, [&](const std::string&) {
    ++fetches;
    return SizedPage(100);
  });
  std::string data;
  ASSERT_TRUE(pool.Get("a", Space::kPhysical, &data).ok());
  ASSERT_TRUE(pool.Get("a", Space::kPhysical, &data).ok());
  EXPECT_EQ(fetches, 1);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(pool.stats().HitRatio(), 0.5);
}

TEST(BufferPoolTest, LruEvictionWithinClass) {
  BufferPool pool(300, [](const std::string&) { return SizedPage(100); });
  std::string data;
  ASSERT_TRUE(pool.Get("a", Space::kVirtual, &data).ok());
  ASSERT_TRUE(pool.Get("b", Space::kVirtual, &data).ok());
  ASSERT_TRUE(pool.Get("c", Space::kVirtual, &data).ok());
  ASSERT_TRUE(pool.Get("a", Space::kVirtual, &data).ok());  // refresh a
  ASSERT_TRUE(pool.Get("d", Space::kVirtual, &data).ok());  // evicts b (LRU)
  EXPECT_TRUE(pool.Contains("a"));
  EXPECT_FALSE(pool.Contains("b"));
  EXPECT_TRUE(pool.Contains("c"));
  EXPECT_TRUE(pool.Contains("d"));
}

TEST(BufferPoolTest, VirtualPagesEvictedBeforePhysical) {
  BufferPool pool(300, [](const std::string&) { return SizedPage(100); },
                  /*virtual_share=*/0.0);
  std::string data;
  ASSERT_TRUE(pool.Get("phys1", Space::kPhysical, &data).ok());
  ASSERT_TRUE(pool.Get("virt1", Space::kVirtual, &data).ok());
  ASSERT_TRUE(pool.Get("phys2", Space::kPhysical, &data).ok());
  // Pool full; a new physical page must evict the virtual one.
  ASSERT_TRUE(pool.Get("phys3", Space::kPhysical, &data).ok());
  EXPECT_FALSE(pool.Contains("virt1"));
  EXPECT_TRUE(pool.Contains("phys1"));
  EXPECT_TRUE(pool.Contains("phys2"));
}

TEST(BufferPoolTest, ProtectedVirtualShareSurvivesPhysicalPressure) {
  // Capacity 400, half protected for virtual.
  BufferPool pool(400, [](const std::string&) { return SizedPage(100); },
                  /*virtual_share=*/0.5);
  std::string data;
  ASSERT_TRUE(pool.Get("v1", Space::kVirtual, &data).ok());
  ASSERT_TRUE(pool.Get("v2", Space::kVirtual, &data).ok());
  // Physical flood: may evict virtual only down to 200 bytes (2 pages).
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        pool.Get("p" + std::to_string(i), Space::kPhysical, &data).ok());
  }
  EXPECT_TRUE(pool.Contains("v1") || pool.Contains("v2"));
  int virtual_pages = int(pool.Contains("v1")) + int(pool.Contains("v2"));
  EXPECT_EQ(virtual_pages, 2);  // exactly at the protected share
}

TEST(BufferPoolTest, VirtualInsertsDoNotEvictPhysical) {
  BufferPool pool(300, [](const std::string&) { return SizedPage(100); });
  std::string data;
  ASSERT_TRUE(pool.Get("p1", Space::kPhysical, &data).ok());
  ASSERT_TRUE(pool.Get("p2", Space::kPhysical, &data).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        pool.Get("v" + std::to_string(i), Space::kVirtual, &data).ok());
  }
  EXPECT_TRUE(pool.Contains("p1"));
  EXPECT_TRUE(pool.Contains("p2"));
}

TEST(BufferPoolTest, PutAndInvalidate) {
  BufferPool pool(1024, nullptr);
  pool.Put("k", Space::kPhysical, "hello");
  std::string data;
  ASSERT_TRUE(pool.Get("k", Space::kPhysical, &data).ok());
  EXPECT_EQ(data, "hello");
  pool.Invalidate("k");
  EXPECT_FALSE(pool.Contains("k"));
  EXPECT_TRUE(pool.Get("k", Space::kPhysical, &data).IsNotFound());
}

TEST(BufferPoolTest, OversizePageNotCached) {
  BufferPool pool(50, [](const std::string&) { return SizedPage(100); });
  std::string data;
  ASSERT_TRUE(pool.Get("big", Space::kPhysical, &data).ok());
  EXPECT_EQ(data.size(), 100u);        // data still served
  EXPECT_FALSE(pool.Contains("big"));  // but not cached
  EXPECT_EQ(pool.used_bytes(), 0u);
}

// ---------------------------------------------------- ElasticExecutorPool

TEST(ElasticExecutorTest, CompletesAllTasks) {
  net::Simulator sim;
  ElasticExecutorPoolOptions opts;
  ElasticExecutorPool pool(&sim, opts);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    pool.Submit(10 * kMicrosPerMilli, [&done] { ++done; });
  }
  sim.Run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(pool.stats().completed, 50u);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ElasticExecutorTest, ScalesOutUnderLoad) {
  net::Simulator sim;
  ElasticExecutorPoolOptions opts;
  opts.min_executors = 1;
  opts.max_executors = 16;
  ElasticExecutorPool pool(&sim, opts);
  for (int i = 0; i < 400; ++i) pool.Submit(20 * kMicrosPerMilli);
  sim.Run();
  EXPECT_GT(pool.stats().scale_outs, 0u);
  EXPECT_GT(pool.executors(), 1u);
}

TEST(ElasticExecutorTest, ScalesBackInWhenIdle) {
  net::Simulator sim;
  ElasticExecutorPoolOptions opts;
  opts.min_executors = 1;
  opts.max_executors = 8;
  opts.evaluate_every = 10 * kMicrosPerMilli;
  ElasticExecutorPool pool(&sim, opts);
  for (int i = 0; i < 200; ++i) pool.Submit(5 * kMicrosPerMilli);
  sim.Run();
  // Trickle some light work so the autoscaler keeps ticking and shrinks.
  for (int i = 0; i < 20; ++i) {
    pool.Submit(kMicrosPerMilli);
    sim.Run();
  }
  EXPECT_GT(pool.stats().scale_ins, 0u);
}

TEST(ElasticExecutorTest, MoreExecutorsCutLatencyUnderBacklog) {
  auto p99_with_max = [](size_t max_executors) {
    net::Simulator sim;
    ElasticExecutorPoolOptions opts;
    opts.min_executors = 1;
    opts.max_executors = max_executors;
    opts.scale_out_delay = 10 * kMicrosPerMilli;
    opts.evaluate_every = 5 * kMicrosPerMilli;
    ElasticExecutorPool pool(&sim, opts);
    for (int i = 0; i < 300; ++i) pool.Submit(10 * kMicrosPerMilli);
    sim.Run();
    return pool.stats().task_latency.P99();
  };
  EXPECT_LT(p99_with_max(32), p99_with_max(1) * 0.5);
}

// ------------------------------------------------------- ServerlessRuntime

FunctionSpec Fn(const std::string& name) {
  FunctionSpec spec;
  spec.name = name;
  spec.cold_start = 200 * kMicrosPerMilli;
  spec.exec_time = 10 * kMicrosPerMilli;
  spec.memory_mb = 128;
  return spec;
}

TEST(ServerlessTest, FirstInvocationIsCold) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, /*keep_alive=*/kMicrosPerSecond);
  runtime.Register(Fn("f"));
  runtime.Invoke("f");
  sim.RunUntil(kMicrosPerSecond * 10);
  const auto& stats = runtime.stats_for("f");
  EXPECT_EQ(stats.invocations, 1u);
  EXPECT_EQ(stats.cold_starts, 1u);
  EXPECT_GE(stats.latency.min(), 210 * kMicrosPerMilli);
}

TEST(ServerlessTest, WarmReuseAvoidsColdStart) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, /*keep_alive=*/10 * kMicrosPerSecond);
  runtime.Register(Fn("f"));
  runtime.Invoke("f");
  sim.RunUntil(kMicrosPerSecond);  // completes; reclaim still pending
  // Second call shortly after: reuses the warm instance.
  runtime.Invoke("f");
  sim.RunUntil(2 * kMicrosPerSecond);
  const auto& stats = runtime.stats_for("f");
  EXPECT_EQ(stats.invocations, 2u);
  EXPECT_EQ(stats.cold_starts, 1u);
  EXPECT_DOUBLE_EQ(stats.ColdStartRatio(), 0.5);
}

TEST(ServerlessTest, KeepAliveExpiryForcesColdAgain) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, /*keep_alive=*/kMicrosPerSecond);
  runtime.Register(Fn("f"));
  runtime.Invoke("f");
  sim.Run();  // completes; instance warm until +1 s
  sim.RunUntil(sim.Now() + 5 * kMicrosPerSecond);  // reclaim fires
  EXPECT_EQ(runtime.warm_instances("f"), 0u);
  runtime.Invoke("f");
  sim.Run();
  EXPECT_EQ(runtime.stats_for("f").cold_starts, 2u);
}

TEST(ServerlessTest, ZeroKeepAliveAlwaysCold) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, /*keep_alive=*/0);
  runtime.Register(Fn("f"));
  for (int i = 0; i < 5; ++i) {
    runtime.Invoke("f");
    sim.Run();
  }
  EXPECT_EQ(runtime.stats_for("f").cold_starts, 5u);
  EXPECT_EQ(runtime.stats_for("f").idle_mb_ms, 0.0);
}

TEST(ServerlessTest, IdleCostAccruesWithKeepAlive) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, /*keep_alive=*/5 * kMicrosPerSecond);
  runtime.Register(Fn("f"));
  runtime.Invoke("f");
  sim.Run();
  sim.RunUntil(sim.Now() + 10 * kMicrosPerSecond);
  const auto& stats = runtime.stats_for("f");
  // Instance idled ~5 s at 128 MB => ~640000 MB-ms.
  EXPECT_NEAR(stats.idle_mb_ms, 128.0 * 5000.0, 128.0 * 100.0);
  EXPECT_DOUBLE_EQ(stats.billed_mb_ms, 128.0 * 10.0);
}

TEST(ServerlessTest, UnknownFunctionDropped) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, 0);
  runtime.Invoke("ghost");
  EXPECT_EQ(runtime.dropped(), 1u);
}

TEST(ServerlessTest, ConcurrentBurstSpawnsMultipleInstances) {
  net::Simulator sim;
  ServerlessRuntime runtime(&sim, /*keep_alive=*/10 * kMicrosPerSecond);
  runtime.Register(Fn("f"));
  // Burst of 4 with no gap: all cold (no instance is warm yet).
  for (int i = 0; i < 4; ++i) runtime.Invoke("f");
  sim.RunUntil(kMicrosPerSecond);  // all done; keep-alive still pending
  EXPECT_EQ(runtime.stats_for("f").cold_starts, 4u);
  EXPECT_EQ(runtime.warm_instances("f"), 4u);
  // Next burst of 4 reuses all warm instances.
  for (int i = 0; i < 4; ++i) runtime.Invoke("f");
  sim.RunUntil(2 * kMicrosPerSecond);
  EXPECT_EQ(runtime.stats_for("f").cold_starts, 4u);
}

}  // namespace
}  // namespace deluge::runtime
