// Runtime regressions for the PR 8 concurrency pass: the zs::Mutex /
// zs::CondVar wrappers (src/common/sync.h), the explicit-predicate-loop
// rewrite of MpscRingQueue, and the two data races the annotation audit
// surfaced — std::strerror's static buffer (now ErrnoToString) and the
// plain LogLevel global (now a relaxed atomic). The multi-threaded
// cases here are the ones the CI tsan job runs; under TSan they fail
// loudly if any of those fixes regresses.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "runtime/match_sink.h"
#include "runtime/mpsc_queue.h"

namespace zstream {
namespace {

TEST(SyncTest, GuardedCounterUnderContention) {
  zs::Mutex mu;
  int counter ZS_GUARDED_BY(mu) = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        zs::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();

  zs::MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncTest, TryLockRefusesHeldMutex) {
  zs::Mutex mu;
  mu.Lock();
  std::atomic<bool> acquired{true};
  // TryLock from another thread: trying from this thread is UB on
  // std::mutex.
  std::thread probe([&] {
    if (mu.TryLock()) {
      mu.Unlock();
    } else {
      acquired = false;
    }
  });
  probe.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, CondVarHandoff) {
  zs::Mutex mu;
  zs::CondVar cv;
  bool ready ZS_GUARDED_BY(mu) = false;
  int seen = -1;

  std::thread waiter([&] {
    zs::MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    seen = 42;
  });
  {
    zs::MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_EQ(seen, 42);
}

TEST(SyncTest, SharedMutexAllowsConcurrentReaders) {
  zs::SharedMutex mu;
  int value ZS_GUARDED_BY(mu) = 0;
  {
    zs::WriterMutexLock lock(mu);
    value = 7;
  }
  std::atomic<int> readers_in{0};
  std::atomic<int> max_concurrent{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        zs::ReaderMutexLock lock(mu);
        const int in = ++readers_in;
        int prev = max_concurrent.load();
        while (in > prev && !max_concurrent.compare_exchange_weak(prev, in)) {
        }
        EXPECT_EQ(value, 7);
        --readers_in;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Not guaranteed by the standard, but with 4 spinning readers it is
  // effectively certain; the real assertion is TSan silence above.
  EXPECT_GE(max_concurrent.load(), 1);
}

TEST(SyncTest, MpscQueueDeliversAllItemsAcrossProducers) {
  runtime::MpscRingQueue<int> queue(16, /*drain_budget_ns=*/1000);
  queue.SetDrainCost(1);  // the capacity binds, not the budget
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        ASSERT_TRUE(queue.Push(&v));
      }
    });
  }

  std::vector<int> received;
  std::thread consumer([&] {
    int item = 0;
    while (queue.Pop(&item)) received.push_back(item);
  });

  for (auto& th : producers) th.join();
  queue.Close();
  consumer.join();

  ASSERT_EQ(received.size(),
            static_cast<size_t>(kProducers * kPerProducer));
  std::sort(received.begin(), received.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(received[static_cast<size_t>(i)], i);
  }
}

TEST(SyncTest, MpscQueueCloseUnblocksFullQueueProducers) {
  runtime::MpscRingQueue<int> queue(2, /*drain_budget_ns=*/1000);
  queue.SetDrainCost(1);
  int v = 1;
  ASSERT_TRUE(queue.Push(&v));
  v = 2;
  ASSERT_TRUE(queue.Push(&v));
  v = 3;
  EXPECT_EQ(queue.TryPush(&v, 1, [](int*, size_t) {}), 0u);

  std::atomic<bool> push_returned{false};
  std::thread blocked([&] {
    // Blocks on the full ring until Close; must return false, not hang.
    int w = 4;
    EXPECT_FALSE(queue.Push(&w));
    push_returned = true;
  });
  queue.Close();
  blocked.join();
  EXPECT_TRUE(push_returned.load());

  // Closed queue still drains what was placed before the close.
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(SyncTest, MpscQueueRunsHonorCapacityBackpressure) {
  // Items of 1..4 units through a 4-unit queue: a run is one slot.
  runtime::MpscRingQueue<std::vector<int>> queue(4, /*drain_budget_ns=*/1000);
  queue.SetDrainCost(1);

  std::vector<int> received;
  std::thread consumer([&] {
    std::vector<int> run;
    while (queue.Pop(&run)) {
      received.insert(received.end(), run.begin(), run.end());
      run.clear();  // goes back to the ring for the producer to reuse
    }
  });

  std::vector<int> run;
  for (int i = 0, len = 1; i < 100; i += len, len = len % 4 + 1) {
    run.clear();
    for (int k = i; k < std::min(i + len, 100); ++k) run.push_back(k);
    ASSERT_TRUE(queue.Push(&run, run.size()));
    EXPECT_TRUE(run.empty());  // handed back emptied, never a live run
  }
  queue.Close();
  consumer.join();

  // Single producer: FIFO order must survive.
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], i);
  }
}

TEST(SyncTest, ErrnoToStringIsThreadSafe) {
  // Regression for the std::strerror static-buffer race: concurrent
  // callers with different errnos must each get their own text.
  const std::string enoent = ErrnoToString(ENOENT);
  const std::string eacces = ErrnoToString(EACCES);
  ASSERT_NE(enoent, eacces);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const int err = (t % 2 == 0) ? ENOENT : EACCES;
      const std::string& expected = (t % 2 == 0) ? enoent : eacces;
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(ErrnoToString(err), expected);
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(SyncTest, ErrnoToStringUnknownErrno) {
  // Must return something printable, never crash or return empty.
  EXPECT_FALSE(ErrnoToString(0).empty());
  EXPECT_FALSE(ErrnoToString(-1).empty());
  EXPECT_FALSE(ErrnoToString(1 << 20).empty());
}

TEST(SyncTest, LogLevelIsRaceFreeUnderConcurrentToggles) {
  // Regression for the plain (non-atomic) g_level global: flipping the
  // level while other threads log concurrently is exactly what the net
  // server does when a client sends a control frame mid-traffic.
  const LogLevel initial = GetLogLevel();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 500; ++i) {
      SetLogLevel(i % 2 == 0 ? LogLevel::kError : LogLevel::kWarn);
    }
    stop = true;
  });
  std::vector<std::thread> loggers;
  for (int t = 0; t < 3; ++t) {
    loggers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Below both toggled levels, so nothing is printed — the test
        // exercises the level load, not stderr.
        ZS_LOG(Debug) << "concurrency probe";
      }
    });
  }
  toggler.join();
  for (auto& th : loggers) th.join();
  SetLogLevel(initial);
}

TEST(SyncTest, CallbackMatchSinkSerializesPublish) {
  // The callback below is deliberately not thread-safe; the sink's
  // internal mutex is what makes this test pass (and TSan-clean).
  std::vector<int64_t> seen;
  runtime::CallbackMatchSink sink(
      [&seen](runtime::RuntimeMatch&& m) { seen.push_back(m.query); });

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        runtime::RuntimeMatch m;
        m.query = t;
        sink.Publish(std::move(m));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(SyncTest, CollectingMatchSinkConcurrentPublishAndSize) {
  runtime::CollectingMatchSink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        runtime::RuntimeMatch m;
        m.query = t;
        m.shard = i;
        sink.Publish(std::move(m));
        (void)sink.size();  // concurrent reader on the guarded vector
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sink.size(), 2000u);
  EXPECT_EQ(sink.Take().size(), 2000u);
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace zstream
