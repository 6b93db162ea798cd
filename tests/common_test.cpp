// Unit tests for the common substrate: Status/Result, string utilities,
// deterministic RNG and Zipf sampling, hashing, binary IO, file helpers,
// and compression.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/compression.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace prost {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("missing table");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing table");
  EXPECT_EQ(status.ToString(), "not_found: missing table");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  for (const Status& status :
       {Status::InvalidArgument(""), Status::NotFound(""),
        Status::AlreadyExists(""), Status::OutOfRange(""),
        Status::Unimplemented(""), Status::Internal(""), Status::IOError(""),
        Status::Corruption(""), Status::ParseError(""),
        Status::ResourceExhausted(""), Status::Unavailable(""),
        Status::DeadlineExceeded("")}) {
    EXPECT_FALSE(status.ok());
    codes.insert(status.code());
  }
  EXPECT_EQ(codes.size(), 12u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorruption), "corruption");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "parse_error");
}

TEST(StatusCodeTest, EveryCodeRoundTripsThroughItsName) {
  // code → factory → code() → name: each enumerator keeps a distinct,
  // stable lowercase name (nothing falls through to "unknown").
  const std::pair<StatusCode, const char*> kCodes[] = {
      {StatusCode::kOk, "ok"},
      {StatusCode::kInvalidArgument, "invalid_argument"},
      {StatusCode::kNotFound, "not_found"},
      {StatusCode::kAlreadyExists, "already_exists"},
      {StatusCode::kOutOfRange, "out_of_range"},
      {StatusCode::kUnimplemented, "unimplemented"},
      {StatusCode::kInternal, "internal"},
      {StatusCode::kIOError, "io_error"},
      {StatusCode::kCorruption, "corruption"},
      {StatusCode::kParseError, "parse_error"},
      {StatusCode::kResourceExhausted, "resource_exhausted"},
      {StatusCode::kUnavailable, "unavailable"},
      {StatusCode::kDeadlineExceeded, "deadline_exceeded"},
  };
  for (const auto& [code, name] : kCodes) {
    EXPECT_STREQ(StatusCodeToString(code), name);
    EXPECT_EQ(Status(code, "m").code(), code);
    // An ok Status renders as bare "ok" — it never carries a message.
    std::string expected =
        code == StatusCode::kOk ? "ok" : std::string(name) + ": m";
    EXPECT_EQ(Status(code, "m").ToString(), expected);
  }
}

TEST(StatusTest, DeadlineExceededFactory) {
  Status status = Status::DeadlineExceeded("socket read deadline exceeded");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.ToString(),
            "deadline_exceeded: socket read deadline exceeded");
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string(1000, 'x');
  std::string value = std::move(result).value();
  EXPECT_EQ(value.size(), 1000u);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  PROST_ASSIGN_OR_RETURN(int half, HalveEven(x));
  PROST_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterViaMacro(8).value(), 2);
  EXPECT_EQ(QuarterViaMacro(6).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QuarterViaMacro(5).status().code(),
            StatusCode::kInvalidArgument);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status CheckBoth(int a, int b) {
  PROST_RETURN_IF_ERROR(FailIfNegative(a));
  PROST_RETURN_IF_ERROR(FailIfNegative(b));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckBoth(1, 2).ok());
  EXPECT_FALSE(CheckBoth(-1, 2).ok());
  EXPECT_FALSE(CheckBoth(1, -2).ok());
}

// -------------------------------------------------------------- StrUtil

TEST(StrUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrUtilTest, StrSplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, StrTrim) {
  EXPECT_EQ(StrTrim("  x \t"), "x");
  EXPECT_EQ(StrTrim("\r\n"), "");
  EXPECT_EQ(StrTrim("no-trim"), "no-trim");
}

TEST(StrUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StrUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(2u * 1024 * 1024 * 1024ull + 100 * 1024 * 1024),
            "2.1 GB");
}

TEST(StrUtilTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(1195), "1,195ms");
  EXPECT_EQ(HumanDuration(25 * 60000.0 + 32000), "25m 32s");
  EXPECT_EQ(HumanDuration(3 * 3600000.0 + 11 * 60000 + 44000), "3h 11m 44s");
}

TEST(StrUtilTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(2195322), "2,195,322");
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(42);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(3);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(4);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfGenerator zipf(100, 0.9);
  Rng rng(5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  // Rank 0 strictly more popular than rank 10, which beats rank 50.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[50]);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(7, 1.2);
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 7u);
  }
}

TEST(ZipfTest, SingleItemAlwaysZero) {
  ZipfGenerator zipf(1, 0.5);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ZipfTest, SkewOneUsesLogBranch) {
  ZipfGenerator zipf(50, 1.0);
  Rng rng(8);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[20]);
}

// ----------------------------------------------------------------- Hash

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit flips roughly half the output bits.
  uint64_t base = Mix64(0x1234567890abcdefULL);
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t flipped = Mix64(0x1234567890abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(base ^ flipped);
  }
  double avg = total_flips / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, HashBytesDistinguishes) {
  EXPECT_NE(HashBytes("a"), HashBytes("b"));
  EXPECT_NE(HashBytes(""), HashBytes("a"));
  EXPECT_EQ(HashBytes("same"), HashBytes("same"));
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ------------------------------------------------------------- Byte IO

TEST(ByteIoTest, PrimitivesRoundTrip) {
  ByteWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutVarint(0);
  writer.PutVarint(127);
  writer.PutVarint(128);
  writer.PutVarint(~0ull);
  writer.PutString("hello");
  writer.PutString("");

  ByteReader reader(writer.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64, v;
  std::string s;
  ASSERT_TRUE(reader.GetU8(&u8).ok());
  EXPECT_EQ(u8, 7);
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  EXPECT_EQ(u32, 0xdeadbeefu);
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  for (uint64_t expected : {0ull, 127ull, 128ull, ~0ull}) {
    ASSERT_TRUE(reader.GetVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ(s, "");
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIoTest, TruncationIsCorruption) {
  ByteWriter writer;
  writer.PutU64(1);
  std::string_view half(writer.buffer().data(), 4);
  ByteReader reader(half);
  uint64_t v;
  EXPECT_EQ(reader.GetU64(&v).code(), StatusCode::kCorruption);
}

TEST(ByteIoTest, TruncatedVarintIsCorruption) {
  std::string bytes = "\xff";  // Continuation bit set, nothing follows.
  ByteReader reader(bytes);
  uint64_t v;
  EXPECT_EQ(reader.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(ByteIoTest, OverlongVarintIsCorruption) {
  std::string bytes(11, '\xff');
  ByteReader reader(bytes);
  uint64_t v;
  EXPECT_EQ(reader.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(ByteIoTest, RemainingCountsUnreadBytes) {
  ByteReader reader("abcdef");
  EXPECT_EQ(reader.remaining(), 6u);
  uint32_t u32;
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  EXPECT_EQ(reader.remaining(), 2u);
  EXPECT_FALSE(reader.GetU32(&u32).ok());
}

// -------------------------------------------------------------- File IO

TEST(FileIoTest, WriteReadRoundTrip) {
  std::string dir = ::testing::TempDir() + "/prost_io_test";
  ASSERT_TRUE(MakeDirectories(dir + "/nested/deeper").ok());
  std::string path = dir + "/nested/file.bin";
  std::string payload = "binary\0data", read_back;
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  ASSERT_TRUE(ReadFileToString(path, &read_back).ok());
  EXPECT_EQ(read_back, payload);
  EXPECT_GE(DirectorySize(dir).value(), payload.size());
  ASSERT_TRUE(RemoveAllRecursively(dir).ok());
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(FileIoTest, MissingFileErrors) {
  std::string contents;
  EXPECT_EQ(ReadFileToString("/nonexistent/prost/file", &contents).code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------- Compression

TEST(CompressionTest, RoundTrip) {
  std::string input;
  for (int i = 0; i < 1000; ++i) {
    input += "<http://db.uwaterloo.ca/~galuc/wsdbm/User" +
             std::to_string(i % 100) + ">\n";
  }
  auto compressed = DeflateCompress(input);
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->size(), input.size() / 2);
  auto restored = DeflateDecompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

TEST(CompressionTest, EmptyInput) {
  auto compressed = DeflateCompress("");
  ASSERT_TRUE(compressed.ok());
  auto restored = DeflateDecompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

TEST(CompressionTest, GarbageInputIsCorruption) {
  auto restored = DeflateDecompress("definitely not deflate data");
  EXPECT_FALSE(restored.ok());
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 10000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.ParallelFor(kTasks, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "fn must not run"; });
}

TEST(ThreadPoolTest, BackToBackRegionsStayIsolated) {
  // Regression guard for the quiesce protocol: a region's tasks must all
  // land before the next region refills the shards.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    size_t n = 1 + static_cast<size_t>(round) * 7 % 97;
    pool.ParallelFor(n, [&](size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, TinyRegionsRetiredBeforeWorkersWake) {
  // Regression: with far more threads than tasks, the caller can drain
  // every task and retire the region before any pool worker wakes. A
  // late-waking worker must skip the retired region (fn_ is cleared)
  // instead of dereferencing it. Recreating the pool each round keeps
  // workers cold so the late-wake window stays hot.
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(8);
    std::atomic<int> hits{0};
    pool.ParallelFor(2, [&](size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, TinyThenLargeRegionsStayCorrect) {
  // A worker that missed a tiny (already-retired) region must still
  // latch the next generation and run the following region's tasks.
  ThreadPool pool(8);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> tiny_hits{0};
    pool.ParallelFor(2, [&](size_t) {
      tiny_hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(tiny_hits.load(), 2) << "round " << round;
    constexpr size_t kTasks = 64;
    std::atomic<size_t> sum{0};
    pool.ParallelFor(kTasks, [&](size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 1000;
  std::vector<uint64_t> out(kTasks, 0);
  pool.ParallelFor(kTasks, [&](size_t i) {
    out[i] = Mix64(i);  // Each task writes only its own slot.
  });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(out[i], Mix64(i));
}

// ----------------------------------------------------------------- Mutex

// A tiny guarded class in the house style: the annotations make these
// tests compile (not just run) under the Clang thread-safety CI leg.
class GuardedCounter {
 public:
  void Increment() {
    MutexLock lock(mu_);
    ++count_;
  }
  int Get() {
    MutexLock lock(mu_);
    return count_;
  }

 private:
  Mutex<LockRank::kLeaf> mu_;
  int count_ PROST_GUARDED_BY(mu_) = 0;
};

TEST(MutexTest, MutualExclusionAcrossThreads) {
  GuardedCounter counter;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Get(), kThreads * kIncrements);
}

TEST(MutexTest, TryLockRefusedWhileHeldElsewhere) {
  Mutex<LockRank::kLeaf> mu;
  mu.Lock();
  bool acquired = false;
  std::thread prober([&] {
    if (mu.TryLock()) {
      acquired = true;
      mu.Unlock();
    }
  });
  prober.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  bool reacquired = false;
  if (mu.TryLock()) {
    reacquired = true;
    mu.Unlock();
  }
  EXPECT_TRUE(reacquired);
}

TEST(MutexTest, OrderedNestingAndNonLifoReleaseAreLegal) {
  // Ascending-rank nesting is the sanctioned order; releases may happen
  // in any order (the rank checker matches releases by rank, not LIFO).
  Mutex<LockRank::kServeSession> outer;
  Mutex<LockRank::kThreadPoolControl> inner;
  outer.Lock();
  inner.Lock();
  outer.Unlock();  // Non-LIFO: outer goes first.
  inner.Unlock();
  EXPECT_EQ(internal::RankHeldDepth(), 0);
}

TEST(MutexLockTest, UnlockRelockWindow) {
  // The WorkerLoop pattern: drop the lock around a lock-free section,
  // retake it after.
  GuardedCounter counter;
  Mutex<LockRank::kThreadPoolControl> mu;
  MutexLock lock(mu);
  lock.Unlock();
  counter.Increment();  // kLeaf-ranked acquire while holding nothing.
  lock.Lock();
  EXPECT_EQ(counter.Get(), 1);
}

TEST(MutexTest, TryLockUnderContentionNeverBreaksExclusion) {
  // Hammer TryLock from several threads against a blocking holder: a
  // successful TryLock must really own the mutex (the critical-section
  // counter may never see two owners), failures are clean no-ops, and
  // every thread eventually succeeds at least once (no livelock — Lock
  // releases often enough that a polling TryLock gets through).
  Mutex<LockRank::kLeaf> mu;
  int owners = 0;       // Guarded by mu (a local, so no annotation).
  int max_owners = 0;   // Ditto.
  constexpr int kThreads = 4;
  constexpr int kSuccessesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int successes = 0;
      while (successes < kSuccessesPerThread) {
        if (!mu.TryLock()) continue;
        ++owners;
        if (owners > max_owners) max_owners = owners;
        --owners;
        mu.Unlock();
        ++successes;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(max_owners, 1);
  EXPECT_EQ(owners, 0);
}

TEST(CondVarTest, MultiWaiterWakeupRespectsTicketOrder) {
  // N waiters park on one CondVar, each admitted only when the shared
  // `turn` reaches its ticket — the SessionManager FIFO-admission shape.
  // NotifyAll plus a per-ticket predicate must release them in exactly
  // ticket order regardless of scheduling, and no waiter may proceed
  // before its turn.
  Mutex<LockRank::kThreadPoolControl> mu;
  CondVar cv;
  constexpr int kWaiters = 6;
  int turn = 0;                 // Guarded by mu.
  int started = 0;              // Guarded by mu.
  std::vector<int> wake_order;  // Guarded by mu.
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int ticket = 0; ticket < kWaiters; ++ticket) {
    waiters.emplace_back([&, ticket] {
      MutexLock lock(mu);
      ++started;
      cv.NotifyAll();  // Unblocks the main thread's "all parked" wait.
      while (turn != ticket) cv.Wait(mu);
      wake_order.push_back(ticket);
      ++turn;
      cv.NotifyAll();
    });
  }
  {
    MutexLock lock(mu);
    // Park until every waiter has entered the monitor at least once, so
    // later NotifyAll calls genuinely fan out to multiple waiters.
    while (started < kWaiters) cv.Wait(mu);
  }
  for (std::thread& waiter : waiters) waiter.join();
  MutexLock lock(mu);
  ASSERT_EQ(wake_order.size(), static_cast<size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) EXPECT_EQ(wake_order[i], i);
  EXPECT_EQ(turn, kWaiters);
}

TEST(CondVarTest, HandoffWakesWaiter) {
  // `ready` is a local, so it carries no PROST_GUARDED_BY (the attribute
  // applies to members and globals); the MutexLock on both sides is the
  // guard.
  Mutex<LockRank::kThreadPoolControl> mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

#if PROST_LOCK_RANK_CHECKS

// Violations are funneled through a no-analysis helper: the whole point
// of these tests is to execute acquisition orders the static analysis
// (correctly) rejects at compile time, and prove the *dynamic* checker
// catches them too.
void AcquireBoth(MutexBase& first,
                 MutexBase& second) PROST_NO_THREAD_SAFETY_ANALYSIS {
  first.Lock();
  second.Lock();
  second.Unlock();
  first.Unlock();
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  Mutex<LockRank::kThreadPoolControl> later;
  Mutex<LockRank::kServeSession> earlier;
  EXPECT_DEATH(AcquireBoth(later, earlier), "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  // Two distinct mutexes of one rank must never nest (no relative order
  // is defined, so two threads nesting them in opposite orders would
  // deadlock).
  Mutex<LockRank::kThreadPoolRegion> a;
  Mutex<LockRank::kThreadPoolRegion> b;
  EXPECT_DEATH(AcquireBoth(a, b), "lock-rank violation");
}

TEST(LockRankDeathTest, SelfDeadlockAbortsInsteadOfHanging) {
  // Re-acquiring a non-recursive mutex would block forever; the checker
  // turns it into an immediate abort.
  Mutex<LockRank::kLeaf> mu;
  EXPECT_DEATH(AcquireBoth(mu, mu), "lock-rank violation");
}

// gtest macros hide lock calls behind opaque control flow the analysis
// cannot follow, so these two helpers keep the raw acquisitions out of
// macro arguments.
bool TryAcquire(MutexBase& mu) PROST_NO_THREAD_SAFETY_ANALYSIS {
  return mu.TryLock();
}
void ReleaseHeld(MutexBase& mu) PROST_NO_THREAD_SAFETY_ANALYSIS {
  mu.Unlock();
}

TEST(LockRankDeathTest, TryLockRankIsStillRecorded) {
  // TryLock itself is exempt from the order abort (it cannot deadlock),
  // but the rank it acquired must constrain later blocking acquires.
  Mutex<LockRank::kMetricsRegistry> high;
  Mutex<LockRank::kServeSession> low;
  ASSERT_TRUE(TryAcquire(high));
  EXPECT_EQ(internal::RankHeldDepth(), 1);
  EXPECT_DEATH(AcquireBoth(low, low), "lock-rank violation");
  ReleaseHeld(high);
  EXPECT_EQ(internal::RankHeldDepth(), 0);
}

TEST(LockRankTest, HeldDepthTracksTheStack) {
  Mutex<LockRank::kServeSession> outer;
  Mutex<LockRank::kMetricsRegistry> inner;
  EXPECT_EQ(internal::RankHeldDepth(), 0);
  {
    MutexLock lock(outer);
    EXPECT_EQ(internal::RankHeldDepth(), 1);
    {
      MutexLock nested(inner);
      EXPECT_EQ(internal::RankHeldDepth(), 2);
    }
    EXPECT_EQ(internal::RankHeldDepth(), 1);
  }
  EXPECT_EQ(internal::RankHeldDepth(), 0);
}

#endif  // PROST_LOCK_RANK_CHECKS

}  // namespace
}  // namespace prost
