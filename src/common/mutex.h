#ifndef PROST_COMMON_MUTEX_H_
#define PROST_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/thread_annotations.h"

/// The annotated locking layer. Every mutex and condition variable in the
/// codebase lives on these wrappers (tools/lint.py `raw-concurrency`
/// forbids the std primitives anywhere else), which buys two checkers:
///
///  * static  — the PROST_* capability attributes make Clang's
///    `-Wthread-safety` analysis prove that every PROST_GUARDED_BY field
///    is only touched under its mutex (PROST_THREAD_SAFETY CMake option;
///    negative-compile proof in tests/thread_safety/);
///  * dynamic — each Mutex carries a compile-time LockRank, and debug /
///    paranoid builds keep a per-thread stack of held ranks, aborting the
///    moment any thread acquires out of rank order. Ranks totally order
///    the lock hierarchy, so a clean run proves deadlock-freedom for the
///    orders actually executed; see DESIGN.md §11 for the hierarchy.

// The runtime lock-rank checker rides in debug and sanitizer builds
// (sanitizer builds define PROST_PARANOID_CHECKS, so the TSan CI leg
// runs the dynamic rank checker and TSan together); release builds pay
// nothing.
#if !defined(NDEBUG) || defined(PROST_PARANOID_CHECKS)
#define PROST_LOCK_RANK_CHECKS 1
#endif

namespace prost {

/// The global lock hierarchy: a thread may only acquire a mutex whose
/// rank is *strictly greater* than every rank it already holds, so any
/// cross-thread acquisition cycle is impossible. Gaps leave room for new
/// subsystems. One rank per mutex *role* — two same-rank mutexes must
/// never nest (the checker enforces this too, which catches self-deadlock
/// on a single mutex).
enum class LockRank : int {
  /// net::Server::mu_ — the network front end's lifecycle state, pending
  /// accepted-connection queue, and handler bookkeeping. Outermost of
  /// all: a connection handler holding nothing else calls down into
  /// serve::SessionManager (kServeSession), so the net rank sits below
  /// every other rank in the hierarchy. Never held across a request
  /// execution or a socket write.
  kNetServer = 50,
  /// serve::SessionManager::mu_ — admission control (in-flight count,
  /// queue tickets, lifecycle state). Outermost below the net front end,
  /// and held only around state transitions — never across a query
  /// execution — so the serve layer adds queueing without ever stacking
  /// under the engine's locks.
  kServeSession = 100,
  /// ThreadPool::mu_ — the open-region list and shutdown flag.
  kThreadPoolControl = 300,
  /// ThreadPool::Region::mu — one region's completion latch (the
  /// done flag its caller quiesces on). Never nested with
  /// kThreadPoolControl in either order; ranked above it so the latch
  /// could legally be taken under control if that ever changed.
  kThreadPoolRegion = 400,
  /// columnar::BufferPool::mu_ — frame map, LRU state, resident-byte
  /// accounting. Acquired by scan workers inside parallel regions (hence
  /// above kThreadPoolRegion) and never held across a chunk decode (the
  /// pool drops it around decoding, see BufferPool::Pin), so nothing
  /// below it is ever requested while it is held; metric updates from
  /// pool paths go through lock-free counter handles, not the registry
  /// mutex, but kMetricsRegistry stays legally acquirable above.
  kBufferPool = 450,
  /// obs::MetricsRegistry::mu_ — metric registration/snapshot. A leaf in
  /// practice (registries never call out while locked); ranked above the
  /// pool so load-time metric updates from inside parallel regions would
  /// still be legal.
  kMetricsRegistry = 500,
  /// Strictly-leaf mutexes: never held while acquiring anything else.
  kLeaf = 1000,
};

namespace internal {

#if PROST_LOCK_RANK_CHECKS
/// Aborts (with a diagnostic on stderr) if acquiring `rank` now would
/// violate the hierarchy; called *before* blocking so the abort fires
/// instead of the deadlock.
void RankCheckAcquire(int rank);
/// Pushes `rank` onto the calling thread's held stack.
void RankNoteAcquired(int rank);
/// Removes `rank` from the held stack (unlock order need not be LIFO);
/// aborts if the thread does not hold a mutex of that rank.
void RankNoteReleased(int rank);
/// Test hook: current depth of the calling thread's held-rank stack.
int RankHeldDepth();
#else
inline void RankCheckAcquire(int) {}
inline void RankNoteAcquired(int) {}
inline void RankNoteReleased(int) {}
inline int RankHeldDepth() { return 0; }
#endif

class CondVarWaitAdapter;

}  // namespace internal

/// Rank-erased annotated mutex. Use the `Mutex<LockRank>` template below
/// for members; MutexBase exists so MutexLock and CondVar work across
/// ranks. Non-recursive, non-copyable.
class PROST_CAPABILITY("mutex") MutexBase {
 public:
  MutexBase(const MutexBase&) = delete;
  MutexBase& operator=(const MutexBase&) = delete;

  /// Blocks until the mutex is held. Aborts in checked builds if the
  /// calling thread already holds a mutex of equal or greater rank.
  void Lock() PROST_ACQUIRE();

  void Unlock() PROST_RELEASE();

  /// Non-blocking acquire. Exempt from the rank-order *abort* (a try
  /// can't deadlock), but a successful TryLock still pushes its rank, so
  /// later blocking acquires are checked against it.
  bool TryLock() PROST_TRY_ACQUIRE(true);

  int rank() const { return rank_; }

 protected:
  explicit MutexBase(int rank) : rank_(rank) {}
  ~MutexBase() = default;

 private:
  friend class internal::CondVarWaitAdapter;

  /// Unannotated acquire/release for CondVar's wait, which releases and
  /// reacquires mid-scope where the static analysis still considers the
  /// mutex held (the REQUIRES contract on Wait stays true at entry and
  /// exit). Rank bookkeeping is identical to Lock/Unlock.
  void LockForWait();
  void UnlockForWait();

  std::mutex mu_;
  const int rank_;
};

/// An annotated mutex with its hierarchy position fixed at compile time:
///
///   Mutex<LockRank::kThreadPoolControl> mu_;
///   uint64_t generation_ PROST_GUARDED_BY(mu_) = 0;
template <LockRank kRank>
class PROST_CAPABILITY("mutex") Mutex final : public MutexBase {
 public:
  static constexpr LockRank kLockRank = kRank;
  Mutex() : MutexBase(static_cast<int>(kRank)) {}
};

/// RAII lock, scoped-capability annotated. Unlock()/Lock() support the
/// worker-loop pattern of dropping the lock around a callback.
class PROST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(MutexBase& mu) PROST_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() PROST_RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (the destructor then does nothing).
  void Unlock() PROST_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

  /// Reacquires after Unlock().
  void Lock() PROST_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  MutexBase& mu_;
  bool held_ = true;
};

/// Condition variable bound to MutexBase. Wait releases the mutex while
/// blocked and reacquires before returning (rank bookkeeping included),
/// like std::condition_variable — but the static analysis sees the mutex
/// as continuously held across Wait, which matches what callers may
/// assume about their PROST_GUARDED_BY state at every *observable* point.
/// Spurious wakeups happen: always wait in a predicate loop (or use the
/// predicate overload).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One wait, spurious wakeups included; callers loop on their
  /// predicate (a lambda-predicate overload would defeat the static
  /// analysis: lambda bodies are analyzed as unannotated functions, so
  /// reading guarded state inside one is a thread-safety error — the
  /// explicit `while (!pred) cv.Wait(mu);` form keeps the guarded reads
  /// in the annotated caller).
  void Wait(MutexBase& mu) PROST_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// Runs one function once across threads (std::call_once), for state
/// built on first use and read-only afterwards: concurrent callers of
/// Call wait for the one run, and every caller returns after it with its
/// writes visible. Holds no ranked mutex, so a caller may hold any.
class Once {
 public:
  Once() = default;
  Once(const Once&) = delete;
  Once& operator=(const Once&) = delete;

  template <typename Fn>
  void Call(Fn&& fn) {
    std::call_once(flag_, std::forward<Fn>(fn));
  }

 private:
  std::once_flag flag_;
};

}  // namespace prost

#endif  // PROST_COMMON_MUTEX_H_
