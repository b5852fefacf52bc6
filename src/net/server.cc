#include "net/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame_reassembler.h"
#include "net/socket_util.h"
#include "secagg/sharded_coordinator.h"

#if defined(__linux__)
#define SMM_NET_POSIX 1
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace smm::net {

#if defined(SMM_NET_POSIX)

namespace {

/// What an epoll_event.data.ptr points at. Every registered fd carries one
/// Tag whose lifetime matches the registration.
enum class TagKind : uint8_t { kWake, kListener, kConn };

struct ServedSession;

struct Tag {
  TagKind kind;
  void* target = nullptr;  // ServedSession* or Connection* (kWake: unused).
};

using SteadyClock = std::chrono::steady_clock;

/// One accepted client connection, pinned to its session's event loop.
struct Connection {
  UniqueFd fd;
  ServedSession* session = nullptr;
  FrameReassembler reassembler;
  /// Last time this connection completed a frame (or was accepted). Bytes
  /// that never finish a frame do NOT refresh it — that is exactly the
  /// slow-loris signature the idle timeout evicts on.
  SteadyClock::time_point last_frame_activity = SteadyClock::now();
  /// The queued broadcast (at most one SumMsg frame — the bounded
  /// per-connection outbound buffer) and the flush cursor into it.
  std::vector<uint8_t> outbound;
  size_t outbound_off = 0;
  /// Close gracefully once outbound is flushed.
  bool closing = false;
  /// Count the eventual close as dropped (abnormal teardown) in stats.
  bool drop_on_close = false;
  /// The peer half-closed its sending side (clean EOF seen).
  bool read_closed = false;
  Tag tag{TagKind::kConn, this};

  Connection(UniqueFd f, ServedSession* s, size_t max_frame)
      : fd(std::move(f)), session(s), reassembler(max_frame) {}
};

/// One aggregation round: listener + session + its open connections, all
/// owned by (and only touched from) one event loop thread.
struct ServedSession {
  uint64_t id = 0;
  UniqueFd listener;
  std::unique_ptr<secagg::AggregationSession> session;
  size_t expected = 0;
  std::vector<Connection*> conns;
  bool finalized = false;
  /// Round deadline (valid iff has_deadline): at expiry the loop finalizes
  /// with the survivor set when contributions() >= min_contributions, else
  /// fails the round with kDeadlineExceeded.
  bool has_deadline = false;
  SteadyClock::time_point deadline{};
  size_t min_contributions = 0;
  Tag tag{TagKind::kListener, this};
};

Status EpollCtl(int epfd, int op, int fd, uint32_t events, Tag* tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  if (::epoll_ctl(epfd, op, fd, op == EPOLL_CTL_DEL ? nullptr : &ev) != 0) {
    return InternalError(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  return OkStatus();
}

}  // namespace

struct AggregationServer::Impl {
  struct AtomicStats {
    std::atomic<uint64_t> sessions_opened{0};
    std::atomic<uint64_t> sessions_completed{0};
    std::atomic<uint64_t> sessions_failed{0};
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_dropped{0};
    std::atomic<uint64_t> frames_delivered{0};
    std::atomic<uint64_t> frames_rejected{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> bytes_written{0};
    std::atomic<uint64_t> sessions_deadline_exceeded{0};
    std::atomic<uint64_t> sessions_quorum_finalized{0};
    std::atomic<uint64_t> connections_evicted{0};
  };

  struct Loop {
    Impl* impl = nullptr;
    UniqueFd epoll_fd;
    UniqueFd wake_fd;
    std::thread thread;
    Tag wake_tag{TagKind::kWake, nullptr};

    /// Commands posted by other threads, run on this loop's thread.
    std::mutex mu;
    std::vector<std::function<void()>> commands;

    /// Loop-thread-only state.
    std::unordered_map<uint64_t, std::unique_ptr<ServedSession>> sessions;
    std::unordered_map<Connection*, std::unique_ptr<Connection>> conns;

    /// Objects closed/retired during the current epoll batch. epoll_wait
    /// snapshots Tag pointers; a later event in the same batch may still
    /// carry a pointer into an object an earlier event tore down, so the
    /// memory must stay valid until the batch ends.
    std::vector<std::unique_ptr<Connection>> conn_graveyard;
    std::vector<std::unique_ptr<ServedSession>> session_graveyard;
  };

  Options options;
  std::vector<std::unique_ptr<Loop>> loops;
  std::atomic<bool> stopping{false};
  bool joined = false;
  std::mutex stop_mu;  // Serializes Stop against itself.

  std::atomic<uint64_t> next_session_id{1};
  std::atomic<size_t> next_loop{0};

  /// Which loop owns which session id (written at OpenSession, read by
  /// FinalizeSession / WaitForSum / Stop).
  std::mutex routes_mu;
  std::unordered_map<uint64_t, size_t> routes;

  /// Finished rounds: the broadcast SumMsg or the failure status.
  std::mutex results_mu;
  std::condition_variable results_cv;
  std::unordered_map<uint64_t, StatusOr<secagg::SumMsg>> results;

  AtomicStats stats;

  void Wake(Loop& loop) {
    const uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
    (void)!::write(loop.wake_fd.get(), &one, sizeof(one));
  }

  void Post(Loop& loop, std::function<void()> command) {
    {
      std::lock_guard<std::mutex> lock(loop.mu);
      loop.commands.push_back(std::move(command));
    }
    Wake(loop);
  }

  void PublishResult(uint64_t id, StatusOr<secagg::SumMsg> result) {
    if (result.ok()) {
      stats.sessions_completed.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats.sessions_failed.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(results_mu);
      results.emplace(id, std::move(result));
    }
    results_cv.notify_all();
  }

  // ---- Loop-thread handlers -------------------------------------------

  void CloseConn(Loop& loop, Connection* conn, bool dropped) {
    (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_DEL, conn->fd.get(), 0,
                   nullptr);
    if (dropped) {
      stats.connections_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    ServedSession* ss = conn->session;
    auto& peers = ss->conns;
    for (auto it = peers.begin(); it != peers.end(); ++it) {
      if (*it == conn) {
        peers.erase(it);
        break;
      }
    }
    // Unregister now, free at end-of-batch: the fd closes with the
    // Connection, and stale Tag pointers in this epoll batch must stay
    // dereferenceable until then.
    auto it = loop.conns.find(conn);
    if (it != loop.conns.end()) {
      loop.conn_graveyard.push_back(std::move(it->second));
      loop.conns.erase(it);
    }
    MaybeRetireSession(loop, ss);
  }

  /// A finalized session with no connections left has nothing to do;
  /// release it (deferred to end-of-batch, like connections, so its
  /// listener Tag stays valid for stale events in the current batch).
  void MaybeRetireSession(Loop& loop, ServedSession* ss) {
    if (ss->finalized && ss->conns.empty()) {
      auto it = loop.sessions.find(ss->id);
      if (it != loop.sessions.end()) {
        loop.session_graveyard.push_back(std::move(it->second));
        loop.sessions.erase(it);
      }
    }
  }

  void FinalizeAndBroadcast(Loop& loop, ServedSession* ss) {
    ss->finalized = true;
    // The listener goes first: the round is over, late connections belong
    // to nobody.
    if (ss->listener.valid()) {
      (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_DEL, ss->listener.get(),
                     0, nullptr);
      ss->listener.reset();
    }
    StatusOr<secagg::SumMsg> result = ss->session->Finalize();
    std::vector<uint8_t> sum_frame;
    if (result.ok()) {
      auto frame = secagg::EncodeFrame(*result);
      if (frame.ok()) {
        sum_frame = std::move(*frame);
      } else {
        result = frame.status();
      }
    }
    // Whether there is a SumMsg frame to broadcast or not, never close a
    // connection inline here: the HandleRead that triggered this finalize
    // still holds its Connection (and, transitively, this ServedSession)
    // on the stack. Queue the outcome — the broadcast bytes, or an empty
    // outbound with closing set — and let EPOLLOUT drive the flush/close
    // on a later loop turn.
    for (Connection* conn : ss->conns) {
      conn->outbound = sum_frame;
      conn->outbound_off = 0;
      conn->closing = true;
      conn->drop_on_close = sum_frame.empty();
      const uint32_t events =
          (conn->read_closed ? 0u : EPOLLIN) | EPOLLOUT;
      (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(),
                     events, &conn->tag);
    }
    PublishResult(ss->id, std::move(result));
    MaybeRetireSession(loop, ss);
  }

  /// Fails the round without a broadcast: publish `status` to the waiters
  /// and tear the session down exactly like a finalize failure — listener
  /// first, then every connection queued for a graceful EPOLLOUT-driven
  /// close (never closed inline: the caller may still hold a Connection of
  /// this session on its stack).
  void FailSession(Loop& loop, ServedSession* ss, Status status) {
    ss->finalized = true;
    if (ss->listener.valid()) {
      (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_DEL, ss->listener.get(),
                     0, nullptr);
      ss->listener.reset();
    }
    for (Connection* conn : ss->conns) {
      conn->outbound.clear();
      conn->outbound_off = 0;
      conn->closing = true;
      conn->drop_on_close = true;
      const uint32_t events = (conn->read_closed ? 0u : EPOLLIN) | EPOLLOUT;
      (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(),
                     events, &conn->tag);
    }
    PublishResult(ss->id, std::move(status));
    MaybeRetireSession(loop, ss);
  }

  /// The epoll_wait timeout for this loop: the nearest session deadline or
  /// connection idle expiry, or -1 (park indefinitely) when no timer is
  /// armed — the common case stays scan-free of wakeup ticks.
  int NextTimeoutMs(const Loop& loop) const {
    bool have = false;
    SteadyClock::time_point next{};
    auto consider = [&](SteadyClock::time_point t) {
      if (!have || t < next) next = t;
      have = true;
    };
    for (const auto& [id, ss] : loop.sessions) {
      (void)id;
      if (ss->has_deadline && !ss->finalized) consider(ss->deadline);
    }
    if (options.idle_timeout_ms > 0) {
      const auto idle = std::chrono::milliseconds(options.idle_timeout_ms);
      for (const auto& [raw, conn] : loop.conns) {
        (void)raw;
        if (!conn->read_closed && !conn->closing) {
          consider(conn->last_frame_activity + idle);
        }
      }
    }
    if (!have) return -1;
    const auto now = SteadyClock::now();
    if (next <= now) return 0;
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(next - now);
    return static_cast<int>(std::min<int64_t>(ms.count(), 60'000));
  }

  /// Runs between epoll batches: expire session deadlines (quorum decides
  /// survivor-set finalize vs. kDeadlineExceeded failure) and evict
  /// connections that stopped completing frames.
  void ExpireTimers(Loop& loop) {
    const auto now = SteadyClock::now();
    std::vector<ServedSession*> expired;
    for (const auto& [id, ss] : loop.sessions) {
      (void)id;
      if (!ss->finalized && ss->has_deadline && now >= ss->deadline) {
        expired.push_back(ss.get());
      }
    }
    for (ServedSession* ss : expired) {
      if (ss->session->contributions() >= ss->min_contributions) {
        stats.sessions_quorum_finalized.fetch_add(1,
                                                  std::memory_order_relaxed);
        FinalizeAndBroadcast(loop, ss);
      } else {
        stats.sessions_deadline_exceeded.fetch_add(1,
                                                   std::memory_order_relaxed);
        FailSession(loop, ss,
                    DeadlineExceededError(
                        "round deadline expired below the contribution "
                        "quorum"));
      }
    }
    if (options.idle_timeout_ms > 0) {
      const auto idle = std::chrono::milliseconds(options.idle_timeout_ms);
      std::vector<Connection*> evict;
      for (const auto& [raw, conn] : loop.conns) {
        if (!conn->read_closed && !conn->closing &&
            now - conn->last_frame_activity >= idle) {
          evict.push_back(raw);
        }
      }
      for (Connection* conn : evict) {
        stats.connections_evicted.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, conn, /*dropped=*/true);
      }
    }
  }

  void HandleAccept(Loop& loop, ServedSession* ss) {
    while (ss->listener.valid()) {
      const int raw = ::accept4(ss->listener.get(), nullptr, nullptr,
                                SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (raw < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (queue empty) or transient accept failure.
      }
      UniqueFd fd(raw);
      (void)SetNoDelay(fd.get());
      auto conn = std::make_unique<Connection>(std::move(fd), ss,
                                              options.max_frame_bytes);
      Connection* raw_conn = conn.get();
      if (!EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_ADD, raw_conn->fd.get(),
                    EPOLLIN, &raw_conn->tag)
               .ok()) {
        continue;  // Registration failed; the fd closes with `conn`.
      }
      ss->conns.push_back(raw_conn);
      loop.conns.emplace(raw_conn, std::move(conn));
      stats.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void HandleRead(Loop& loop, Connection* conn) {
    ServedSession* ss = conn->session;
    // One bounded read per readiness event: level-triggered epoll
    // re-signals while more bytes wait, so large backlogs interleave
    // fairly across this loop's connections instead of one connection
    // monopolizing the thread. Unread bytes stay in the kernel buffer and
    // shrink the TCP window — that is the backpressure path.
    std::vector<uint8_t> chunk(options.read_chunk_bytes);
    const ssize_t n =
        ::recv(conn->fd.get(), chunk.data(), chunk.size(), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(loop, conn, /*dropped=*/true);
      return;
    }
    if (n == 0) {
      // Clean EOF: the peer half-closed after sending. The connection
      // stays open to receive the broadcast; stop watching for reads
      // (level-triggered EPOLLIN would spin on the EOF condition).
      if (conn->reassembler.mid_frame() ||
          !conn->reassembler.stream_error().ok()) {
        CloseConn(loop, conn, /*dropped=*/true);
        return;
      }
      conn->read_closed = true;
      if (conn->closing && conn->outbound.empty()) {
        // Nothing left to flush (finalize-failure teardown): close now
        // rather than disarm every event and strand the connection.
        CloseConn(loop, conn, conn->drop_on_close);
        return;
      }
      const uint32_t events = conn->outbound.empty() ? 0u : EPOLLOUT;
      (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(),
                     events, &conn->tag);
      return;
    }
    stats.bytes_read.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
    if (!conn->reassembler.Ingest(ByteSpan(chunk.data(),
                                           static_cast<size_t>(n)))
             .ok()) {
      // Byte stream desynchronized: no further frame boundary is knowable.
      CloseConn(loop, conn, /*dropped=*/true);
      return;
    }
    while (auto frame = conn->reassembler.NextFrame()) {
      // A completed frame is real progress; bytes alone are not (the idle
      // eviction keys off this).
      conn->last_frame_activity = SteadyClock::now();
      if (ss->session->HandleFrame(*frame).ok()) {
        stats.frames_delivered.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Frame-level rejection: the boundary held, the connection
        // survives, only this frame is lost (and counted).
        stats.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ss->finalized && ss->expected > 0 &&
          ss->session->contributions() >= ss->expected) {
        FinalizeAndBroadcast(loop, ss);
        // `conn` and `ss` are still alive (finalize never closes a
        // connection inline, success or failure); keep draining the
        // reassembled frames — the finalized session rejects them, which
        // is the right count.
      }
    }
  }

  void HandleWrite(Loop& loop, Connection* conn) {
    while (conn->outbound_off < conn->outbound.size()) {
      const ssize_t n = ::send(conn->fd.get(),
                               conn->outbound.data() + conn->outbound_off,
                               conn->outbound.size() - conn->outbound_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbound_off += static_cast<size_t>(n);
        stats.bytes_written.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // EPOLLOUT stays armed; the flush resumes when writable.
      }
      CloseConn(loop, conn, /*dropped=*/true);
      return;
    }
    // Fully flushed.
    conn->outbound.clear();
    conn->outbound_off = 0;
    if (conn->closing) {
      CloseConn(loop, conn, conn->drop_on_close);
      return;
    }
    // Disarm EPOLLOUT (level-triggered: it would fire on every loop turn).
    const uint32_t events = conn->read_closed ? 0u : EPOLLIN;
    (void)EpollCtl(loop.epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(),
                   events, &conn->tag);
  }

  void RunCommands(Loop& loop) {
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(loop.mu);
      batch.swap(loop.commands);
    }
    for (auto& command : batch) command();
  }

  void LoopThread(Loop& loop) {
    epoll_event events[128];
    while (!stopping.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(loop.epoll_fd.get(), events, 128,
                                 NextTimeoutMs(loop));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        // Reading tag->kind is safe even for objects torn down by an
        // earlier event in this batch: closes/retires park the owning
        // unique_ptr in the graveyards below, so the memory outlives the
        // batch. Liveness is then decided per kind — conns through the
        // owning map, listeners through ss->listener.valid() (reset at
        // finalize, so a retired session's accept loop no-ops).
        Tag* tag = static_cast<Tag*>(events[i].data.ptr);
        switch (tag->kind) {
          case TagKind::kWake: {
            uint64_t drained = 0;
            (void)!::read(loop.wake_fd.get(), &drained, sizeof(drained));
            RunCommands(loop);
            break;
          }
          case TagKind::kListener:
            HandleAccept(loop, static_cast<ServedSession*>(tag->target));
            break;
          case TagKind::kConn: {
            auto* conn = static_cast<Connection*>(tag->target);
            if (loop.conns.find(conn) == loop.conns.end()) break;
            if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
                (events[i].events & (EPOLLIN | EPOLLOUT)) == 0) {
              CloseConn(loop, conn, /*dropped=*/true);
              break;
            }
            if ((events[i].events & EPOLLIN) != 0) {
              HandleRead(loop, conn);
              if (loop.conns.find(conn) == loop.conns.end()) break;
            }
            if ((events[i].events & EPOLLOUT) != 0) {
              HandleWrite(loop, conn);
            }
            break;
          }
        }
      }
      // The batch's Tag pointers are settled; timers may now tear down
      // sessions/connections without any stale-pointer hazard.
      ExpireTimers(loop);
      // Batch done: no stale Tag pointer can be pending, free for real.
      loop.conn_graveyard.clear();
      loop.session_graveyard.clear();
    }
  }
};

AggregationServer::AggregationServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

StatusOr<std::unique_ptr<AggregationServer>> AggregationServer::Start(
    const Options& options) {
  if (options.event_loop_threads < 1) {
    return InvalidArgumentError("event_loop_threads must be >= 1");
  }
  if (options.max_frame_bytes < 1 || options.read_chunk_bytes < 1) {
    return InvalidArgumentError("frame and read chunk sizes must be >= 1");
  }
  if (options.idle_timeout_ms < 0) {
    return InvalidArgumentError("idle_timeout_ms must be >= 0");
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  for (int i = 0; i < options.event_loop_threads; ++i) {
    auto loop = std::make_unique<Impl::Loop>();
    loop->impl = impl.get();
    loop->epoll_fd = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!loop->epoll_fd) return InternalError("epoll_create1 failed");
    loop->wake_fd =
        UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!loop->wake_fd) return InternalError("eventfd failed");
    SMM_RETURN_IF_ERROR(EpollCtl(loop->epoll_fd.get(), EPOLL_CTL_ADD,
                                 loop->wake_fd.get(), EPOLLIN,
                                 &loop->wake_tag));
    impl->loops.push_back(std::move(loop));
  }
  for (auto& loop : impl->loops) {
    Impl* raw = impl.get();
    Impl::Loop* raw_loop = loop.get();
    loop->thread = std::thread([raw, raw_loop] { raw->LoopThread(*raw_loop); });
  }
  return std::unique_ptr<AggregationServer>(
      new AggregationServer(std::move(impl)));
}

AggregationServer::~AggregationServer() {
  if (impl_ != nullptr) Stop();
}

void AggregationServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(impl_->stop_mu);
  if (impl_->joined) return;
  impl_->stopping.store(true, std::memory_order_release);
  for (auto& loop : impl_->loops) impl_->Wake(*loop);
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  impl_->joined = true;
  // The loops are quiescent; every session without a published result —
  // registered or still sitting in an unexecuted command — fails now, so
  // no WaitForSum caller parks forever.
  std::vector<uint64_t> unfinished;
  {
    std::lock_guard<std::mutex> routes_lock(impl_->routes_mu);
    std::lock_guard<std::mutex> results_lock(impl_->results_mu);
    for (const auto& [id, loop_index] : impl_->routes) {
      (void)loop_index;
      if (impl_->results.find(id) == impl_->results.end()) {
        unfinished.push_back(id);
      }
    }
  }
  for (uint64_t id : unfinished) {
    impl_->PublishResult(
        id, FailedPreconditionError("server stopped before the session "
                                    "finalized"));
  }
  // Destroy sessions and connections (closes every fd).
  for (auto& loop : impl_->loops) {
    loop->conns.clear();
    loop->sessions.clear();
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->commands.clear();
  }
}

StatusOr<AggregationServer::SessionInfo> AggregationServer::OpenSession(
    secagg::SecureAggregator& aggregator, const SessionOptions& options) {
  if (impl_->stopping.load(std::memory_order_acquire)) {
    return FailedPreconditionError("server is stopping");
  }
  // Bind on the caller's thread so the port is known synchronously and a
  // client may connect the moment this returns (connections queue in the
  // listen backlog until the loop registers the listener).
  SMM_ASSIGN_OR_RETURN(UniqueFd listener,
                       ListenLoopback(0, impl_->options.listen_backlog));
  SMM_ASSIGN_OR_RETURN(const uint16_t port, BoundPort(listener.get()));
  SMM_RETURN_IF_ERROR(SetNonBlocking(listener.get()));
  SMM_ASSIGN_OR_RETURN(auto session, secagg::AggregationSession::Open(
                                         aggregator, options.session));

  auto ss = std::make_unique<ServedSession>();
  ss->id = impl_->next_session_id.fetch_add(1, std::memory_order_relaxed);
  ss->listener = std::move(listener);
  ss->session = std::move(session);
  ss->expected = options.expected_contributions;
  if (options.deadline_ms < 0) {
    return InvalidArgumentError("session deadline must be >= 0 ms");
  }
  if (options.deadline_ms > 0) {
    // Measured from here: queueing delay before the loop adopts the
    // session counts against the round, not in its favor.
    ss->has_deadline = true;
    ss->deadline = SteadyClock::now() +
                   std::chrono::milliseconds(options.deadline_ms);
    ss->min_contributions = options.session.min_contributions;
  }
  const uint64_t id = ss->id;

  const size_t loop_index =
      impl_->next_loop.fetch_add(1, std::memory_order_relaxed) %
      impl_->loops.size();
  {
    std::lock_guard<std::mutex> lock(impl_->routes_mu);
    impl_->routes.emplace(id, loop_index);
  }
  impl_->stats.sessions_opened.fetch_add(1, std::memory_order_relaxed);

  Impl* impl = impl_.get();
  Impl::Loop* loop = impl_->loops[loop_index].get();
  // The command owns the session until the loop adopts it.
  auto shared = std::make_shared<std::unique_ptr<ServedSession>>(
      std::move(ss));
  impl_->Post(*loop, [impl, loop, shared] {
    ServedSession* raw = shared->get();
    if (raw == nullptr) return;
    if (!EpollCtl(loop->epoll_fd.get(), EPOLL_CTL_ADD, raw->listener.get(),
                  EPOLLIN, &raw->tag)
             .ok()) {
      impl->PublishResult(raw->id,
                          InternalError("failed to register listener"));
      return;
    }
    loop->sessions.emplace(raw->id, std::move(*shared));
    // Connections may already be waiting in the backlog.
    impl->HandleAccept(*loop, raw);
  });
  // Close the race against Stop: if Stop ran to completion between the
  // `stopping` check above and the Post (loops joined, commands cleared),
  // the registration never executes and Stop's unfinished-session sweep
  // may have run before the route existed — so publish the failure that
  // sweep would have published, or no WaitForSum caller ever wakes.
  {
    std::lock_guard<std::mutex> stop_lock(impl_->stop_mu);
    if (impl_->joined) {
      bool published;
      {
        std::lock_guard<std::mutex> results_lock(impl_->results_mu);
        published = impl_->results.find(id) != impl_->results.end();
      }
      if (!published) {
        impl_->PublishResult(
            id, FailedPreconditionError("server stopped before the session "
                                        "finalized"));
      }
      return FailedPreconditionError("server is stopping");
    }
  }
  return SessionInfo{id, port};
}

Status AggregationServer::FinalizeSession(uint64_t session_id) {
  size_t loop_index;
  {
    std::lock_guard<std::mutex> lock(impl_->routes_mu);
    const auto it = impl_->routes.find(session_id);
    if (it == impl_->routes.end()) {
      return NotFoundError("unknown session id");
    }
    loop_index = it->second;
  }
  if (impl_->stopping.load(std::memory_order_acquire)) {
    return FailedPreconditionError("server is stopping");
  }
  Impl* impl = impl_.get();
  Impl::Loop* loop = impl_->loops[loop_index].get();
  impl_->Post(*loop, [impl, loop, session_id] {
    const auto it = loop->sessions.find(session_id);
    if (it == loop->sessions.end()) return;  // Already finalized/retired.
    ServedSession* ss = it->second.get();
    if (!ss->finalized) impl->FinalizeAndBroadcast(*loop, ss);
  });
  return OkStatus();
}

StatusOr<secagg::SumMsg> AggregationServer::WaitForSum(uint64_t session_id) {
  {
    std::lock_guard<std::mutex> lock(impl_->routes_mu);
    if (impl_->routes.find(session_id) == impl_->routes.end()) {
      return NotFoundError("unknown session id");
    }
  }
  StatusOr<secagg::SumMsg> result = [&]() -> StatusOr<secagg::SumMsg> {
    std::unique_lock<std::mutex> lock(impl_->results_mu);
    impl_->results_cv.wait(lock, [this, session_id] {
      return impl_->results.find(session_id) != impl_->results.end();
    });
    // One-shot: consume the result so a long-running server does not
    // accumulate a SumMsg per completed round.
    auto node = impl_->results.extract(session_id);
    return std::move(node.mapped());
  }();
  {
    std::lock_guard<std::mutex> lock(impl_->routes_mu);
    impl_->routes.erase(session_id);
  }
  return result;
}

ServerStats AggregationServer::Stats() const {
  const auto& s = impl_->stats;
  ServerStats out;
  out.sessions_opened = s.sessions_opened.load(std::memory_order_relaxed);
  out.sessions_completed =
      s.sessions_completed.load(std::memory_order_relaxed);
  out.sessions_failed = s.sessions_failed.load(std::memory_order_relaxed);
  out.connections_accepted =
      s.connections_accepted.load(std::memory_order_relaxed);
  out.connections_dropped =
      s.connections_dropped.load(std::memory_order_relaxed);
  out.frames_delivered = s.frames_delivered.load(std::memory_order_relaxed);
  out.frames_rejected = s.frames_rejected.load(std::memory_order_relaxed);
  out.bytes_read = s.bytes_read.load(std::memory_order_relaxed);
  out.bytes_written = s.bytes_written.load(std::memory_order_relaxed);
  out.sessions_deadline_exceeded =
      s.sessions_deadline_exceeded.load(std::memory_order_relaxed);
  out.sessions_quorum_finalized =
      s.sessions_quorum_finalized.load(std::memory_order_relaxed);
  out.connections_evicted =
      s.connections_evicted.load(std::memory_order_relaxed);
  return out;
}

int AggregationServer::event_loop_threads() const {
  return static_cast<int>(impl_->loops.size());
}

#else  // !SMM_NET_POSIX

struct AggregationServer::Impl {};

AggregationServer::AggregationServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
AggregationServer::~AggregationServer() = default;

StatusOr<std::unique_ptr<AggregationServer>> AggregationServer::Start(
    const Options&) {
  return UnimplementedError("smm::net requires Linux sockets/epoll");
}
void AggregationServer::Stop() {}
StatusOr<AggregationServer::SessionInfo> AggregationServer::OpenSession(
    secagg::SecureAggregator&, const SessionOptions&) {
  return UnimplementedError("smm::net requires Linux sockets/epoll");
}
Status AggregationServer::FinalizeSession(uint64_t) {
  return UnimplementedError("smm::net requires Linux sockets/epoll");
}
StatusOr<secagg::SumMsg> AggregationServer::WaitForSum(uint64_t) {
  return UnimplementedError("smm::net requires Linux sockets/epoll");
}
ServerStats AggregationServer::Stats() const { return ServerStats{}; }
int AggregationServer::event_loop_threads() const { return 0; }

#endif  // SMM_NET_POSIX

// The sharded-round surface is a pure composition of OpenSession /
// WaitForSum plus the secagg merge, so it is platform-independent (on
// non-Linux builds the first OpenSession returns kUnimplemented).

namespace {

/// The SessionOptions one shard worker of a sharded round runs with.
AggregationServer::SessionOptions ShardWorkerOptions(
    const secagg::ShardPlan& plan,
    const AggregationServer::ShardedRoundOptions& options, size_t s) {
  AggregationServer::SessionOptions session_options;
  session_options.session.dim = plan.Width(s);
  session_options.session.modulus = options.modulus;
  session_options.session.tile_rows = options.tile_rows;
  session_options.session.min_contributions = options.min_contributions;
  session_options.expected_contributions = options.expected_contributions;
  session_options.deadline_ms = options.deadline_ms;
  if (plan.shard_count() > 1) {
    session_options.session.expected_shard = plan.Spec(s);
  }
  return session_options;
}

}  // namespace

StatusOr<AggregationServer::ShardedRoundInfo>
AggregationServer::OpenShardedRound(secagg::SecureAggregator& aggregator,
                                    const ShardedRoundOptions& options) {
  SMM_ASSIGN_OR_RETURN(
      secagg::ShardPlan plan,
      secagg::ShardPlan::Create(options.dim, options.shard_count));
  if (options.max_shard_retries < 0) {
    return InvalidArgumentError("max_shard_retries must be >= 0");
  }
  ShardedRoundInfo round{plan, {}, {}, {}, {}, options, &aggregator};
  const size_t shards = plan.shard_count();
  round.shards.reserve(shards);
  round.collected.resize(shards);
  round.shard_retries.assign(shards, 0);
  SMM_ASSIGN_OR_RETURN(round.shard_aggregators,
                       secagg::CreateShardAggregators(aggregator, shards,
                                                      /*pool=*/nullptr));
  for (size_t s = 0; s < shards; ++s) {
    secagg::SecureAggregator& shard_aggregator =
        round.shard_aggregators[s] ? *round.shard_aggregators[s] : aggregator;
    SMM_ASSIGN_OR_RETURN(
        SessionInfo info,
        OpenSession(shard_aggregator, ShardWorkerOptions(plan, options, s)));
    round.shards.push_back(info);
  }
  return round;
}

Status AggregationServer::ReopenShardWorker(ShardedRoundInfo& round,
                                            size_t s) {
  // The spare worker runs over the SAME derived shard aggregator: its
  // fresh stream re-derives the identical per-pair masks from the
  // session seed, so sub-frames the participants already encoded (or
  // byte-identically re-encode) stay valid on the new session.
  secagg::SecureAggregator& shard_aggregator =
      round.shard_aggregators[s] ? *round.shard_aggregators[s] : *round.base;
  SMM_ASSIGN_OR_RETURN(
      round.shards[s],
      OpenSession(shard_aggregator,
                  ShardWorkerOptions(round.plan, round.options, s)));
  return OkStatus();
}

StatusOr<secagg::SumMsg> AggregationServer::WaitForShardedSum(
    ShardedRoundInfo& round) {
  if (round.shards.size() != round.plan.shard_count()) {
    return InvalidArgumentError(
        "sharded round handle does not match its plan");
  }
  if (round.collected.size() != round.shards.size()) {
    round.collected.resize(round.shards.size());
  }
  if (round.shard_retries.size() != round.shards.size()) {
    round.shard_retries.assign(round.shards.size(), 0);
  }
  size_t reopened = 0;
  for (size_t s = 0; s < round.shards.size(); ++s) {
    if (round.collected[s].has_value()) continue;  // Survived a prior wait.
    StatusOr<secagg::SumMsg> shard_sum = WaitForSum(round.shards[s].id);
    if (shard_sum.ok()) {
      round.collected[s] = std::move(*shard_sum);
      continue;
    }
    if (round.options.failure_policy == ShardFailurePolicy::kFailFast ||
        round.shard_retries[s] >= round.options.max_shard_retries) {
      return shard_sum.status();
    }
    ++round.shard_retries[s];
    SMM_RETURN_IF_ERROR(ReopenShardWorker(round, s));
    ++reopened;
  }
  if (reopened > 0) {
    return UnavailableError(
        "failed shard workers were reopened on spare sessions; resend "
        "their sub-frames to the updated ports and wait again");
  }
  std::vector<secagg::SumMsg> shard_sums(round.shards.size());
  for (size_t s = 0; s < round.shards.size(); ++s) {
    shard_sums[s] = std::move(*round.collected[s]);
    round.collected[s].reset();
  }
  return secagg::MergeShardSums(round.plan, std::move(shard_sums));
}

}  // namespace smm::net
