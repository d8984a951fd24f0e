#include "src/serve/server.h"

#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace proteus::serve {

QueryServer::QueryServer(QueryEngine* engine, ServerOptions opts)
    : engine_(engine), opts_(opts), gate_(opts.admission) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("serve socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::IOError(std::string("serve bind: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const Status s = Status::IOError(std::string("serve listen: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblock accept() by tearing down the listener, then stop admitting.
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  gate_.Close();

  std::vector<std::unique_ptr<Session>> sessions;
  {
    MutexLock lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    // Cooperatively cancel whatever is still running: each query stops at
    // its next morsel boundary, so shutdown waits one morsel, not one query.
    {
      MutexLock lk(s->mu);
      for (auto& [id, flag] : s->cancels) flag->store(true, std::memory_order_release);
    }
    ::shutdown(s->fd, SHUT_RDWR);
    if (s->reader.joinable()) s->reader.join();
    ::close(s->fd);
  }
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal — either way, stop accepting
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* s = session.get();
    {
      MutexLock lk(sessions_mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      sessions_.push_back(std::move(session));
    }
    s->reader = std::thread([this, s] { SessionLoop(s); });
  }
}

void QueryServer::SendFrame(Session* s, const Frame& f) {
  MutexLock lk(s->write_mu);
  // Best effort: a peer that vanished mid-query just loses its response.
  (void)WriteFrame(s->fd, f);
}

void QueryServer::SessionLoop(Session* s) {
  while (true) {
    auto frame = ReadFrame(s->fd);
    if (!frame.ok()) {
      // Clean EOF, shutdown, or a malformed frame: either way this
      // connection is done. Malformed framing is unrecoverable — the byte
      // stream has lost sync — so answer once and close.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        SendFrame(s, Frame{FrameType::kError, 0, EncodeErrorBody(frame.status())});
      }
      break;
    }
    switch (frame->type) {
      case FrameType::kQuery: {
        ReapFinished(s);
        auto text = DecodeQueryBody(frame->body);
        if (!text.ok()) {
          // The frame itself was well-formed, so the stream is still in
          // sync: report the bad body and keep serving.
          SendFrame(s, Frame{FrameType::kError, frame->query_id,
                             EncodeErrorBody(text.status())});
          break;
        }
        auto cancel = std::make_shared<std::atomic<bool>>(false);
        {
          MutexLock lk(s->mu);
          // Register the cancel token *before* the worker exists, so a
          // kCancel racing the query's startup still lands.
          if (!s->cancels.emplace(frame->query_id, cancel).second) {
            SendFrame(s, Frame{FrameType::kError, frame->query_id,
                               EncodeErrorBody(Status::InvalidArgument(
                                   "duplicate query_id on this connection"))});
            break;
          }
          const uint64_t worker = s->next_worker++;
          s->workers.emplace(worker, std::thread([this, s, worker, id = frame->query_id,
                                                  q = std::move(*text)]() mutable {
            RunQuery(s, id, std::move(q));
            MutexLock done(s->mu);
            s->finished.push_back(worker);
          }));
        }
        break;
      }
      case FrameType::kCancel: {
        MutexLock lk(s->mu);
        auto it = s->cancels.find(frame->query_id);
        // Unknown id = already finished (or never existed): cancellation is
        // idempotent, nothing to do.
        if (it != s->cancels.end()) it->second->store(true, std::memory_order_release);
        break;
      }
      default:
        SendFrame(s, Frame{FrameType::kError, frame->query_id,
                           EncodeErrorBody(Status::InvalidArgument(
                               "unexpected response-type frame from client"))});
        break;
    }
  }
  // The reader owns its workers: join them before the session winds down so
  // Stop() only ever joins readers.
  std::unordered_map<uint64_t, std::thread> workers;
  {
    MutexLock lk(s->mu);
    workers.swap(s->workers);
    s->finished.clear();
  }
  for (auto& entry : workers) entry.second.join();
}

void QueryServer::ReapFinished(Session* s) {
  std::vector<std::thread> done;
  {
    MutexLock lk(s->mu);
    for (uint64_t worker : s->finished) {
      auto it = s->workers.find(worker);
      done.push_back(std::move(it->second));
      s->workers.erase(it);
    }
    s->finished.clear();
  }
  for (auto& w : done) w.join();
}

size_t QueryServer::worker_threads() const {
  MutexLock lk(sessions_mu_);
  size_t n = 0;
  for (const auto& s : sessions_) {
    MutexLock slk(s->mu);
    n += s->workers.size();
  }
  return n;
}

void QueryServer::RunQuery(Session* s, uint64_t query_id, std::string text) {
  std::shared_ptr<std::atomic<bool>> cancel;
  {
    MutexLock lk(s->mu);
    cancel = s->cancels.at(query_id);
  }

  const AdmissionGate::Outcome outcome = gate_.Enter();
  if (outcome != AdmissionGate::Outcome::kAdmitted) {
    {
      MutexLock lk(s->mu);
      s->cancels.erase(query_id);
    }
    const char* reason = outcome == AdmissionGate::Outcome::kClosed
                             ? "server shutting down"
                             : "admission queue full";
    SendFrame(s, Frame{FrameType::kRejected, query_id, EncodeRejectedBody(reason)});
    return;
  }

  QueryTelemetry tel;
  CallOptions call;
  call.telemetry = &tel;
  call.cancel = cancel.get();
  auto result = engine_->Execute(text, call);
  gate_.Exit();

  {
    MutexLock lk(s->mu);
    s->cancels.erase(query_id);
  }

  Frame f;
  f.query_id = query_id;
  if (result.ok()) {
    f.type = FrameType::kResult;
    f.body = EncodeResultBody(*result, tel);
  } else if (result.status().code() == StatusCode::kCancelled) {
    f.type = FrameType::kCancelled;
    f.body = EncodeCancelledBody(tel);
  } else {
    f.type = FrameType::kError;
    f.body = EncodeErrorBody(result.status());
  }
  SendFrame(s, f);
}

}  // namespace proteus::serve
