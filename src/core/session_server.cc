#include "core/session_server.h"

#include <utility>

#include "obs/obs.h"

namespace ube {

SessionServer::SessionServer(Engine engine, Options options)
    : options_(std::move(options)),
      engine_(std::move(engine)),
      cache_(options_.cache_entries_per_shard) {
  // Force the lazy caches now, while the server is still single-threaded:
  // Universe::UnionSignature()/FreshUnionSignature() build on first use,
  // and N sessions constructing evaluators concurrently must only ever
  // read them. A universe that mixes signature formats cannot be merged;
  // its sessions get the engine's Status instead of an evaluator.
  if (!engine_.live().status().ok()) return;
  (void)engine_.universe().UnionSignature();
  (void)engine_.universe().FreshUnionSignature();
}

SessionServer::SessionServer(Engine engine)
    : SessionServer(std::move(engine), Options()) {}

std::pair<SessionServer::SessionId, Session*> SessionServer::Open() {
  auto session = std::make_unique<Session>(&engine_);
  session->set_warm_start(options_.warm_start);
  session->mutable_repair_options() = options_.repair;
  session->mutable_repair_options().shared_cache = &cache_;
  session->mutable_solver_options() = options_.solver_options;
  session->mutable_solver_options().shared_cache = &cache_;
  Session* raw = session.get();

  SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    ++total_opened_;
    sessions_.emplace(id, std::move(session));
  }
  if (options_.obs != nullptr) {
    obs::MetricsRegistry& metrics = options_.obs->metrics();
    metrics.Add(metrics.Counter("server/sessions_opened"));
  }
  return {id, raw};
}

Status SessionServer::Close(SessionId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no open session with this id");
    }
    sessions_.erase(it);
  }
  if (options_.obs != nullptr) {
    obs::MetricsRegistry& metrics = options_.obs->metrics();
    metrics.Add(metrics.Counter("server/sessions_closed"));
  }
  return Status::Ok();
}

Session* SessionServer::Find(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

int SessionServer::num_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

int64_t SessionServer::total_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_opened_;
}

}  // namespace ube
