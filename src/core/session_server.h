#ifndef UBE_CORE_SESSION_SERVER_H_
#define UBE_CORE_SESSION_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/engine.h"
#include "core/session.h"

namespace ube {

/// Multi-tenant front end over one engine: N concurrent feedback sessions
/// share a single immutable universe + similarity-graph snapshot (owned by
/// the server's Engine) while every piece of mutable state — bans, pins, GA
/// constraints, the QEF weight overlay, solution history — lives in the
/// per-session ProblemSpec. Sessions only ever *read* the engine (Session
/// holds `const Engine*`), so isolation is enforced by the type system, not
/// by convention.
///
/// What the server adds on top of plain Sessions:
///  - lifecycle: Open()/Close()/Find() under one mutex (the sessions
///    themselves are not synchronized — one user drives one session; many
///    sessions run concurrently);
///  - warm-start wiring: every opened session gets warm_start on (by
///    default), the server's RepairOptions, and the server's shared cache
///    plumbed into its SolverOptions — a feedback gesture re-solves from
///    the repaired previous incumbent instead of from scratch;
///  - the cross-session SharedQualityCache: quality memoization keyed by
///    (spec fingerprint, candidate), so two sessions posing the *same*
///    effective problem share hits while different specs can never poison
///    each other (verify-on-hit, see optimize/evaluator.h);
///  - per-server metrics (sessions opened/closed) on the optional
///    ObsContext.
///
/// Thread safety: Open/Close/Find/num_open/total_opened are safe to call
/// concurrently. A Session* returned by Open/Find is owned by the server
/// and must not be used after Close(id) — the caller coordinates that (in
/// a real service, one connection owns one session id). Do not call
/// Engine::RunContinuous on the wrapped engine while sessions exist; the
/// server only exposes the engine const for that reason.
class SessionServer {
 public:
  using SessionId = int64_t;

  struct Options {
    /// Applied to every opened session (the per-session copies can be
    /// edited afterwards via Session::mutable_solver_options()).
    SolverOptions solver_options;
    /// Budget of the warm-start repair each Iterate runs.
    RepairOptions repair;
    /// Warm-start re-solve for opened sessions (see Session::set_warm_start).
    bool warm_start = true;
    /// Bound of each shared-cache shard (entries).
    size_t cache_entries_per_shard = 1u << 14;
    /// Optional observability: counters server/sessions_opened and
    /// server/sessions_closed. Not owned; must outlive the server.
    obs::ObsContext* obs = nullptr;
  };

  /// Takes ownership of the engine (immutable from here on). The universe
  /// keeps no lazily built state, so sessions may build evaluators over it
  /// concurrently from the first Open().
  SessionServer(Engine engine, Options options);
  explicit SessionServer(Engine engine);

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Opens a fresh session wired per Options. The pointer stays valid until
  /// Close(id) or the server dies.
  std::pair<SessionId, Session*> Open();

  /// Destroys the session. NotFound for an unknown (or already closed) id.
  Status Close(SessionId id);

  /// The session, or null when the id is unknown/closed.
  Session* Find(SessionId id);

  int num_open() const;
  int64_t total_opened() const;

  const Engine& engine() const { return engine_; }
  const SharedQualityCache& cache() const { return cache_; }
  SharedQualityCache& mutable_cache() { return cache_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  Engine engine_;
  SharedQualityCache cache_;
  mutable std::mutex mu_;
  SessionId next_id_ = 1;
  int64_t total_opened_ = 0;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
};

}  // namespace ube

#endif  // UBE_CORE_SESSION_SERVER_H_
