// Network front end shared by the daemon (`ocps serve`) and the router
// (`ocps router`): the listeners (Unix socket, TCP, loopback Prometheus
// HTTP), one accept thread, and one reader thread per connection that
// frames request lines and hands each to the tier's line handler.
//
// Tiers may block in the handler (the router forwards synchronously), so
// a connection keeps its own thread rather than sharing a bounded pool.
// `max_connections` bounds the live threads; a reader whose connection
// ended parks its thread and joins the one parked before it, so at most
// one finished reader (and its stack) outlives its connection.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "util/result.hpp"

namespace ocps {
class NetFaultInjector;  // runtime/fault_injection.hpp
}

namespace ocps::serve {

/// One accepted request connection, shared through shared_ptr by its
/// reader and any thread answering on it; the last owner closes the fd.
struct Connection {
  int fd = -1;
  std::mutex write_mutex;  ///< reader (errors) and answering threads write
  const NetFaultInjector* faults = nullptr;  ///< write chaos (may be null)
  std::chrono::milliseconds io_timeout{5000};
  /// A write that timed out or hit a peer error poisons the connection:
  /// further responses would interleave into a half-written line, so
  /// both the reader and later writers give up on it instead.
  std::atomic<bool> broken{false};

  ~Connection();
  /// Writes `line` plus a newline, bounded by io_timeout.
  bool send_line(std::string line);
};

/// Listener and connection settings, copied from the tier's config.
struct FrontendConfig {
  /// Copies the fields ServeConfig and RouterConfig share; their
  /// `net_faults` injector becomes the accept seam.
  template <class TierConfig>
  static FrontendConfig from(const TierConfig& c, std::string metric_prefix,
                             const NetFaultInjector* write_faults) {
    return {c.socket_path,  c.listen_address, c.metrics_port,
            c.max_connections, c.io_timeout, c.net_faults,
            write_faults,   std::move(metric_prefix)};
  }

  std::string socket_path;     ///< Unix listener ("" = off)
  std::string listen_address;  ///< TCP "host:port" ("" = off)
  int metrics_port = 0;        ///< loopback HTTP: 0 = off, -1 = ephemeral
  std::size_t max_connections = 256;
  std::chrono::milliseconds io_timeout{5000};
  /// Chaos seams (may be null), consulted on every accept / every
  /// response line.
  const NetFaultInjector* accept_faults = nullptr;
  const NetFaultInjector* write_faults = nullptr;
  /// Tier name in error messages and metrics: refused connections count
  /// as `<metric_prefix>.conn_limit_rejected`.
  std::string metric_prefix;
};

/// Resource use of this process from /proc/self (0 where unreadable),
/// plus the connections open on all its front ends.
struct ProcessStats {
  std::size_t threads = 0;
  std::size_t open_fds = 0;
  std::size_t resident_bytes = 0;
  std::size_t memory_maps = 0;
  std::size_t live_connections = 0;
};
ProcessStats read_process_stats();

class Frontend {
 public:
  using LineHandler = std::function<void(const std::shared_ptr<Connection>&,
                                         const std::string& line)>;
  struct Hooks {
    /// Runs on each new connection's reader thread; the handler it
    /// returns gets that connection's lines (and owns its state).
    std::function<LineHandler()> open;
    /// Counts a frame answered 400 here (stalled mid-line or too long).
    std::function<void()> malformed;
    /// Recomputes the tier's derived gauges before a scrape.
    std::function<void()> refresh;
  };

  /// Throws CheckError on invalid settings (no listener, bad port, zero
  /// connection cap or I/O timeout).
  Frontend(FrontendConfig config, Hooks hooks);
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Claims every configured listener and starts the accept (and HTTP)
  /// threads. On error nothing stays claimed. Single-use.
  Result<bool> start();

  /// Async-signal-safe: only stores an atomic. Threads notice within one
  /// poll interval (~50 ms).
  void request_stop() noexcept { stopping_.store(true); }
  bool stop_requested() const { return stopping_.load(); }
  void wait_until_stop_requested() const;

  /// Sets the stop flag, joins the accept and HTTP threads, releases the
  /// listeners, then joins every reader once it has finished its current
  /// line. Returns false, doing nothing else, unless this is the first
  /// stop() after start().
  bool stop();

  /// Publishes the process.* gauges, then runs the refresh hook. Every
  /// scrape (HTTP or the `metrics` op) goes through here.
  void refresh();

  /// Answers a `metrics` request: `body` plus the refreshed registry as
  /// JSON ("metrics") and Prometheus text ("prometheus").
  void answer_metrics(Connection& conn, std::int64_t id, json::Value body);

  /// Ports actually bound (for ephemeral requests); 0 when off.
  int bound_listen_port() const { return tcp_port_; }
  int bound_metrics_port() const { return http_port_; }

 private:
  Result<bool> claim_listeners();
  void close_listeners();
  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn,
                   std::list<std::thread>::iterator self);
  void read_lines(const std::shared_ptr<Connection>& conn);
  void http_loop();
  void answer_scrape(int fd);

  const FrontendConfig config_;
  const Hooks hooks_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  int unix_fd_ = -1;
  int lock_fd_ = -1;  ///< flock guarding the Unix socket path
  int tcp_fd_ = -1;
  int tcp_port_ = 0;
  int http_fd_ = -1;
  int http_port_ = 0;

  std::mutex readers_mutex_;
  std::condition_variable readers_cv_;
  std::list<std::thread> readers_;  ///< one per live connection
  std::thread finished_;  ///< the last reader to finish, not yet joined

  std::thread accept_thread_;
  std::thread http_thread_;
};

}  // namespace ocps::serve
