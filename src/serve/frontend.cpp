// Front-end implementation. Every blocking wait is a poll() of at most
// ~50 ms that re-checks stopping_, so stop latency stays bounded while
// request_stop() remains a pure atomic store.

#include "serve/frontend.hpp"

#include <dirent.h>
#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/fault_injection.hpp"
#include "serve/protocol.hpp"
#include "serve/socket_util.hpp"
#include "util/check.hpp"

namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

// A connection writing a line this long without a newline is not
// speaking the protocol; cut it off instead of buffering forever.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// Poll interval bounding how long any thread can miss stopping_.
constexpr int kPollMs = 50;

// Connections open on all front ends of this process.
std::atomic<std::size_t> g_live_connections{0};

// Binds a TCP listener and reads its (possibly ephemeral) port back.
Result<bool> listen_on(const std::string& host, std::uint16_t port,
                       int backlog, int* fd, int* bound_port) {
  Result<int> listener = listen_tcp(host, port, backlog);
  if (!listener.ok()) return listener.error();
  *fd = listener.value();
  Result<std::uint16_t> bound = bound_tcp_port(*fd);
  if (!bound.ok()) return bound.error();
  *bound_port = bound.value();
  return Ok(true);
}

}  // namespace

Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

// Accepted fds are nonblocking; send_all retries EINTR, continues short
// writes, and polls POLLOUT on EAGAIN bounded by io_timeout. MSG_NOSIGNAL
// inside: a client that hung up must cost an error return, not a SIGPIPE.
bool Connection::send_line(std::string line) {
  line.push_back('\n');
  std::lock_guard<std::mutex> guard(write_mutex);
  if (broken.load(std::memory_order_relaxed)) return false;

  NetFaultInjector::WriteFault fault = NetFaultInjector::WriteFault::kNone;
  if (faults) fault = faults->write_fault();
  if (fault == NetFaultInjector::WriteFault::kStall)
    std::this_thread::sleep_for(faults->stall_duration());
  if (fault == NetFaultInjector::WriteFault::kReset) {
    // Cut the response mid-line and tear the connection down: the
    // peer reads a partial frame and then EOF, exactly what a crashed
    // daemon looks like from the other side.
    (void)send_all(fd, line.data(), line.size() / 2, io_timeout);
    ::shutdown(fd, SHUT_RDWR);
    broken.store(true, std::memory_order_relaxed);
    return false;
  }
  // A trickle fault dribbles the head out a byte at a time so the peer
  // exercises its partial-read reassembly; the tail goes out normally.
  const std::size_t head = fault == NetFaultInjector::WriteFault::kTrickle
                               ? std::min<std::size_t>(line.size(), 32)
                               : 0;
  bool ok = true;
  for (std::size_t i = 0; ok && i < head; ++i) {
    ok = send_all(fd, line.data() + i, 1, io_timeout);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ok = ok && send_all(fd, line.data() + head, line.size() - head, io_timeout);
  if (!ok) broken.store(true, std::memory_order_relaxed);
  return ok;
}

ProcessStats read_process_stats() {
  ProcessStats s;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (const dirent* entry = ::readdir(dir))
      if (entry->d_name[0] != '.') ++s.open_fds;
    ::closedir(dir);
    if (s.open_fds > 0) --s.open_fds;  // the directory's own fd
  }
  std::string line;
  std::ifstream status("/proc/self/status");
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      s.threads = std::strtoul(line.c_str() + 8, nullptr, 10);
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  if (statm >> pages >> pages)  // second field: resident pages
    s.resident_bytes =
        pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::ifstream maps("/proc/self/maps");
  while (std::getline(maps, line)) ++s.memory_maps;
  s.live_connections = g_live_connections.load();
  return s;
}

// ---------------------------------------------------------------------------
// Lifecycle.

Frontend::Frontend(FrontendConfig config, Hooks hooks)
    : config_(std::move(config)), hooks_(std::move(hooks)) {
  const std::string& who = config_.metric_prefix;
  OCPS_CHECK(!config_.socket_path.empty() || !config_.listen_address.empty(),
             "" << who
                << ": a listener (socket path and/or TCP address) is required");
  OCPS_CHECK(config_.metrics_port >= -1 && config_.metrics_port <= 65535,
             "" << who << ": metrics_port must be in [-1, 65535]");
  OCPS_CHECK(config_.max_connections > 0,
             "" << who << ": max_connections must be positive");
  OCPS_CHECK(config_.io_timeout.count() > 0,
             "" << who << ": io_timeout must be positive");
}

Frontend::~Frontend() { stop(); }

Result<bool> Frontend::start() {
  OCPS_CHECK(!started_.exchange(true), "" << config_.metric_prefix
                                           << ": start called twice");
  Result<bool> claimed = claim_listeners();
  if (!claimed.ok()) {
    close_listeners();
    return claimed;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (http_fd_ >= 0) http_thread_ = std::thread([this] { http_loop(); });
  return Ok(true);
}

Result<bool> Frontend::claim_listeners() {
  // Race-safe claim of the Unix socket path (flock + connect probe; see
  // socket_util.hpp): a clear "in use by a live daemon" error instead of
  // two processes silently stealing each other's socket.
  if (!config_.socket_path.empty()) {
    Result<UnixListener> claimed = claim_unix_socket(config_.socket_path, 64);
    if (!claimed.ok()) return claimed.error();
    unix_fd_ = claimed.value().fd;
    lock_fd_ = claimed.value().lock_fd;
  }
  if (!config_.listen_address.empty()) {
    Result<Endpoint> ep = parse_endpoint(config_.listen_address);
    if (!ep.ok()) return ep.error();
    if (!ep.value().is_tcp())
      return Err(ErrorCode::kInvalidArgument,
                 "--listen must be host:port, got: " + config_.listen_address);
    Result<bool> ok = listen_on(ep.value().host, ep.value().port, 64,
                                &tcp_fd_, &tcp_port_);
    if (!ok.ok()) return ok;
  }
  // Prometheus exposition, loopback only; -1 asks for an ephemeral port.
  if (config_.metrics_port == 0) return Ok(true);
  const int port = std::max(config_.metrics_port, 0);
  return listen_on("127.0.0.1", static_cast<std::uint16_t>(port), 16,
                   &http_fd_, &http_port_);
}

void Frontend::close_listeners() {
  for (int* fd : {&http_fd_, &tcp_fd_})
    if (*fd >= 0) ::close(std::exchange(*fd, -1));
  UnixListener claimed{std::exchange(unix_fd_, -1),
                       std::exchange(lock_fd_, -1)};
  release_unix_socket(claimed, config_.socket_path);
}

void Frontend::wait_until_stop_requested() const {
  while (!stopping_.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
}

bool Frontend::stop() {
  stopping_.store(true);
  if (!started_.load() || stopped_.exchange(true)) return false;
  // 1. No new connections (the metrics listener goes down in the same
  // phase; it is independent of the request pipeline).
  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_thread_.joinable()) http_thread_.join();
  close_listeners();
  // 2. Each reader finishes the line it is handling and exits within one
  // poll interval. A finished reader joined the one parked before it, so
  // joining the last parked thread joins them all.
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(readers_mutex_);
    readers_cv_.wait(lock, [&] { return readers_.empty(); });
    last = std::move(finished_);
  }
  if (last.joinable()) last.join();
  return true;
}

void Frontend::refresh() {
  const ProcessStats s = read_process_stats();
  obs::gauge("process.threads").set(static_cast<double>(s.threads));
  obs::gauge("process.open_fds").set(static_cast<double>(s.open_fds));
  obs::gauge("process.resident_bytes")
      .set(static_cast<double>(s.resident_bytes));
  obs::gauge("process.memory_maps").set(static_cast<double>(s.memory_maps));
  obs::gauge("process.live_connections")
      .set(static_cast<double>(s.live_connections));
  if (hooks_.refresh) hooks_.refresh();
}

void Frontend::answer_metrics(Connection& conn, std::int64_t id,
                              json::Value body) {
  refresh();
  std::ostringstream prom;
  obs::write_metrics_prometheus(prom);
  std::ostringstream js;
  obs::write_metrics_json(js);
  Result<json::Value> metrics = json::parse(js.str());
  if (metrics.ok()) body.set("metrics", std::move(metrics.value()));
  body.set("prometheus", json::Value(prom.str()));
  conn.send_line(ok_response(id, std::move(body)));
}

// ---------------------------------------------------------------------------
// Socket threads.

void Frontend::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfds[2];
    nfds_t nfds = 0;
    if (unix_fd_ >= 0) pfds[nfds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[nfds++] = {tcp_fd_, POLLIN, 0};
    int ready = ::poll(pfds, nfds, kPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    for (nfds_t i = 0; i < nfds; ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      // Accepted fds are nonblocking: every read/write goes through a
      // poll-bounded loop, so a stalled peer can never wedge a thread in
      // the kernel.
      int fd = ::accept4(pfds[i].fd, nullptr, nullptr,
                         SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) continue;
      if (config_.accept_faults && config_.accept_faults->fail_accept()) {
        // Injected accept failure: the peer sees an immediate EOF, as
        // if the process ran out of fds and dropped the connection.
        ::close(fd);
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->faults = config_.write_faults;
      conn->io_timeout = config_.io_timeout;
      std::string refusal;
      {
        std::lock_guard<std::mutex> guard(readers_mutex_);
        if (stopping_.load()) continue;  // conn dtor closes the fd
        if (readers_.size() >= config_.max_connections) {
          refusal = "connection limit reached (" +
                    std::to_string(config_.max_connections) + ")";
        } else {
          auto self = readers_.emplace(readers_.end());
          g_live_connections.fetch_add(1);
          try {
            *self =
                std::thread([this, conn, self] { reader_loop(conn, self); });
          } catch (const std::system_error& e) {
            // No thread (e.g. no address space left for its stack):
            // refuse this peer, keep serving the connected ones.
            g_live_connections.fetch_sub(1);
            readers_.erase(self);
            refusal = std::string("cannot start a reader: ") + e.what();
          }
        }
      }
      if (refusal.empty()) continue;
      // Explicit refusal beats a silent drop or a backlog timeout: the
      // client gets a line it can parse and retry against a replica.
      obs::counter(config_.metric_prefix + ".conn_limit_rejected").add(1);
      conn->send_line(error_response(0, kCodeShuttingDown, refusal));
    }
  }
}

void Frontend::reader_loop(const std::shared_ptr<Connection>& conn,
                           std::list<std::thread>::iterator self) {
  read_lines(conn);
  g_live_connections.fetch_sub(1);
  // Reap: park this thread, join the one parked before it.
  std::thread previous;
  {
    std::lock_guard<std::mutex> guard(readers_mutex_);
    previous = std::exchange(finished_, std::move(*self));
    readers_.erase(self);
  }
  readers_cv_.notify_all();
  if (previous.joinable()) previous.join();
}

void Frontend::read_lines(const std::shared_ptr<Connection>& conn) {
  const LineHandler handle = hooks_.open();
  std::string buffer;
  Clock::time_point last_progress = Clock::now();
  while (!stopping_.load()) {
    if (conn->broken.load(std::memory_order_relaxed)) return;
    // A partial line that stops growing is a stalled or byte-trickling
    // peer; answer 400 and drop it rather than buffer a frame forever.
    if (!buffer.empty() &&
        Clock::now() - last_progress > config_.io_timeout) {
      hooks_.malformed();
      conn->send_line(error_response(0, kCodeBadRequest,
                                     "request line stalled mid-frame"));
      return;
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    char chunk[4096];
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) return;  // client hung up
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    last_progress = Clock::now();
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle(conn, line);
    }
    if (buffer.size() > kMaxLineBytes) {
      hooks_.malformed();
      conn->send_line(
          error_response(0, kCodeBadRequest, "request line too long"));
      return;
    }
  }
}

// Prometheus HTTP listener. One short-lived connection per scrape,
// handled serially: a scrape every few seconds is the design load, and a
// stalled scraper can block no one but the next scraper.
void Frontend::http_loop() {
  while (!stopping_.load()) {
    pollfd pfd{http_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    int fd = ::accept4(http_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    answer_scrape(fd);
    ::close(fd);
  }
}

// Minimal HTTP/1.1 responder: reads the request head (bounded), then
// answers the 405/404/200 ladder; a 200 scrape is refreshed first so
// derived gauges are current.
void Frontend::answer_scrape(int fd) {
  // Read the request head; scrapers send tiny GETs, so bound everything.
  std::string head;
  Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    if (Clock::now() >= give_up || head.size() > 8192 || stopping_.load())
      return;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, kPollMs) <= 0) continue;
    char chunk[1024];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return;
    }
    head.append(chunk, static_cast<std::size_t>(n));
  }

  std::istringstream request(head);
  std::string method, path;
  request >> method >> path;

  auto reply = [&](const char* status, const char* content_type,
                   const std::string& body) {
    std::ostringstream os;
    os << "HTTP/1.1 " << status << "\r\nContent-Type: " << content_type
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n"
       << body;
    std::string data = os.str();
    (void)send_all(fd, data.data(), data.size(),
                   std::chrono::milliseconds(2000));
  };

  if (method != "GET") {
    reply("405 Method Not Allowed", "text/plain; charset=utf-8",
          "only GET is supported\n");
    return;
  }
  if (path != "/metrics" && path != "/") {
    reply("404 Not Found", "text/plain; charset=utf-8",
          "unknown path; scrape /metrics\n");
    return;
  }
  refresh();
  std::ostringstream text;
  obs::write_metrics_prometheus(text);
  reply("200 OK", "text/plain; version=0.0.4; charset=utf-8", text.str());
}

}  // namespace ocps::serve
