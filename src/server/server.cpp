#include "server/server.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "telemetry/telemetry.hpp"

namespace aalwines::server {

namespace {

void set_timeout(int fd, int option, long ms) {
    if (ms <= 0) return;
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

void close_quietly(int fd) {
    if (fd >= 0) ::close(fd);
}

} // namespace

Server::Server(Service& service, ServerConfig config)
    : _service(service), _config(std::move(config)) {
    if (_config.workers == 0)
        _config.workers = std::max(1u, std::thread::hardware_concurrency());
    if (_config.queue_capacity == 0) _config.queue_capacity = 1;
}

Server::~Server() {
    if (_started) stop();
    close_quietly(_wake_read);
    close_quietly(_wake_write);
}

void Server::start() {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe() failed");
    _wake_read = pipe_fds[0];
    _wake_write = pipe_fds[1];
    ::fcntl(_wake_read, F_SETFD, FD_CLOEXEC);
    ::fcntl(_wake_write, F_SETFD, FD_CLOEXEC);

    _listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listen_fd < 0) throw std::runtime_error("socket() failed");
    const int yes = 1;
    ::setsockopt(_listen_fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(_config.port);
    if (::inet_pton(AF_INET, _config.bind_address.c_str(), &address.sin_addr) != 1) {
        close_quietly(_listen_fd);
        _listen_fd = -1;
        throw std::runtime_error("invalid bind address '" + _config.bind_address + "'");
    }
    if (::bind(_listen_fd, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0 ||
        ::listen(_listen_fd, 128) != 0) {
        const std::string reason = std::strerror(errno);
        close_quietly(_listen_fd);
        _listen_fd = -1;
        throw std::runtime_error("cannot listen on " + _config.bind_address + ":" +
                                 std::to_string(_config.port) + ": " + reason);
    }
    sockaddr_in bound{};
    socklen_t bound_size = sizeof bound;
    ::getsockname(_listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_size);
    _port = ntohs(bound.sin_port);

    _service.set_runtime_info([this] {
        json::Object info;
        info.emplace("queueDepth", queue_depth());
        info.emplace("queueCapacity", _config.queue_capacity);
        info.emplace("workers", _config.workers);
        info.emplace("port", static_cast<std::size_t>(_port));
        return info;
    });

    _started = true;
    _acceptor = std::thread([this] { accept_loop(); });
    _workers.reserve(_config.workers);
    for (std::size_t i = 0; i < _config.workers; ++i)
        _workers.emplace_back([this] { worker_loop(); });
}

void Server::request_stop() noexcept {
    if (_wake_write < 0) return;
    const char byte = 1;
    // Async-signal-safe: a single write(); the acceptor does the rest.
    [[maybe_unused]] const auto ignored = ::write(_wake_write, &byte, 1);
}

void Server::wait() {
    {
        const util::MutexLock lock(_mutex);
        if (_join_started) {
            // Another thread is already joining (e.g. the signal waiter
            // racing the main thread's stop()).  Returning here would hand
            // the caller a daemon that is still serving; block until the
            // drain really finished instead.
            while (!_join_done) _join_cv.wait(_mutex);
            return;
        }
        _join_started = true;
    }
    if (_acceptor.joinable()) _acceptor.join();
    for (auto& worker : _workers)
        if (worker.joinable()) worker.join();
    {
        const util::MutexLock lock(_mutex);
        _join_done = true;
    }
    _join_cv.notify_all();
}

void Server::stop() {
    request_stop();
    wait();
}

std::size_t Server::queue_depth() const {
    const util::MutexLock lock(_mutex);
    return _queue.size();
}

void Server::accept_loop() {
    for (;;) {
        pollfd fds[2] = {{_listen_fd, POLLIN, 0}, {_wake_read, POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if ((fds[1].revents & POLLIN) != 0) break; // drain requested
        if ((fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
        if ((fds[0].revents & POLLIN) == 0) continue;

        const int fd = ::accept(_listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) continue;
            break; // EMFILE storms and fatal errors both end up draining
        }
        set_timeout(fd, SO_RCVTIMEO, _config.recv_timeout_ms);
        set_timeout(fd, SO_SNDTIMEO, _config.send_timeout_ms);

        bool admitted = false;
        {
            const util::MutexLock lock(_mutex);
            if (_queue.size() < _config.queue_capacity) {
                _queue.push_back({fd, std::chrono::steady_clock::now()});
                telemetry::gauge_max(telemetry::Gauge::server_queue_high_water,
                                     _queue.size());
                admitted = true;
            }
        }
        if (admitted) {
            _ready.notify_one();
            continue;
        }
        // Admission control: reply 503 without consuming the request.
        telemetry::count(telemetry::Counter::server_rejected);
        auto response = error_response(503, "verification queue is full");
        response.headers.emplace("Retry-After",
                                 std::to_string(_config.retry_after_seconds));
        http::write_all(fd, http::to_wire(response));
        close_quietly(fd);
    }
    close_quietly(_listen_fd);
    _listen_fd = -1;
    {
        const util::MutexLock lock(_mutex);
        _draining = true;
    }
    _ready.notify_all();
}

void Server::worker_loop() {
    for (;;) {
        Pending pending;
        {
            const util::MutexLock lock(_mutex);
            while (!_draining && _queue.empty()) _ready.wait(_mutex);
            if (_queue.empty()) return; // draining and nothing left
            pending = _queue.front();
            _queue.pop_front();
        }
        serve_connection(pending);
        // Serve mode exports no trace, so a worker's spans are dead weight
        // once its request is answered.
        telemetry::discard_thread_spans();
    }
}

void Server::serve_connection(Pending pending) {
    http::Request request;
    const auto status = http::read_request(pending.fd, request, _config.max_body_bytes);
    http::Response response;
    bool respond = true;
    switch (status) {
        case http::ReadStatus::Ok: {
            if (_config.deadline_ms > 0 &&
                std::chrono::steady_clock::now() - pending.accepted >
                    std::chrono::milliseconds(_config.deadline_ms)) {
                response = error_response(504, "request exceeded its deadline queued");
                break;
            }
            if (_config.on_request) _config.on_request(request);
            const auto queue_wait =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - pending.accepted)
                    .count();
            response = _service.handle(request, queue_wait);
            break;
        }
        case http::ReadStatus::Closed: respond = false; break;
        case http::ReadStatus::Malformed:
            response = error_response(400, "malformed HTTP request");
            break;
        case http::ReadStatus::TooLarge:
            response = error_response(413, "request exceeds the configured body limit");
            break;
        case http::ReadStatus::TimedOut:
            response = error_response(408, "timed out reading the request");
            break;
    }
    if (respond) http::write_all(pending.fd, http::to_wire(response));
    close_quietly(pending.fd);
}

} // namespace aalwines::server
