#include "service/frame_io.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/str_util.h"
#include "service/protocol.h"

namespace dbscout::service {
namespace {

constexpr int kPollTimeoutMs = 100;

/// Reads exactly `len` bytes into `out`. `eof_ok` permits a clean EOF
/// before the first byte (frame boundary); EOF after that is an error.
/// Returns true when `len` bytes were read, false on clean EOF.
Result<bool> ReadExact(int fd, uint8_t* out, size_t len, bool eof_ok,
                       const std::atomic<bool>* stop) {
  size_t got = 0;
  while (got < len) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(
          StrFormat("poll: %s", ErrnoToString(errno).c_str()));
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return Status::Unavailable("shutting down");
    }
    if (ready == 0) {
      continue;  // timeout; re-check stop and poll again
    }
    const ssize_t n = ::read(fd, out + got, len - got);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IoError(
          StrFormat("read: %s", ErrnoToString(errno).c_str()));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) {
        return false;
      }
      return Status::IoError(
          StrFormat("connection closed mid-frame (%zu/%zu bytes)", got, len));
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status WriteFrame(int fd, std::span<const uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("frame payload %zu exceeds cap %u", payload.size(),
                  kMaxFramePayload));
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  uint8_t header[4];
  std::memcpy(header, &len, sizeof(len));

  // The header and payload must leave in one writev: two separate send()s
  // put the 4-byte prefix on the wire as its own segment, and with Nagle
  // active the payload then stalls behind the peer's delayed ACK — ~40ms
  // per frame on loopback, enough to dominate request latency.
  iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<uint8_t*>(payload.data()), payload.size()},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  size_t sent = 0;
  const size_t total = sizeof(header) + payload.size();
  while (sent < total) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE instead of
    // a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(
          StrFormat("write: %s", ErrnoToString(errno).c_str()));
    }
    sent += static_cast<size_t>(n);
    // Advance the iovecs past what the kernel took (partial writes are
    // rare on stream sockets but legal).
    size_t consumed = static_cast<size_t>(n);
    while (consumed > 0 && msg.msg_iovlen > 0) {
      if (consumed >= msg.msg_iov[0].iov_len) {
        consumed -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + consumed;
        msg.msg_iov[0].iov_len -= consumed;
        consumed = 0;
      }
    }
  }
  return Status::OK();
}

Result<std::optional<std::vector<uint8_t>>> ReadFrame(
    int fd, const std::atomic<bool>* stop) {
  uint8_t header[4];
  DBSCOUT_ASSIGN_OR_RETURN(
      const bool have_header,
      ReadExact(fd, header, sizeof(header), /*eof_ok=*/true, stop));
  if (!have_header) {
    return std::optional<std::vector<uint8_t>>(std::nullopt);
  }
  uint32_t len = 0;
  std::memcpy(&len, header, sizeof(len));
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("frame length %u exceeds cap %u", len, kMaxFramePayload));
  }
  std::vector<uint8_t> payload(len);
  if (len > 0) {
    DBSCOUT_ASSIGN_OR_RETURN(
        const bool full,
        ReadExact(fd, payload.data(), len, /*eof_ok=*/false, stop));
    (void)full;  // eof_ok=false: ReadExact only returns true or an error
  }
  return std::optional<std::vector<uint8_t>>(std::move(payload));
}

}  // namespace dbscout::service
