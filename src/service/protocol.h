#ifndef CULEVO_SERVICE_PROTOCOL_H_
#define CULEVO_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

struct sockaddr_un;

namespace culevo {

/// `culevod` wire protocol: length-prefixed frames over a local stream
/// socket.
///
/// One frame = a 4-byte little-endian unsigned payload length followed by
/// that many payload bytes. Requests are single-line UTF-8 text commands
/// (see service_core.h for the grammar); responses are multi-line text
/// whose first line is `ok ...` or `error <Status>`. One request frame
/// always produces exactly one response frame, in order, so a client may
/// pipeline.
///
/// Frames above kMaxFrameBytes are refused (InvalidArgument) before any
/// allocation — a garbage length prefix must not look like an allocation
/// request.

inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Writes one frame, retrying short writes and EINTR. IOError on any
/// unrecoverable write failure.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame into `*payload` (replacing its contents), retrying
/// short reads and EINTR.
///   - clean EOF before any byte     -> NotFound ("connection closed")
///   - EOF mid-frame                 -> DataLoss
///   - length prefix > kMaxFrameBytes-> InvalidArgument
///   - read error                    -> IOError
///   - frame not complete within
///     `timeout_ms` (when >= 0)      -> DeadlineExceeded
///
/// The deadline covers the WHOLE frame from the moment ReadFrame is
/// entered; a trickling client cannot reset it byte by byte. Callers who
/// only want to bound the mid-frame stall (not idle time between frames)
/// should poll for readability first, as the server does. timeout_ms < 0
/// waits forever (the pre-deadline behaviour).
Status ReadFrame(int fd, std::string* payload, int timeout_ms = -1);

/// Fills `*addr` with the address of the Unix socket at `path`, the one
/// the server binds and ConnectUnixSocket connects to. InvalidArgument
/// when `path` is empty or longer than `sun_path` holds.
Status UnixSocketAddress(const std::string& path, struct sockaddr_un* addr);

/// Connects a stream socket to the Unix socket at `path` and returns its
/// fd, which the caller closes.
///   - empty or overlong path        -> InvalidArgument
///   - socket() failure              -> IOError
///   - refused, failed or timed-out
///     connect                       -> Unavailable
///
/// With `timeout_ms` > 0 the socket's send timeout is set to it. That
/// bounds the connect, which waits for a free slot while the listener's
/// backlog is full, as well as every later write.
Result<int> ConnectUnixSocket(const std::string& path, int timeout_ms = 0);

}  // namespace culevo

#endif  // CULEVO_SERVICE_PROTOCOL_H_
