#pragma once

namespace sfopt::mw {

/// Message tags of the MW protocol.
inline constexpr int kTagTask = 1;
inline constexpr int kTagResult = 2;
inline constexpr int kTagShutdown = 3;
/// A worker failed to execute a task (exception in executeTask); the
/// payload echoes the task id and carries the error text.  The driver
/// requeues the task on another worker, mirroring the paper's restart
/// behaviour ("when a worker is restarted by the master...", section 4.2).
inline constexpr int kTagError = 4;

}  // namespace sfopt::mw
